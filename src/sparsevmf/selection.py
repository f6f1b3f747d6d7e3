"""Information criteria, sparse free-parameter counting, and the two-stage
model selection protocol (K from dense fits, beta along the path at fixed K)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import FitOptions, FitResult, MixtureParams, fit_em
from .errors import InitFailureError
from .path import PathOptions, follow_path

__all__ = [
    "CRITERIA",
    "Criterion",
    "SelectionReport",
    "count_free_params",
    "information_criterion",
    "make_ic_fn",
    "best_of_restarts",
    "select_model",
]

CRITERIA = ("AIC", "BIC", "RIC", "RICc", "EBIC")


@dataclass(frozen=True)
class Criterion:
    kind: str
    ebic_gamma: float = 0.5

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"unknown criterion {self.kind!r}")
        if not 0.0 <= self.ebic_gamma <= 1.0:
            raise ValueError("ebic_gamma must be in [0, 1]")

    def phi(self, n: int, d: int) -> float:
        """Penalty coefficient multiplying the free-parameter count."""
        if self.kind == "AIC":
            return 2.0
        if self.kind == "BIC":
            return math.log(n)
        if d <= 1:
            raise ValueError("RIC-family criteria require d >= 2")
        if self.kind == "RIC":
            return 2.0 * math.log(d)
        if self.kind == "RICc":
            if d < 3:
                raise ValueError("RICc requires d >= 3 (log log d)")
            return 2.0 * (math.log(d) + math.log(math.log(d)))
        return math.log(n) + 2.0 * self.ebic_gamma * math.log(d)  # EBIC


def count_free_params(params: MixtureParams) -> int:
    """Effective number of free parameters.

    alpha contributes K-1; kappa contributes K (free mode) or 1 (shared);
    each mean contributes max(1, nnz - 1) because of its unit-norm constraint."""
    K = params.K
    nnz = np.count_nonzero(params.means, axis=1)
    mean_count = int(np.maximum(1, nnz - 1).sum())
    kappa_count = 1 if params.kappa_mode == "shared" else K
    return (K - 1) + kappa_count + mean_count


def information_criterion(fit: FitResult, N: int, d: int, c: Criterion) -> float:
    """phi(n, d) * C - 2 * logL, using the unpenalized log-likelihood."""
    return c.phi(N, d) * count_free_params(fit.params) - 2.0 * fit.log_likelihood


def make_ic_fn(N: int, d: int):
    """Function mapping a FitResult to {criterion kind: value}, for every
    kind in CRITERIA, for N observations in d dimensions."""
    crits = {kind: Criterion(kind) for kind in CRITERIA}
    return lambda fit: {kind: information_criterion(fit, N, d, c) for kind, c in crits.items()}


@dataclass
class SelectionReport:
    dense_ic: dict            # K -> {criterion kind -> IC of the dense fit}
    dense_fits: dict          # K -> FitResult at beta = 0
    paths: dict               # K -> PathResult
    best_steps: dict          # K -> {criterion kind -> step index minimizing it}
    skipped: dict             # K -> reason string
    chosen_K: dict            # criterion kind -> K*
    final_models: dict        # criterion kind -> FitResult (best sparse at K*)
    beta_criterion: str

    @property
    def final_model(self) -> FitResult:
        return self.final_models[self.beta_criterion]


def best_of_restarts(X: np.ndarray, K: int, n_restarts: int, opts: FitOptions,
                     seed: int | None = None) -> FitResult:
    """Run n_restarts random initialisations and keep the best penalized
    log-likelihood among non-failed fits. n_restarts must be >= 1."""
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    best = None
    errors = []
    for r in range(n_restarts):
        rng = np.random.default_rng([0 if seed is None else seed, r])
        try:
            fit = fit_em(X, K, opts, rng=rng)
        except InitFailureError as err:
            errors.append(str(err))
            continue
        if fit.status.failed:
            errors.append(fit.status.value)
            continue
        if best is None or fit.penalized_log_likelihood > best.penalized_log_likelihood:
            best = fit
    if best is None:
        raise InitFailureError(f"all {n_restarts} restarts failed: {errors}")
    return best


def select_model(X: np.ndarray, K_candidates, n_restarts: int = 10,
                 path_opts: PathOptions | None = None,
                 k_criterion: str = "BIC", beta_criterion: str = "BIC",
                 seed: int | None = None) -> SelectionReport:
    """Two-stage selection: for each K fit the dense model (best of restarts)
    and follow the path; pick K* from the information criterion on the dense
    models, then the final model is the criterion-best step of K*'s path."""
    X = np.asarray(X, dtype=float)
    if not len(K_candidates):
        raise ValueError("K_candidates must be nonempty")
    if path_opts is None:
        path_opts = PathOptions()
    ic_fn = make_ic_fn(*X.shape)
    dense_ic, dense_fits, paths, best_steps, skipped = {}, {}, {}, {}, {}
    for K in K_candidates:
        try:
            dense = best_of_restarts(X, K, n_restarts, path_opts.fit_options, seed=seed)
        except InitFailureError as err:
            skipped[K] = str(err)
            continue
        dense_fits[K] = dense
        dense_ic[K] = ic_fn(dense)
        path = follow_path(X, K, path_opts, dense, ic_fn=ic_fn)
        paths[K] = path
        best_steps[K] = {
            kind: min(range(len(path.steps)), key=lambda i: path.steps[i].ic_values[kind])
            for kind in CRITERIA
        }
    if not dense_fits:
        raise InitFailureError(f"every candidate K failed: {skipped}")
    chosen_K = {
        kind: min(dense_ic, key=lambda K: dense_ic[K][kind]) for kind in CRITERIA
    }
    kstar = chosen_K[k_criterion]
    final_models = {kind: paths[kstar].steps[best_steps[kstar][kind]].fit for kind in CRITERIA}
    return SelectionReport(
        dense_ic=dense_ic,
        dense_fits=dense_fits,
        paths=paths,
        best_steps=best_steps,
        skipped=skipped,
        chosen_K=chosen_K,
        final_models=final_models,
        beta_criterion=beta_criterion,
    )
