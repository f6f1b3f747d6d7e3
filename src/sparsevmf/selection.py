"""Information criteria, sparse free-parameter counting, and the two-stage
model selection protocol (K* from the dense fits, beta along K*'s path alone)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import FitOptions, FitResult, MixtureParams, fit_em
from .errors import InitFailureError, _check_count
from .path import PathOptions, follow_path
from .special import _check_d

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

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"unknown criterion {self.kind!r}")

    def phi(self, n: int, d: int) -> float:
        """Penalty coefficient multiplying the free-parameter count."""
        if self.kind == "AIC":
            return 2.0
        if self.kind == "BIC":
            return math.log(n)
        _check_d(self.kind, d)
        if self.kind == "RIC":
            return 2.0 * math.log(d)
        if self.kind == "RICc":
            return 2.0 * (math.log(d) + math.log(math.log(d)))
        return math.log(n) + math.log(d)  # EBIC, gamma = 1/2


def count_free_params(params: MixtureParams) -> int:
    """Effective number of free parameters.

    alpha contributes K-1; kappa contributes K (free mode) or 1 (shared);
    each mean contributes max(1, nnz - 1) because of its unit-norm constraint."""
    K = params.K
    nnz = (params.means != 0).sum(axis=1).tolist()
    mean_count = sum(max(1, n - 1) for n in nnz)
    kappa_count = 1 if params.kappa_mode == "shared" else K
    return (K - 1) + kappa_count + mean_count


def _ic(phi: float, n_params: int, ll: float) -> float:
    """phi * C - 2 * logL for C free parameters: the one formula of every criterion."""
    return phi * n_params - 2.0 * ll


def information_criterion(fit: FitResult, N: int, d: int, c: Criterion) -> float:
    """phi(n, d) * C - 2 * logL, using the unpenalized log-likelihood."""
    return _ic(c.phi(N, d), count_free_params(fit.params), fit.log_likelihood)


def make_ic_fn(N: int, d: int):
    """Function mapping a FitResult to {criterion kind: value}, for every
    kind in CRITERIA, for N observations in d dimensions. Each value is
    information_criterion's, from one count of the free parameters per fit."""
    phis = {kind: Criterion(kind).phi(N, d) for kind in CRITERIA}

    def ic_fn(fit: FitResult) -> dict:
        n_params, ll = count_free_params(fit.params), fit.log_likelihood
        return {kind: _ic(phi, n_params, ll) for kind, phi in phis.items()}

    return ic_fn


@dataclass
class SelectionReport:
    dense_ic: dict            # K -> {criterion kind -> IC of the dense fit}
    dense_fits: dict          # K -> FitResult at beta = 0
    paths: dict               # K* -> PathResult; K* = chosen_K[k_criterion] only
    best_steps: dict          # criterion kind -> index of K*'s path step minimizing it
    skipped: dict             # K -> reason string
    chosen_K: dict            # criterion kind -> K*
    final_model: FitResult    # beta_criterion-best step of the k_criterion K*'s path


def best_of_restarts(X: np.ndarray, K: int, n_restarts: int, opts: FitOptions,
                     seed: int = 0) -> FitResult:
    """Run n_restarts random initialisations and keep the best penalized
    log-likelihood among non-failed fits. n_restarts must be an integer >= 1."""
    _check_count("n_restarts", n_restarts, 1)
    best = None
    errors = []
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
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
                 seed: int = 0) -> SelectionReport:
    """Two-stage selection: fit the dense model (best of restarts) for every
    candidate K and pick K* from the information criterion on those fits;
    then follow K*'s path alone, and the final model is its criterion-best
    step. paths holds K* only. An unknown criterion name raises ValueError
    before the first fit."""
    for kind in (k_criterion, beta_criterion):
        Criterion(kind)  # an unknown name raises ValueError here, not after the fits
    X = np.asarray(X, dtype=float)
    if not len(K_candidates):
        raise ValueError("K_candidates must be nonempty")
    if path_opts is None:
        path_opts = PathOptions()
    ic_fn = make_ic_fn(*X.shape)
    dense_ic, dense_fits, skipped = {}, {}, {}
    for K in K_candidates:
        try:
            dense = best_of_restarts(X, K, n_restarts, path_opts.fit_options, seed=seed)
        except InitFailureError as err:
            skipped[K] = str(err)
            continue
        dense_fits[K] = dense
        dense_ic[K] = ic_fn(dense)
    if not dense_fits:
        raise InitFailureError(f"every candidate K failed: {skipped}")
    chosen_K = {
        kind: min(dense_ic, key=lambda K: dense_ic[K][kind]) for kind in CRITERIA
    }
    kstar = chosen_K[k_criterion]
    path = follow_path(X, kstar, path_opts, dense_fits[kstar], ic_fn=ic_fn)
    best = {
        kind: min(range(len(path.steps)), key=lambda i: path.steps[i].ic_values[kind])
        for kind in CRITERIA
    }
    return SelectionReport(
        dense_ic=dense_ic,
        dense_fits=dense_fits,
        paths={kstar: path},
        best_steps=best,
        skipped=skipped,
        chosen_K=chosen_K,
        final_model=path.steps[best[beta_criterion]].fit,
    )
