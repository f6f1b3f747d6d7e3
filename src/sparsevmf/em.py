"""Penalized EM for mixtures of von Mises-Fisher distributions (dataset.py owns the model file).

The l1 penalty couples the directional means and the concentrations, so each
M step is one conditional-maximisation cycle (ECM, Meng & Rubin 1993): it
soft-thresholds each mean at the previous kappa, then re-solves kappa at the
new means, and the penalized log-likelihood still ascends.

Every product of X (N x d) with a K-row matrix is one of two blocked
kernels: _inner_products, the K x N inner products <mu_k, x_i>, and
_resultants, the K x d resultants tau X of K x N weights. They serve e_step,
init_random (one-hot weights) and skmeans_fit, and run over row blocks of
max(1, 256 KiB // (8 d)) rows, 163 at d = 200: OpenBLAS packs the whole X
operand of a product, and past L2 the packed copy costs more than the
arithmetic for K of a few (Goto & van de Geijn 2008 size packed panels to the
cache the same way). The resultants add the blocks in order, so equal tau
gives equal bits; when X fits in one block, each product is one BLAS call.

exp(x) rounds to +0 for every x below -745.14. When each column of the log
joint has one entry more than 746 above the rest, every other term
underflows: then the log-sum-exp is the column maximum and tau is one-hot,
and the E-step writes both down without evaluating exp. Otherwise its exps
and products round such terms to 0 or to subnormals, as intended, so the
E-step ignores underflow whatever the caller's np.errstate says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateFitError, InitFailureError
from .special import KAPPA_CAP, _check_d, invert_bessel_ratio, log_vmf_normalizer

__all__ = [
    "KAPPA_MODES",
    "MixtureParams",
    "Responsibilities",
    "FitOptions",
    "FitStatus",
    "FitResult",
    "init_random",
    "e_step",
    "soft_threshold_mu",
    "m_step",
    "fit_em",
    "hard_assign",
]

# One concentration per component, or one shared by all (see MixtureParams).
KAPPA_MODES = ("free", "shared")

# Random initialisations fit_em tries before it gives up.
MAX_INIT_RETRIES = 50

# Bytes of X per row block of the E-step's products (see above).
_BLOCK_BYTES = 256 * 1024

# exp(x) is +0 for every x below this (see above): the one-hot test.
_EXP_ZERO_BELOW = -746.0


class FitStatus(str, Enum):
    """Why fit_em stopped. An M step raises each failed member but COLLAPSED
    as DegenerateFitError(member, message), and a random start raises
    EMPTY_COMPONENT or DEGENERATE_UNIFORM the same way. COLLAPSED is fit_em's
    verdict on where EM ended."""

    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    DEGENERATE_UNIFORM = "DegenerateUniform"
    ZERO_MEAN = "ZeroMean"
    EMPTY_COMPONENT = "EmptyComponent"
    COLLAPSED = "Collapsed"

    @property
    def failed(self) -> bool:
        """Whether EM stopped on a degenerate model: the fit is unusable, and
        restarts discard it and a path ends before it."""
        return self not in (FitStatus.CONVERGED, FitStatus.MAX_ITERS)


@dataclass
class MixtureParams:
    """Full parameter vector of a K-component vMF mixture.

    kappa_mode "free" keeps one concentration per component; "shared"
    constrains all components to a single value (kappas then holds K copies
    of it so the shapes stay uniform).
    """

    alpha: np.ndarray
    means: np.ndarray
    kappas: np.ndarray
    kappa_mode: str = "free"

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.kappas = np.asarray(self.kappas, dtype=float)
        if self.kappa_mode not in KAPPA_MODES:
            raise ValueError(f"unknown kappa_mode {self.kappa_mode!r}")
        k = self.alpha.shape[0]
        if self.means.ndim != 2 or self.means.shape[0] != k:
            raise ValueError("means must be a K x d matrix, K = len(alpha)")
        _check_d("MixtureParams", self.means.shape[1])
        if self.kappas.shape != (k,):
            raise ValueError("kappas must hold K values")
        for name in ("alpha", "means", "kappas"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        # K >= 1 past the alpha sum, so min and max below see a nonempty array.
        if abs(self.alpha.sum() - 1.0) > 1e-10 or self.alpha.min() < 0:
            raise ValueError("alpha must be nonnegative and sum to 1")
        sq_norms = np.einsum("kj,kj->k", self.means, self.means)
        if np.abs(np.sqrt(sq_norms) - 1.0).max() > 1e-10:
            raise ValueError("every mean must be unit-norm")
        lo, hi = self.kappas.min(), self.kappas.max()
        if lo <= 0 or hi > KAPPA_CAP:
            raise ValueError(f"kappas must lie in (0, {KAPPA_CAP:g}]")
        if self.kappa_mode == "shared" and lo != hi:
            raise ValueError("shared mode requires a single kappa value")

    @property
    def K(self) -> int:
        return self.alpha.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass
class Responsibilities:
    """Posterior membership probabilities tau (N x K), per-observation log
    marginals, and the K x d resultants r_k = sum_i tau_ik x_i: the expected
    sufficient statistics the M step and the path read instead of X."""

    tau: np.ndarray
    log_marginals: np.ndarray
    resultants: np.ndarray

    @property
    def log_likelihood(self) -> float:
        return float(self.log_marginals.sum())


@dataclass
class FitOptions:
    beta: float = 0.0
    max_em_iters: int = 500
    em_tol: float = 1e-6
    kappa_mode: str = "free"

    def __post_init__(self):
        # Each range test is written so that NaN fails it.
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not (isinstance(self.max_em_iters, (int, np.integer)) and self.max_em_iters >= 0):
            raise ValueError(f"max_em_iters must be an integer >= 0, got {self.max_em_iters!r}")
        if not 0 < self.em_tol < np.inf:
            raise ValueError(f"em_tol must be finite and > 0, got {self.em_tol!r}")
        if self.kappa_mode not in KAPPA_MODES:
            raise ValueError(f"unknown kappa_mode {self.kappa_mode!r}")


@dataclass
class FitResult:
    """Outcome of fit_em. trace holds the penalized log-likelihood of each
    parameter point evaluated, the last at params. n_iters is len(trace) - 1
    on every status: the number of M steps that returned parameters. MaxIters
    means the tolerance was not met after max_em_iters of them. resp is the
    E-step at params; it is None on fits loaded from JSON and on the steps a
    path records."""

    params: MixtureParams
    beta: float
    log_likelihood: float
    penalized_log_likelihood: float
    trace: list = field(default_factory=list)
    n_iters: int = 0
    status: FitStatus = FitStatus.CONVERGED
    resp: Responsibilities | None = None


def init_random(X: np.ndarray, K: int, rng: np.random.Generator,
                kappa_mode: str = "free") -> MixtureParams:
    """Random initialisation: K distinct observations as means, crisp
    assignment for alpha, and kappa solved from the crisp resultants.

    Raises DegenerateFitError with status EMPTY_COMPONENT when a crisp
    cluster is empty, or DEGENERATE_UNIFORM when a resultant is; callers
    retry with fresh draws.
    """
    n = X.shape[0]
    if n < K:
        raise ValueError("need at least K observations")
    idx = rng.choice(n, size=K, replace=False)
    means = X[idx].copy()
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.argmax(_inner_products(means, X), axis=0)
    counts = np.bincount(labels, minlength=K)
    if np.any(counts == 0):
        raise DegenerateFitError(FitStatus.EMPTY_COMPONENT,
                                 "empty crisp cluster during initialisation")
    alpha = counts / n
    resultants = _resultants((labels == np.arange(K)[:, None]).astype(float), X)
    kappas = _kappas_from_resultants(means, resultants, counts, n, kappa_mode)
    return MixtureParams(alpha=alpha, means=means, kappas=kappas, kappa_mode=kappa_mode)


def _row_blocks(X: np.ndarray) -> list:
    """Slices of at most max(1, _BLOCK_BYTES // (8 d)) consecutive rows that
    cover the N x d matrix X in order; one empty slice when N = 0."""
    n, d = X.shape
    rows = max(1, _BLOCK_BYTES // (8 * d))
    return [slice(i, i + rows) for i in range(0, max(n, 1), rows)]


def _inner_products(means: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K x N matrix of <mu_k, x_i>, one product per row block of X."""
    inner = np.empty((means.shape[0], X.shape[0]))
    for b in _row_blocks(X):
        np.matmul(means, X[b].T, out=inner[:, b])
    return inner


def _resultants(tau: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K x d resultants tau X of K x N weights tau, the row blocks of X added
    in order."""
    first, *rest = _row_blocks(X)
    resultants = tau[:, first] @ X[first]
    for b in rest:
        resultants += tau[:, b] @ X[b]
    return resultants


def _log_joint(inner: np.ndarray, params: MixtureParams) -> np.ndarray:
    """K x N matrix of log alpha_k + log f_k(x_i), built in place over the
    K x N inner products <mu_k, x_i>: inner is overwritten and returned."""
    with np.errstate(divide="ignore"):  # a zero weight gives log 0 = -inf
        log_alpha = np.log(params.alpha)
    log_norm = np.array([log_vmf_normalizer(params.d, k) for k in params.kappas.tolist()])
    inner *= params.kappas[:, None]
    inner += log_norm[:, None]
    inner += log_alpha[:, None]
    return inner


def _logsumexp_shifted(a: np.ndarray, a_max: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log sum_k exp(a_ki) per column of a K x N array a, from its column
    maxima a_max and e = exp(a - a_max), which is overwritten; -inf for a
    column of -inf entries. The m terms tied at the column maximum are taken
    out of the sum, so the rest adds through log1p."""
    at_max = a == a_max
    m = at_max.sum(axis=0)
    e[at_max] = 0.0
    s = e.sum(axis=0)
    s /= m
    return np.log1p(s) + np.log(m) + a_max


def e_step(X: np.ndarray, params: MixtureParams,
           prev: Responsibilities | None = None) -> Responsibilities:
    """Posterior responsibilities tau_ik, computed in log space component by
    component, and the resultants they weight: tau is exp(a - log marginals)
    for the log joint a, with the log marginals from _logsumexp_shifted (the
    row blocks, exp and one-hot rules are in the module docstring).

    prev, when given, must be an E-step on the same X: if the new tau is
    bitwise equal to prev.tau, the result shares prev.resultants instead of
    recomputing them, which would give the same bits."""
    with np.errstate(under="ignore"):
        a = _log_joint(_inner_products(params.means, X), params)
        a_max = a.max(axis=0)
        shifted = a - a_max
        low = shifted < _EXP_ZERO_BELOW
        # Each column's maximum has a - a_max = 0 (NaN if a_max is not finite),
        # so N lanes not low mean that it stands alone and every other term's
        # exp is +0: s = 0 and m = 1 in the log-sum-exp, whose value is then
        # 0.0 + a_max, and tau is exp(0) = 1 at the maxima and +0 elsewhere.
        if low.size - np.count_nonzero(low) == a.shape[1] and np.isfinite(a_max).all():
            log_marginals = 0.0 + a_max
            tau = np.logical_not(low, out=low).astype(float)
        else:
            log_marginals = _logsumexp_shifted(a, a_max, np.exp(shifted, out=shifted))
            a -= log_marginals
            tau = np.exp(a, out=a)
        if prev is not None and np.array_equal(tau, prev.tau.T):
            resultants = prev.resultants
        else:
            resultants = _resultants(tau, X)
    return Responsibilities(tau=tau.T, log_marginals=log_marginals, resultants=resultants)


def soft_threshold_mu(r: np.ndarray, kappa, beta: float) -> np.ndarray:
    """Penalized mean update: soft-threshold kappa*|r| at beta and normalize.

    Solves max_{||mu||=1} kappa <mu, r> - beta ||mu||_1 in closed form, for
    one resultant r (d,) at a scalar kappa, or row by row for K x d
    resultants at K kappas. When every coordinate of a row is thresholded
    away, its maximiser is sign(r_j) e_j at j = argmax_j |r_j| (lowest index
    on ties): since ||mu||_1 >= ||mu||_2 = 1, no unit vector scores above
    kappa |r_j| - beta. Raises DegenerateFitError with status ZERO_MEAN only
    when a row of r is zero.
    """
    rows = np.atleast_2d(r)
    abs_r = np.abs(rows)
    shrunk = np.reshape(kappa, (-1, 1)) * abs_r
    shrunk -= beta
    np.maximum(shrunk, 0.0, out=shrunk)
    # sqrt(row @ row) is np.linalg.norm's formula for one row, bit for bit.
    norms = np.sqrt([row @ row for row in shrunk])
    mu = np.sign(rows)
    mu *= shrunk
    empty = norms == 0.0
    norms[empty] = 1.0
    mu /= norms[:, None]
    for k in np.flatnonzero(empty):
        j = int(np.argmax(abs_r[k]))
        if abs_r[k, j] == 0.0:
            raise DegenerateFitError(FitStatus.ZERO_MEAN,
                                     "zero resultant: the directional mean is undefined")
        mu[k] = 0.0
        mu[k, j] = np.sign(rows[k, j])
    return mu.reshape(np.shape(r))


def _kappas_from_resultants(means: np.ndarray, r: np.ndarray, weights: np.ndarray,
                            n: int, kappa_mode: str) -> np.ndarray:
    """Concentrations from the K x d resultants r: rho_k = <mu_k, r_k> / w_k
    per component, or the pooled rho = sum_k <mu_k, r_k> / n in shared mode,
    each solved by invert_bessel_ratio under the cap; rho >= 1, which only
    rounding past 1 reaches, gives KAPPA_CAP.

    Raises DegenerateFitError with status DEGENERATE_UNIFORM when a rho is
    <= 0."""
    K, d = means.shape

    def solve(rho):
        if rho <= 0.0:
            raise DegenerateFitError(FitStatus.DEGENERATE_UNIFORM,
                                     f"rho = {rho:g} <= 0: component drifting to uniform")
        if rho >= 1.0:
            return KAPPA_CAP
        return invert_bessel_ratio(d, rho)

    if kappa_mode == "shared":
        return np.full(K, solve(float(np.einsum("kj,kj->", means, r)) / n))
    return np.array([solve(float(means[k] @ r[k]) / weights[k]) for k in range(K)])


def m_step(resp: Responsibilities, prev_params: MixtureParams,
           opts: FitOptions) -> MixtureParams:
    """One conditional-maximisation cycle of the M phase at opts.beta and
    opts.kappa_mode, from the E-step's column sums and resultants alone:
    closed-form alpha, the means soft-thresholded at prev_params.kappas, then
    the kappas solved at those means.

    Each block update maximises the expected complete-data objective Q with
    the other block fixed, so Q does not decrease. A single call does not
    make the means and kappas jointly stationary; a converged fit_em does."""
    n = resp.tau.shape[0]
    col_sums = resp.tau.sum(axis=0)
    if col_sums.min() < 1e-12:
        raise DegenerateFitError(FitStatus.EMPTY_COMPONENT,
                                 "component with vanishing total responsibility")
    alpha = col_sums / n
    r = resp.resultants
    means = soft_threshold_mu(r, prev_params.kappas, opts.beta)
    kappas = _kappas_from_resultants(means, r, col_sums, n, opts.kappa_mode)
    return MixtureParams(alpha=alpha, means=means, kappas=kappas, kappa_mode=opts.kappa_mode)


def _penalized(ll: float, params: MixtureParams, beta: float) -> float:
    """The objective penalized EM ascends: ll - beta * sum_k ||mu_k||_1."""
    return ll - beta * float(np.abs(params.means).sum())


def hard_assign(resp: Responsibilities) -> np.ndarray:
    """Crisp cluster per observation: argmax responsibility, ties to the
    lowest component index."""
    return np.argmax(resp.tau, axis=1)


def fit_em(X: np.ndarray, K: int, opts: FitOptions,
           init: MixtureParams | None = None,
           rng: np.random.Generator | int | None = None,
           resp: Responsibilities | None = None) -> FitResult:
    """Run penalized EM until the relative change of the penalized
    log-likelihood drops below em_tol.

    Without init, init_random draws the start from rng: a Generator, or a
    seed (None for fresh entropy) passed to np.random.default_rng. A start
    that raises DegenerateFitError is redrawn, and InitFailureError is raised
    when MAX_INIT_RETRIES starts in a row fail.

    init, when given, must hold K components in opts.kappa_mode's mode.
    resp, given only with init, must be e_step(X, init): a warm start that
    already holds it skips the first E-step, with the same result. Each
    parameter point is evaluated once, each E-step is given the one before it
    as prev, and the result carries the E-step at its params. Neither init
    nor resp is written to.

    A DegenerateFitError from an M step is not raised: the result carries its
    status and the last valid parameters. A fit that ends with a component at
    KAPPA_CAP holding less than two observations' worth of responsibility
    gets status COLLAPSED: the likelihood is unbounded as a component
    concentrates on one point (Hathaway 1985), so the cap stops kappa but the
    fit is degenerate. A tight component of more points keeps its status.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if n < K:
        raise ValueError("need at least K observations")
    if resp is not None and init is None:
        raise ValueError("resp is the E-step at init and needs init")
    if init is not None and init.K != K:
        raise ValueError(f"K = {K}, but init holds {init.K} components")
    if init is not None and init.kappa_mode != opts.kappa_mode:
        raise ValueError(f"kappa_mode = {opts.kappa_mode!r}, but init is in "
                         f"{init.kappa_mode!r} mode")
    if init is None:
        rng = np.random.default_rng(rng)
        last_err = None
        for _ in range(MAX_INIT_RETRIES):
            try:
                init = init_random(X, K, rng, kappa_mode=opts.kappa_mode)
                break
            except DegenerateFitError as err:
                last_err = err
        if init is None:
            raise InitFailureError(f"initialisation failed {MAX_INIT_RETRIES} times: {last_err}")
    params = init
    if resp is None:
        resp = e_step(X, params)
    trace: list[float] = []
    while True:
        trace.append(_penalized(resp.log_likelihood, params, opts.beta))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= opts.em_tol * (abs(trace[-2]) + 1e-12):
            status = FitStatus.CONVERGED
            break
        if len(trace) > opts.max_em_iters:
            status = FitStatus.MAX_ITERS
            break
        try:
            # By keyword: perfbench's tracer reads the resp argument by name.
            params = m_step(resp=resp, prev_params=params, opts=opts)
        except DegenerateFitError as err:
            status = err.status
            break
        resp = e_step(X, params, prev=resp)
    if not status.failed and np.any((params.kappas >= KAPPA_CAP) & (resp.tau.sum(axis=0) < 2.0)):
        status = FitStatus.COLLAPSED
    return FitResult(
        params=params,
        beta=opts.beta,
        log_likelihood=resp.log_likelihood,
        penalized_log_likelihood=trace[-1],
        trace=trace,
        n_iters=len(trace) - 1,
        status=status,
        resp=resp,
    )
