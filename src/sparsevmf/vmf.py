"""Single von Mises-Fisher distribution: log-density, weighted maximum
likelihood estimation, and exact rejection sampling."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ZeroMeanError
from .special import KAPPA_CAP, kappa_from_rho, log_vmf_normalizer

__all__ = ["KAPPA_CAP", "VmfParams", "log_density", "mle_fit", "sample"]


@dataclass
class VmfParams:
    """Directional mean (unit vector) and concentration of a vMF distribution."""

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if abs(np.linalg.norm(self.mu) - 1.0) > 1e-10:
            raise ValueError("mu must be unit-norm")
        if not 0.0 <= self.kappa <= KAPPA_CAP:
            raise ValueError(f"kappa must be in [0, {KAPPA_CAP:g}], got {self.kappa}")

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def log_density(x: np.ndarray, p: VmfParams) -> float:
    """log f(x | mu, kappa) = log c_d(kappa) + kappa * <mu, x>."""
    x = np.asarray(x, dtype=float)
    if x.shape != p.mu.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, mu {p.mu.shape}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-6:
        raise ValueError("x must be unit-norm")
    return log_vmf_normalizer(p.d, p.kappa) + p.kappa * float(p.mu @ x)


def mle_fit(X: np.ndarray, weights: np.ndarray | None = None) -> VmfParams:
    """Weighted maximum likelihood estimate of (mu, kappa).

    mu is the normalized weighted resultant; kappa comes from the closed-form
    inverse-ratio approximation applied to rbar = ||resultant|| / sum(weights),
    clamped to KAPPA_CAP. Unit weights recover the plain MLE.

    Raises ZeroMeanError when the resultant norm is below 1e-12. When
    rbar >= 1 - 1e-12 the data are degenerate (all mass on one point); a
    warning is emitted and kappa is set to KAPPA_CAP.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    wsum = weights.sum()
    if wsum <= 0:
        raise ValueError("weights must have positive sum")
    resultant = weights @ X
    norm = float(np.linalg.norm(resultant))
    if norm < 1e-12:
        raise ZeroMeanError(f"weighted resultant norm {norm:g} < 1e-12")
    mu = resultant / norm
    rbar = norm / wsum
    if rbar >= 1.0 - 1e-12:
        warnings.warn("degenerate concentration: rbar >= 1 - 1e-12, capping kappa")
    return VmfParams(mu=mu, kappa=kappa_from_rho(d, rbar))


def _sample_tangent_weights(kappa: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values of t = <mu, x> by Wood's rejection scheme."""
    m = d - 1
    b = m / (math.sqrt(4.0 * kappa * kappa + m * m) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(0.5 * m, 0.5 * m, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=todo)
        accept = kappa * w + m * np.log1p(-x0 * w) - c >= np.log(u)
        nacc = int(accept.sum())
        out[filled : filled + nacc] = w[accept]
        filled += nacc
    return out


def sample(p: VmfParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. unit-norm samples from vMF(mu, kappa).

    kappa = 0 yields the uniform distribution on the sphere. The tangent
    component t = <mu, x> is drawn by rejection sampling; the orthogonal part
    is a uniform direction in the complement of mu.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p.d
    if p.kappa == 0.0:
        g = rng.standard_normal((n, d))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    t = _sample_tangent_weights(p.kappa, d, n, rng)
    # Uniform tangent directions: Gaussian draws orthogonalized against mu.
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ p.mu, p.mu)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    x = t[:, None] * p.mu[None, :] + np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None] * g
    return x / np.linalg.norm(x, axis=1, keepdims=True)
