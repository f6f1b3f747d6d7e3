"""Single von Mises-Fisher distribution: parameters and exact rejection
sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import KAPPA_CAP

__all__ = ["KAPPA_CAP", "VmfParams", "sample"]


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


def _wood_proposals(d: int, n: int, rng: np.random.Generator):
    """n proposals of Wood's (1994) rejection scheme for t = <mu, x>: Beta
    ((d-1)/2, (d-1)/2) draws z and the logs of uniforms. They do not depend
    on kappa."""
    half_m = 0.5 * (d - 1)
    z = rng.beta(half_m, half_m, size=n)
    return z, np.log(rng.uniform(size=n))


def _wood_accept(kappa: float, d: int, z: np.ndarray, log_u: np.ndarray):
    """Wood's candidates w for t and which of them are accepted at kappa."""
    m = d - 1
    b = m / (math.sqrt(4.0 * kappa * kappa + m * m) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
    return w, kappa * w + m * np.log1p(-x0 * w) - c >= log_u


def _sample_tangent_weights(kappa: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n values of t = <mu, x> by Wood's rejection scheme."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        w, accept = _wood_accept(kappa, d, *_wood_proposals(d, n - filled, rng))
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
