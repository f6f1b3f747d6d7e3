"""Single von Mises-Fisher distribution: exact rejection sampling."""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_count
from .special import KAPPA_CAP, _check_d, _check_kappa

__all__ = ["KAPPA_CAP", "sample"]


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


def sample(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. unit-norm samples from vMF(mu, kappa), 0 <= kappa <= KAPPA_CAP.

    t = <mu, x> comes from Wood's rejection scheme, exact at kappa = 0 too: every
    proposal is accepted there and t = 1 - 2z, z ~ Beta((d-1)/2, (d-1)/2), the
    uniform marginal. The orthogonal part is a uniform direction in mu's complement.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1:
        raise ValueError("mu must be a vector")
    _check_d("sample", mu.size)
    if abs(np.linalg.norm(mu) - 1.0) > 1e-10:
        raise ValueError("mu must be unit-norm")
    _check_kappa("sample", kappa)
    _check_count("n", n, 1)
    d = mu.shape[0]
    t = _sample_tangent_weights(kappa, d, n, rng)
    # Uniform tangent directions: Gaussian draws orthogonalized against mu.
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ mu, mu)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    x = t[:, None] * mu[None, :] + np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None] * g
    return x / np.linalg.norm(x, axis=1, keepdims=True)
