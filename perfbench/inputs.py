"""Seeded planted sparse vMF mixtures drawn by the benchmark's own sampler.

The library ships its own simulator, but the `select-d20` and
`path-d200-tight` workloads must not depend on it: a change to the
simulator's random streams would otherwise change the inputs a timing is
compared on. Sampling uses only NumPy, and `fingerprint` gives a SHA-256 of
each matrix so a comparison across commits can check that both sides saw the
same bytes. `hard_labels` and `crisp_overlap` score a model with SciPy's
Bessel function instead of the package's own special functions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive


@dataclass
class Planted:
    X: np.ndarray        # N x d unit rows
    labels: np.ndarray   # planted component of each row
    means: np.ndarray    # K x d unit, sparse
    kappas: np.ndarray   # per-component concentration after rescaling
    alpha: np.ndarray


def _wood_cosines(kappa: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of t = <mu, x> for x ~ vMF(mu, kappa) on S^{d-1} (Wood, 1994)."""
    m = d - 1.0
    b = m / (2.0 * kappa + math.sqrt(4.0 * kappa * kappa + m * m))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    out = np.empty(0)
    while out.size < n:
        z = rng.beta(0.5 * m, 0.5 * m, size=n)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        keep = kappa * w + m * np.log1p(-x0 * w) - c >= np.log(rng.uniform(size=n))
        out = np.concatenate([out, w[keep]])
    return out[:n]


def sample_vmf(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors from vMF(mu, kappa): a Wood cosine along mu plus a
    uniform direction in the orthogonal complement."""
    t = _wood_cosines(kappa, mu.shape[0], n, rng)
    g = rng.standard_normal((n, mu.shape[0]))
    g -= np.outer(g @ mu, mu)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    x = t[:, None] * mu + np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None] * g
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def planted_mixture(seed: int, K: int, d: int, N: int, base_kappa: float,
                    sparsity: float) -> Planted:
    """Balanced K-component mixture with sparse, well-separated means.

    The means are K of 20*K Gaussian directions, picked greedily to keep
    the largest pairwise inner product small, each with floor(sparsity*d)
    random coordinates zeroed.
    kappa_k = 2 base_kappa / (1 - max_l <mu_k, mu_l>), so closer pairs get
    tighter components. Labels are exactly balanced and shuffled.
    """
    rng = np.random.default_rng([seed, K, d, N])
    cand = rng.standard_normal((20 * K, d))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    gram = cand @ cand.T
    chosen = [int(np.argmin(gram + np.eye(len(cand)) * 2.0) // len(cand))]
    while len(chosen) < K:
        worst = gram[:, chosen].max(axis=1)
        worst[chosen] = np.inf
        chosen.append(int(np.argmin(worst)))
    means = cand[chosen].copy()
    n_zero = int(sparsity * d)
    for k in range(K):
        means[k, rng.choice(d, size=n_zero, replace=False)] = 0.0
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    cross = means @ means.T
    np.fill_diagonal(cross, -np.inf)
    kappas = 2.0 * base_kappa / (1.0 - cross.max(axis=1))
    labels = rng.permutation(np.arange(N) % K)
    X = np.empty((N, d))
    for k in range(K):
        idx = np.flatnonzero(labels == k)
        X[idx] = sample_vmf(means[k], kappas[k], idx.size, rng)
    return Planted(X=X, labels=labels, means=means, kappas=kappas,
                   alpha=np.full(K, 1.0 / K))


def hard_labels(X, alpha, means, kappas) -> np.ndarray:
    """Bayes-rule labels under a vMF mixture, with the normaliser from
    scipy's scaled Bessel function (constants shared by all components
    dropped)."""
    kappas = np.asarray(kappas, dtype=float)
    nu = 0.5 * X.shape[1] - 1.0
    log_c = nu * np.log(kappas) - (np.log(ive(nu, kappas)) + kappas)
    if not np.all(np.isfinite(log_c)):
        raise FloatingPointError("vMF normaliser out of range for the label check")
    return np.argmax(np.log(alpha) + log_c + (X @ means.T) * kappas, axis=1)


def crisp_overlap(p: Planted, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo misassignment rate of the Bayes rule under the planted
    parameters: the realised overlap of a planted mixture."""
    labels = rng.choice(len(p.kappas), size=n, p=p.alpha)
    wrong = 0
    for k in range(len(p.kappas)):
        m = int(np.sum(labels == k))
        if m:
            x = sample_vmf(p.means[k], p.kappas[k], m, rng)
            wrong += int(np.sum(hard_labels(x, p.alpha, p.means, p.kappas) != k))
    return wrong / n


def fingerprint(X: np.ndarray) -> str:
    """SHA-256 of the matrix bytes (C order, float64) and its shape."""
    a = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()
