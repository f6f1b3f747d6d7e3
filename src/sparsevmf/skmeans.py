"""Spherical k-means baseline: crisp max-inner-product assignment alternating
with normalized cluster resultants (Lloyd-Forgy fixed point)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import _inner_products, _resultants
from .errors import _check_count

__all__ = ["SkResult", "skmeans_fit"]


@dataclass
class SkResult:
    prototypes: np.ndarray
    labels: np.ndarray
    coherence: float
    n_iters: int
    converged: bool


def skmeans_fit(X: np.ndarray, K: int, max_iters: int = 300,
                rng: np.random.Generator | int | None = None) -> SkResult:
    """Maximize the coherence sum_i <proto_{z_i}, x_i>, starting from K
    distinct observations drawn by rng, a Generator or a seed as in fit_em.
    K >= 1 and max_iters >= 0 must be integers. Each pass assigns at the
    current prototypes and stops if the labels repeat (converged) or n_iters,
    the prototype updates so far, is max_iters; otherwise it updates.

    An update first reseeds each empty cluster, in index order, with the
    observation of lowest coherence contribution not yet moved, then sets
    every prototype to the normalized resultant of its cluster under those
    labels (a zero resultant keeps its prototype), so a converged run is at
    its fixed point. Assignment ties break to the lowest cluster index."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _check_count("K", K, 1)
    _check_count("max_iters", max_iters, 0)
    if n < K:
        raise ValueError("need at least K observations")
    rng = np.random.default_rng(rng)
    prototypes = X[rng.choice(n, size=K, replace=False)]
    labels = None
    n_iters = 0
    while True:
        sims = _inner_products(prototypes, X)
        prev, labels = labels, np.argmax(sims, axis=0)
        converged = prev is not None and np.array_equal(labels, prev)
        if converged or n_iters == max_iters:
            break
        own_sim = sims[labels, np.arange(n)]
        for k in range(K):
            if not np.any(labels == k):
                worst = int(np.argmin(own_sim))
                labels[worst] = k
                own_sim[worst] = np.inf
        resultants = _resultants((labels == np.arange(K)[:, None]).astype(float), X)
        norms = np.linalg.norm(resultants, axis=1, keepdims=True)
        np.divide(resultants, norms, out=prototypes, where=norms > 0)
        n_iters += 1
    coherence = float(sims[labels, np.arange(n)].sum())
    return SkResult(prototypes=prototypes, labels=labels, coherence=coherence,
                    n_iters=n_iters, converged=converged)
