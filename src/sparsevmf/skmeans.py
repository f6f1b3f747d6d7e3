"""Spherical k-means baseline: crisp max-inner-product assignment alternating
with normalized cluster resultants (Lloyd-Forgy fixed point)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SkResult", "skmeans_fit"]


@dataclass
class SkResult:
    prototypes: np.ndarray
    labels: np.ndarray
    coherence: float
    n_iters: int
    converged: bool


def skmeans_fit(X: np.ndarray, K: int, max_iters: int = 300,
                rng: np.random.Generator | None = None) -> SkResult:
    """Maximize the coherence sum_i <proto_{z_i}, x_i>, starting from K
    distinct observations drawn by rng. Each pass assigns at the current
    prototypes and stops if the labels repeat (converged) or n_iters, the
    prototype updates so far, is max_iters; otherwise it updates.

    Empty clusters are reseeded from the observation with the lowest
    coherence contribution. Assignment ties break to the lowest cluster index."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if n < K:
        raise ValueError("need at least K observations")
    if rng is None:
        rng = np.random.default_rng()
    prototypes = X[rng.choice(n, size=K, replace=False)]
    labels = None
    n_iters = 0
    while True:
        sims = X @ prototypes.T
        prev, labels = labels, np.argmax(sims, axis=1)
        converged = prev is not None and np.array_equal(labels, prev)
        if converged or n_iters == max_iters:
            break
        own_sim = sims[np.arange(n), labels]
        for k in range(K):
            members = labels == k
            if not members.any():
                # Reseed from the worst-served observation.
                worst = int(np.argmin(own_sim))
                prototypes[k] = X[worst]
                labels[worst] = k
                own_sim[worst] = 1.0
                continue
            resultant = X[members].sum(axis=0)
            norm = np.linalg.norm(resultant)
            if norm > 0:
                prototypes[k] = resultant / norm
        n_iters += 1
    coherence = float(sims[np.arange(n), labels].sum())
    return SkResult(prototypes=prototypes, labels=labels, coherence=coherence,
                    n_iters=n_iters, converged=converged)
