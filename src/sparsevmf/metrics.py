"""Evaluation metrics: adjusted Rand index, mean sparsity and support
precision/recall against the planted means."""

from __future__ import annotations

import math

import numpy as np

from .em import MixtureParams

__all__ = [
    "adjusted_rand_index",
    "sparsity",
    "support_precision_recall",
]


def adjusted_rand_index(a, b) -> float:
    """Permutation-model adjusted Rand index from the contingency table."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("label sequences must be 1-d, nonempty and of equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    n = a.size

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def sparsity(params: MixtureParams) -> float:
    """Fraction of exactly-zero coordinates among the K*d mean entries."""
    return float(np.mean(params.means == 0.0))


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix at the least total
    cost, by shortest augmenting paths (Crouse 2016, IEEE TAES 52(4):1679).

    Rows are added one at a time; each takes a Dijkstra search over reduced
    costs to the nearest free column, then the duals and the matching are
    updated along that path. The visiting order is that of SciPy's
    linear_sum_assignment (remaining columns in descending order, removed by
    swapping in the last one; a free column wins a tie), so ties resolve as
    SciPy's do."""
    n = cost.shape[0]
    c = cost.tolist()
    u = [0.0] * n
    v = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        dist = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        cols = []
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        # Dual update over the search tree: its rows other than cur are the
        # ones matched to its columns other than the sink.
        u[cur] += min_val
        for j in cols:
            if j != sink:
                u[row4col[j]] += min_val - dist[j]
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row)


def match_components(estimated: MixtureParams, truth: MixtureParams) -> np.ndarray:
    """Permutation aligning estimated components to true ones by maximizing
    the total inner product of their means; perm[k] is the true component
    matched to estimated component k."""
    if estimated.K != truth.K:
        raise ValueError("component counts differ")
    return _min_cost_assignment(-(estimated.means @ truth.means.T))


def support_precision_recall(estimated: MixtureParams,
                             truth_params: MixtureParams) -> tuple[float, float, dict]:
    """Precision and recall of the zero coordinates of the estimated means
    against the planted support, after component alignment.

    When the estimate predicts no zeros at all, precision is reported as 1.0
    with the 'empty_prediction' flag set, so sweeps over dense fits do not
    crash."""
    if estimated.K != truth_params.K or estimated.d != truth_params.d:
        raise ValueError("K or d mismatch between estimate and ground truth")
    perm = match_components(estimated, truth_params)
    est_zero = estimated.means == 0.0
    true_zero = (truth_params.means == 0.0)[perm]
    hits = int(np.sum(est_zero & true_zero))
    n_est = int(est_zero.sum())
    n_true = int(true_zero.sum())
    meta = {"matching": perm.tolist(), "empty_prediction": n_est == 0}
    precision = 1.0 if n_est == 0 else hits / n_est
    recall = 1.0 if n_true == 0 else hits / n_true
    return precision, recall, meta

