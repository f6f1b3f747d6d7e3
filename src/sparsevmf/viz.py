"""Pixel-map rendering of sparse directional means and data: dimensions are
ordered by their support pattern, rows by cluster size, and each group of
dimensions sharing a support count gets its own hue."""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

from .em import MixtureParams

__all__ = [
    "DimensionOrdering",
    "order_dimensions",
    "order_rows",
    "data_row_order",
    "render_pixel_map",
]

PALETTE_VERSION = 1

# 12 fully saturated hues, 30 degrees apart.
PALETTE = [
    tuple(int(round(255 * c)) for c in colorsys.hsv_to_rgb(h / 12.0, 1.0, 0.9))
    for h in range(12)
]


@dataclass
class DimensionOrdering:
    perm: np.ndarray       # perm[p] = original dimension at position p
    group_of: np.ndarray   # group id per position (contiguous, by support count)
    n: np.ndarray          # support count per position


def order_rows(params: MixtureParams) -> np.ndarray:
    """Component order by alpha descending, ties by index."""
    return np.argsort(-params.alpha, kind="stable")


def data_row_order(labels: np.ndarray, comp_order: np.ndarray) -> np.ndarray:
    """Data row permutation: rows grouped by cluster in comp_order, original
    index order within a cluster."""
    rows = []
    for k in comp_order:
        rows.extend(np.nonzero(labels == k)[0].tolist())
    return np.array(rows, dtype=int)


def order_dimensions(params: MixtureParams, epsilon: float = 1e-8) -> DimensionOrdering:
    """Sort dimensions by (support count descending, binary column pattern
    lexicographic with components in alpha-descending order and 1 before 0,
    total absolute weight descending), stably. |mu_kj| > epsilon, finite and
    >= 0, puts j in mean k's support."""
    if not 0 <= epsilon < np.inf:  # written so that NaN fails it
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    means = params.means
    b_ordered = (np.abs(means) > epsilon).astype(int)[order_rows(params)]
    n = b_ordered.sum(axis=0)
    weight = np.abs(means).sum(axis=0)
    # np.lexsort sorts by its last key first and is stable, so ties keep index order.
    perm = np.lexsort((-weight, *(-b_ordered[::-1]), -n))
    n_sorted = n[perm]
    group_of = np.cumsum(np.diff(n_sorted, prepend=n_sorted[:1]) != 0)
    return DimensionOrdering(perm=perm, group_of=group_of, n=n_sorted)


def render_pixel_map(matrix: np.ndarray, dim_ordering: DimensionOrdering,
                     row_perm: np.ndarray, out_path, mode: str = "means",
                     scale: int = 1) -> None:
    """Write a binary PPM (P6): one scale x scale block (scale >= 1) per
    (row, dimension) after applying the permutations. Intensity is linear in
    |value| relative to the matrix maximum; zeros render white; hue cycles
    through the palette by dimension group."""
    if mode not in ("means", "data"):
        raise ValueError(f"unknown mode {mode!r}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    matrix = np.asarray(matrix, dtype=float)
    m = matrix[np.ix_(np.asarray(row_perm), dim_ordering.perm)]
    rows, cols = m.shape
    maxabs = float(np.abs(m).max())
    img = np.full((rows, cols, 3), 255, dtype=np.uint8)
    if maxabs > 0:
        t = np.abs(m) / maxabs
        hues = np.array([PALETTE[g % len(PALETTE)] for g in dim_ordering.group_of],
                        dtype=float)
        # white -> hue interpolation per pixel
        col = 255.0 * (1.0 - t[:, :, None]) + hues[None, :, :] * t[:, :, None]
        img = np.clip(np.rint(col), 0, 255).astype(np.uint8)
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = (
        f"P6\n# sparsevmf palette v{PALETTE_VERSION} maxabs={maxabs!r} mode={mode}\n"
        f"{img.shape[1]} {img.shape[0]}\n255\n"
    )
    try:
        with open(out_path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(img.tobytes())
    except OSError as err:
        raise OSError(f"cannot write pixel map to {out_path}: {err}") from err
