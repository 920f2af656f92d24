"""Group merging criteria and connected-component extraction.

Two groups merge either when their starting points are within ``scale * R``
of each other (distance criterion) or when the data density inside the
intersection of their R-balls is at least the density inside the union
(density criterion). Clusters are the connected components of the resulting
graph on groups. The graph is an (E, 2) edge array over group ids, and the
components come from vectorized passes over that array.

The distance criterion only pairs starting points within a score window of
``scale * R``, widened by a slack far above the rounding of the scores
(``kernel.window_pad``). Each block of consecutive starting points is
tested against the rows its windows span by one float32 product with a
copy made once per search, whose last row holds the only half squared norms
kept (``kernel.screen``), so that it gives x.y - |y|^2/2 (``kernel.within``).
A pair whose value lies within the rounding band of the threshold is
decided again by the direct formula ``diff = y - x; einsum(diff, diff)``,
so the edges are exactly those of the direct formula.

Density merging makes one search of the same kind: for each row, the
centers within r of it among those in its score window. Each pair of balls
that holds a row is one key, so a row in k balls adds k(k - 1)/2 keys;
sorting the keys counts the shared rows. As balls that share no row never
merge, the keys whose centers are under 2r apart are the pairs tested, all
by one array expression on their overlap fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import _radius, _scale
from .geometry import overlap_fraction
from .kernel import _BLOCK, _direct_sq, screen, window_blocks, window_pad, within
from .prep import PreparedData


@dataclass(frozen=True, eq=False)
class GroupClusterMap:
    """Assignment of groups to contiguous cluster ids.

    Cluster ids are ordered by descending total point count, ties broken by
    the smallest contained group index. `sizes[c]` is the number of points in
    cluster c. Entries of -1 in `cluster_of_group` mark outlier groups (only
    produced by the "separate" outlier mode).
    """

    cluster_of_group: np.ndarray
    sizes: np.ndarray

    @property
    def k(self) -> int:
        return int(self.sizes.size)


def relabel_by_size(raw_ids, group_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary cluster ids to contiguous ones ordered by point count.

    Heaviest cluster becomes id 0; ties go to the cluster containing the
    smallest group index. Ids equal to -1 pass through unchanged (outliers).
    Returns (new id per group, point count per new cluster id).
    """
    raw = np.asarray(raw_ids, dtype=np.int64)
    kept = raw != -1
    _, first, inverse = np.unique(raw[kept], return_index=True, return_inverse=True)
    totals = np.bincount(inverse, minlength=first.size,
                         weights=np.asarray(group_sizes)[kept]).astype(np.int64)
    # `first` indexes the kept groups, whose order is the group-index order.
    order = np.lexsort((first, -totals))
    new_id = np.empty(order.size, dtype=np.int64)
    new_id[order] = np.arange(order.size)
    out = np.full(raw.size, -1, dtype=np.int64)
    out[kept] = new_id[inverse]
    return out, totals[order]


def _component_roots(num_groups: int, edges: np.ndarray) -> np.ndarray:
    """Smallest group index in each group's connected component.

    Hook-and-pointer-jump: each tree root that shares an edge with a smaller
    root hooks under the smallest such root, then pointer jumping flattens
    every tree to depth one. Parents only ever decrease, so the forest stays acyclic and each
    final root is its component's minimum.
    """
    parent = np.arange(num_groups, dtype=np.int64)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        ra, rb = parent[a], parent[b]
        crossing = ra != rb
        if not crossing.any():
            return parent
        ra, rb = ra[crossing], rb[crossing]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def connected_components(num_groups: int, edges, group_sizes=None) -> GroupClusterMap:
    """Clusters = connected components of the graph on `num_groups` groups
    with the (E, 2) array `edges` of group-id pairs.

    `group_sizes` gives the point count of each group (defaults to 1 each)
    and only affects the ordering of the resulting cluster ids.
    """
    sizes = np.ones(num_groups, dtype=np.int64) if group_sizes is None \
        else np.asarray(group_sizes, dtype=np.int64)
    roots = _component_roots(num_groups, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    cluster_of_group, cluster_sizes = relabel_by_size(roots, sizes)
    return GroupClusterMap(cluster_of_group=cluster_of_group, sizes=cluster_sizes)


def distance_merge(starting_scores, starting_points, r: float, scale: float = 1.5) -> np.ndarray:
    """Edge (i, j) iff the two starting points are within ``scale * r``.

    Starting points must be listed in score order; the scan from each i stops
    at the first successor whose score gap exceeds scale * r (plus a slack
    for the rounding of the scores), which cannot skip a true edge because
    score gaps never exceed distances. Blocks of consecutive starting points
    are tested against their joint window by one matrix product each.
    Returns the (E, 2) int64 array of the edges i < j, unique and sorted
    lexicographically, as :func:`density_merge` does.
    """
    threshold = _scale(scale) * _radius(r)
    sc = np.asarray(starting_scores, dtype=np.float64)
    pts = np.asarray(starting_points, dtype=np.float64)
    ends = np.searchsorted(sc, sc + (threshold + window_pad(pts, threshold)), side="right")
    counts, j = _window_hits(pts, pts, np.arange(1, sc.size + 1), ends, threshold * threshold)
    return np.stack((np.repeat(np.arange(sc.size), counts), j), axis=1)


def _window_hits(A, B, los, his, t: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row i of A, the j with los[i] <= j < his[i] and
    |B[j] - A[i]|^2 <= t: their number per row, and the j, ascending per
    row, row after row. One product per block of ``kernel.window_blocks``."""
    b32, e = screen(B)
    counts = np.zeros(A.shape[0], dtype=np.int64)
    pieces = [np.empty(0, dtype=np.int64)]
    for rows, lo, hi in window_blocks(los, his):
        hits = within(A[rows], B, t, b32[:, lo:hi], np.arange(lo, hi), e)
        i, j = np.divmod(np.flatnonzero(hits), hits.shape[1])
        j += lo
        keep = (j >= los[rows][i]) & (j < his[rows][i])
        counts[rows] += np.bincount(i[keep], minlength=rows.stop - rows.start)
        pieces.append(j[keep])
    return counts, np.concatenate(pieces)


def density_merge(starts, prepared: PreparedData, r: float) -> np.ndarray:
    """Edge (i, j) iff the intersection of the two R-balls is at least as
    dense in data points as their union.

    `starts` holds the sorted-row index of each group's starting point, in
    score order. The pairs tested are the balls that share a row, as no
    other pair can merge, with a center distance strictly below 2r. The
    balls' overlap fraction f makes the test count_union * f <= count_inter
    * (2 - f): the common volume cancels, which keeps it exact in any
    dimension, where the raw volumes underflow and their ratio does not.
    """
    r = _radius(r)
    X, scores, starts = prepared.centered, prepared.scores, np.asarray(starts, dtype=np.int64)
    centers, cscores, l = np.take(X, starts, axis=0), scores[starts], starts.size
    reach = r + window_pad(X, r)
    k, ball = _window_hits(X, centers, np.searchsorted(cscores, scores - reach),
                           np.searchsorted(cscores, scores + reach, side="right"), r * r)
    # every two balls of one row make one key; the keys of rows p0..p1-1 are
    # made and counted about _BLOCK at a time (a row with more goes alone)
    bounds, done = np.r_[0, np.cumsum(k)], np.cumsum(k * (k - 1) // 2)
    cuts = np.searchsorted(done, np.arange(_BLOCK, done[-1], _BLOCK), side="right")
    pieces = []
    for p0, p1 in zip([0, *cuts], [*cuts, k.size]):
        q0, q1 = bounds[p0], bounds[p1]
        # the balls after each ball of the chunk in its row: one key with each
        later = np.repeat(bounds[p0 + 1:p1 + 1], k[p0:p1]) - np.arange(q0 + 1, q1 + 1)
        first = np.repeat(np.arange(q0, q1), later)
        shift = np.repeat(np.arange(q0 + 1, q1 + 1) - (np.cumsum(later) - later), later)
        pieces.append(np.unique(ball[first] * l + ball[shift + np.arange(first.size)],
                                return_counts=True))
    keys, runs = map(np.concatenate, zip(*pieces))
    keys, at = np.unique(keys, return_inverse=True)     # the chunks' counts summed per key
    inter = np.bincount(at, weights=runs).astype(np.int64)
    # a row lists its balls in ascending order, so i < j; dsq < 4.0 * (r * r)
    # is the 2r test
    pairs = np.stack(np.divmod(keys, l), axis=1)
    dsq = _direct_sq(centers, pairs[:, 0], centers, pairs[:, 1])
    close = dsq < 4.0 * (r * r)
    pairs, inter, dsq = pairs[close], inter[close], dsq[close]
    union = np.bincount(ball, minlength=l)[pairs].sum(axis=1) - inter
    frac = overlap_fraction(np.sqrt(dsq), r, prepared.d)
    return pairs[union * frac <= inter * (2.0 - frac)]
