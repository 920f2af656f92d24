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
tested against the rows its windows span by one matrix product, read
through the expanded form |x|^2/2 + |y|^2/2 - x.y against precomputed half
squared norms (``kernel.within``). A pair whose expanded value lies within
the rounding band of the threshold is decided again by the direct formula
``diff = y - x; einsum(diff, diff)``, so the edges are exactly those of the
direct formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import _check_radius
from .geometry import overlap_fraction
from .kernel import half_sq_norms, window_blocks, window_pad, within
from .prep import PreparedData


@dataclass(frozen=True, eq=False)
class MergeGraph:
    """Undirected graph on group indices; edges are merge decisions.

    `edges` is an (E, 2) int64 array of pairs i < j, unique, sorted
    lexicographically.
    """

    num_groups: int
    edges: np.ndarray


@dataclass(frozen=True, eq=False)
class GroupClusterMap:
    """Assignment of groups to contiguous cluster ids.

    Cluster ids are ordered by descending total point count, ties broken by
    the smallest contained group index. `sizes[c]` is the number of points in
    cluster c. Entries of -1 in `cluster_of_group` mark outlier groups (only
    produced by the "separate" outlier mode).
    """

    cluster_of_group: np.ndarray
    k: int
    sizes: np.ndarray


def _edge_array(neighbours: list[np.ndarray]) -> np.ndarray:
    """(E, 2) edge array from the ascending larger endpoints of each group i."""
    counts = [nb.size for nb in neighbours]
    first = np.repeat(np.arange(len(neighbours), dtype=np.int64), counts)
    second = np.concatenate([np.empty(0, dtype=np.int64), *neighbours])
    return np.stack((first, second), axis=1)


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


def connected_components(graph: MergeGraph, group_sizes=None) -> GroupClusterMap:
    """Clusters = connected components of the merge graph.

    `group_sizes` gives the point count of each group (defaults to 1 each)
    and only affects the ordering of the resulting cluster ids.
    """
    l = graph.num_groups
    sizes = np.ones(l, dtype=np.int64) if group_sizes is None \
        else np.asarray(group_sizes, dtype=np.int64)
    roots = _component_roots(l, np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2))
    cluster_of_group, cluster_sizes = relabel_by_size(roots, sizes)
    return GroupClusterMap(cluster_of_group=cluster_of_group,
                           k=len(cluster_sizes), sizes=cluster_sizes)


def distance_merge(starting_scores, starting_points, r: float, scale: float = 1.5) -> MergeGraph:
    """Edge (i, j) iff the two starting points are within ``scale * r``.

    Starting points must be listed in score order; the scan from each i stops
    at the first successor whose score gap exceeds scale * r (plus a slack
    for the rounding of the scores), which cannot skip a true edge because
    score gaps never exceed distances. Blocks of consecutive starting points
    are tested against their joint window by one matrix product each.
    """
    _check_radius(r)
    if not 1.0 <= scale <= 2.0:
        raise ValueError(f"scale must lie in [1, 2], got {scale!r}")
    sc = np.asarray(starting_scores, dtype=np.float64)
    pts = np.asarray(starting_points, dtype=np.float64)
    threshold = scale * r
    t_sq = threshold * threshold
    ends = np.searchsorted(sc, sc + (threshold + window_pad(pts, threshold)), side="right")
    half = half_sq_norms(pts)
    pieces = [np.empty((0, 2), dtype=np.int64)]
    for rows, cols in window_blocks(ends):
        i, j = np.nonzero(within(pts[rows], half[rows, None], pts[cols], half[cols], t_sq))
        i += rows.start
        j += cols.start
        keep = (j > i) & (j < ends[i])
        pieces.append(np.stack((i[keep], j[keep]), axis=1))
    return MergeGraph(num_groups=sc.size, edges=np.concatenate(pieces))


def density_pair_test(count_union: int, count_inter: int, dist: float,
                      r: float, d: int) -> bool:
    """Density criterion for one candidate pair of groups.

    Decides count_union / vol(union) <= count_inter / vol(intersection) with
    the common ball volume cancelled out, which keeps the comparison exact in
    any dimension (the raw volumes underflow for large d; their ratio does
    not). An empty intersection count can never witness shared density.
    """
    if count_inter == 0:
        return False
    frac = overlap_fraction(dist, r, d)
    return count_union * frac <= count_inter * (2.0 - frac)


def _ball_member_sets(centers, center_scores, prepared: PreparedData, r: float):
    """For each center, the sorted point indices within distance r of it.

    Candidate points are located through a padded score window before the
    exact distance check; the padding guarantees the window is a superset of
    the true ball membership despite float rounding of the scores.
    """
    scores = prepared.scores
    X = prepared.centered
    r_sq = r * r
    pad = window_pad(X, r)
    members = []
    for c in range(centers.shape[0]):
        lo = int(np.searchsorted(scores, center_scores[c] - r - pad, side="left"))
        hi = int(np.searchsorted(scores, center_scores[c] + r + pad, side="right"))
        diff = X[lo:hi] - centers[c]
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        members.append(lo + np.nonzero(dist_sq <= r_sq)[0])
    return members


def density_merge(starts, prepared: PreparedData, r: float) -> MergeGraph:
    """Edge (i, j) iff the intersection of the two R-balls is at least as
    dense in data points as their union.

    `starts` holds the sorted-row index of each group's starting point, in
    score order. Candidate pairs are limited to starting points whose score
    gap is at most 2r, widened by ``kernel.window_pad`` for the rounding of
    the scores (a larger gap proves the balls cannot overlap), and
    whose center distance is strictly below 2r. The point counts range over
    the whole dataset restricted geometrically to the union/intersection
    regions.
    """
    _check_radius(r)
    starts = np.asarray(starts, dtype=np.int64)
    centers = np.take(prepared.centered, starts, axis=0)
    cscores = prepared.scores[starts]
    four_r_sq = 4.0 * (r * r)
    in_ball = _ball_member_sets(centers, cscores, prepared, r)
    ends = np.searchsorted(cscores, cscores + (2.0 * r + window_pad(centers, 2.0 * r)),
                           side="right").tolist()

    neighbours = []
    for i, end in enumerate(ends):
        js = np.arange(i + 1, end)
        diff = centers[js] - centers[i]
        cdist_sq = np.einsum("ij,ij->i", diff, diff)
        merged = []
        for j, dsq in zip(js, cdist_sq):
            if not dsq < four_r_sq:
                continue
            bi, bj = in_ball[i], in_ball[j]
            count_inter = np.intersect1d(bi, bj, assume_unique=True).size
            count_union = bi.size + bj.size - count_inter
            if density_pair_test(count_union, count_inter, math.sqrt(dsq), r, prepared.d):
                merged.append(j)
        neighbours.append(np.asarray(merged, dtype=np.int64))
    return MergeGraph(num_groups=starts.size, edges=_edge_array(neighbours))
