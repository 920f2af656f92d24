"""Greedy grouping of score-sorted points around starting points.

The scan visits points in score order. The first unassigned point starts a
new group; every later unassigned point within the absolute radius R of the
starting point joins it. Because scores are 1-Lipschitz projections of the
points, a score gap above R proves the true distance exceeds R, so the scan
for one group can stop at the first such successor without changing the
result. That window is widened by a slack far above the rounding of the
scores (``kernel.window_pad``), so rounding never leaves out a point within
R; the slack moves a window end only when a score lies within it of the
boundary.

The rows of a window are a contiguous slice of the sorted data, so the
distance tests of one starting point are one matrix-vector product of the
slice against the point, compared with R^2 through precomputed half squared
norms (``kernel.within``). A test whose expanded-norm value lies within the
rounding band of R^2 is decided again by the direct formula
``diff = y - x; einsum(diff, diff)``, so the groups are exactly those of the
direct formula. ``aggregate_reference`` is the same procedure on the direct
formula, without the early exit, and exists as an oracle for both.

A grouping is two arrays over the score-sorted rows: ``starts`` (l,), the
ascending starting row of each group, and ``group_of`` (n,), each row's group.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import _BLOCK, half_sq_norms, window_pad, within
from .prep import PreparedData


def _check_radius(r: float) -> None:
    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be a positive finite number, got {r!r}")


def aggregate(prepared: PreparedData, r: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition the prepared points into groups of absolute radius `r`.

    `r` is the absolute threshold (the caller multiplies the unit-free radius
    parameter by the median extend). Returns ``(starts, group_of,
    dist_count)``: the starting row of each group in creation order (i.e. by
    score), the group id of each sorted row, and the number of pairwise
    distance evaluations. A candidate is evaluated only while unassigned, so
    dist_count counts one evaluation per (starting point, unassigned
    candidate) pair inspected.
    """
    _check_radius(r)
    r = float(r)
    X, scores, n = prepared.centered, prepared.scores, prepared.n
    r_sq = r * r
    # Window ends never decrease, so no row at or past the current start's
    # window end has been assigned yet.
    ends = np.searchsorted(scores, scores + (r + window_pad(X, r)), side="right")
    half = half_sq_norms(X)
    free = np.ones(n, dtype=bool)
    group_of = np.empty(n, dtype=np.int64)
    starts: list[int] = []
    dist_count = 0
    i = 0
    while i < n:
        gid = len(starts)
        starts.append(i)
        group_of[i] = gid
        lo, hi = i + 1, int(ends[i])
        x = X[i:i + 1]
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            cand = free[a:b]
            count = int(np.count_nonzero(cand))
            if count:
                dist_count += count
                hit = within(x, half[i], X[a:b], half[a:b], r_sq)[0]
                hit &= cand
                rows = np.flatnonzero(hit)
                if rows.size:
                    rows += a
                    free[rows] = False
                    group_of[rows] = gid
        # the next start is the first free row after i, or the window end
        k = int(free[lo:hi].argmax()) if hi > lo else 0
        i = lo + k if hi > lo and free[lo + k] else hi
    return np.asarray(starts, dtype=np.int64), group_of, dist_count


def aggregate_reference(prepared: PreparedData, r: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Same partition as :func:`aggregate`, by the direct formula, scanning
    every remaining point.

    No early exit on the score gap, so dist_count is an upper bound for the
    pruned scan's count. Intended as a test oracle and for measuring how much
    work the pruning saves.
    """
    _check_radius(r)
    X, n = prepared.centered, prepared.n
    r_sq = float(r) * float(r)
    assigned = np.zeros(n, dtype=bool)
    group_of = np.full(n, -1, dtype=np.int64)
    starts: list[int] = []
    dist_count = 0
    i = 0
    while i < n:
        gid = len(starts)
        starts.append(i)
        assigned[i] = True
        group_of[i] = gid
        cand = i + 1 + np.nonzero(~assigned[i + 1:])[0]
        if cand.size:
            diff = X[cand] - X[i]
            dist_sq = np.einsum("ij,ij->i", diff, diff)
            dist_count += int(cand.size)
            hit = cand[dist_sq <= r_sq]
            assigned[hit] = True
            group_of[hit] = gid
        i += 1
        while i < n and assigned[i]:
            i += 1
    return np.asarray(starts, dtype=np.int64), group_of, dist_count
