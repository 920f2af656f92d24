"""Greedy grouping of score-sorted points around starting points.

The scan visits points in score order. The first unassigned point starts a
new group; every later unassigned point within the absolute radius R of the
starting point joins it. Because scores are 1-Lipschitz projections of the
points, a score gap above R proves the true distance exceeds R, so the scan
for one group can stop at the first such successor without changing the
result. ``aggregate_reference`` is the same procedure without that early
exit and exists as an oracle for the pruning.

A grouping is two arrays over the score-sorted rows: ``starts`` (l,), the
ascending starting row of each group, and ``group_of`` (n,), each row's group.
"""

from __future__ import annotations

import math

import numpy as np

from .prep import PreparedData


def _scan(prepared: PreparedData, r: float, prune: bool):
    scores = prepared.scores
    X = prepared.centered
    n = prepared.n
    r_sq = r * r
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
        end = int(np.searchsorted(scores, scores[i] + r, side="right")) if prune else n
        if end > i + 1:
            cand = np.nonzero(~assigned[i + 1:end])[0]
            if cand.size:
                cand += i + 1
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
    return _scan(prepared, float(r), prune=True)


def aggregate_reference(prepared: PreparedData, r: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Same partition as :func:`aggregate`, but scanning every remaining point.

    No early exit on the score gap, so dist_count is an upper bound for the
    pruned scan's count. Intended as a test oracle and for measuring how much
    work the pruning saves.
    """
    _check_radius(r)
    return _scan(prepared, float(r), prune=False)
