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
sweep runs in blocks: the next free rows from the current start, as many as
fit one product of at most ``_BLOCK`` entries against their joint window
(the sizing rule of ``kernel.window_blocks``), are tested against that
window in one float32 matrix product (on a copy made once per call),
compared with R^2 through half squared norms (``kernel.within``). The block
is then resolved in row order: a candidate claimed by an earlier start of
the block is skipped; one still free starts a group and claims the rows of
its own window that are within R and still free. Only candidates with a hit
among the rows after them touch an array. dist_count counts, for each
start, the free rows of its own window at its turn. A start whose window
alone exceeds the budget (wide windows, few groups) is a block of its own,
its window tested in column chunks.

A test whose value lies within the rounding band of R^2 (float32's, or
float64's beyond float32's range) is decided again by the direct formula
``diff = y - x; einsum(diff, diff)``, so the groups are exactly those of
the direct formula, whatever the blocks.
``aggregate_reference`` in ``tests/_oracles.py`` is the same procedure on the
direct formula, one start at a time and without the early exit.

A grouping is two arrays over the score-sorted rows: ``starts`` (l,), the
ascending starting row of each group, and ``group_of`` (n,), each row's group.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .kernel import _BLOCK, half_sq_norms, single, window_pad, within
from .prep import PreparedData


def _finite_real(value) -> bool:
    """Whether `value` is a finite real number; a boolean or a string is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _radius(r) -> float:
    """`r` as a float; it must be a positive finite real, as `fit` requires
    of its radius."""
    if not (_finite_real(r) and r > 0.0):
        raise ValueError(f"radius must be a positive finite number, got {r!r}")
    return float(r)


def _scale(scale) -> float:
    """`scale` as a float; it must be a real in [1, 2], as `fit` requires."""
    if not (_finite_real(scale) and 1.0 <= scale <= 2.0):
        raise ValueError(f"scale must lie in [1, 2], got {scale!r}")
    return float(scale)


def aggregate(prepared: PreparedData, r: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition the prepared points into groups of absolute radius `r`.

    `r` is the absolute threshold (the caller multiplies the unit-free radius
    parameter by the median row norm). Returns ``(starts, group_of,
    dist_count)``: the starting row of each group in creation order (i.e. by
    score), the group id of each sorted row, and the number of pairwise
    distance evaluations. A candidate is evaluated only while unassigned, so
    dist_count counts one evaluation per (starting point, unassigned
    candidate) pair inspected.
    """
    r = _radius(r)
    X, scores, n = prepared.centered, prepared.scores, prepared.n
    r_sq = r * r
    # Window ends never decrease, so no row at or past the window end of the
    # latest start has been assigned yet.
    ends = np.searchsorted(scores, scores + (r + window_pad(X, r)), side="right")
    half, X32 = half_sq_norms(X), single(X)
    free = np.ones(n, dtype=bool)
    group_of = np.empty(n, dtype=np.int64)
    starts: list[np.ndarray] = []
    lookahead = math.isqrt(_BLOCK) + 2    # a block of m candidates spans >= m - 1 columns
    steps = np.arange(1, lookahead + 1)
    g = dist_count = 0
    i = 0
    while i < n:
        hi = int(ends[i])
        m = 1
        if 2 * (hi - i - 1) <= _BLOCK:
            # the next free rows, as many as fit one product with their joint window
            cand = i + np.flatnonzero(free[i:hi + lookahead])[:lookahead]
            e = ends[cand]
            m = max(1, int(np.searchsorted((e - (i + 1)) * steps[:cand.size], _BLOCK,
                                           side="right")))
        if m == 1:
            # this start alone; a window too wide for one product goes in column chunks
            starts.append(np.array([i]))
            group_of[i] = g
            for a in range(i + 1, hi, _BLOCK):
                b = min(a + _BLOCK, hi)
                count = int(np.count_nonzero(free[a:b]))
                if count:
                    dist_count += count
                    hit = within(X[i:i + 1], half[i], X[a:b], half[a:b], r_sq,
                                 X32[i:i + 1], X32[a:b])[0]
                    rows = a + np.flatnonzero(hit & free[a:b])
                    free[rows] = False
                    group_of[rows] = g
            g += 1
            last = i
        else:
            g, count = _sweep_block(X, X32, half, r_sq, free, group_of, starts, g,
                                    cand[:m], e[:m])
            dist_count += count
            last = int(cand[m - 1])
        # the next start is the first free row after the last candidate, or its window end
        lo, hi = last + 1, int(ends[last])
        k = int(free[lo:hi].argmax()) if hi > lo else 0
        i = lo + k if hi > lo and free[lo + k] else hi
    return np.concatenate(starts), group_of, dist_count


def _sweep_block(X, X32, half, r_sq, free, group_of, starts, g, cand, e):
    """Run the sweep over the candidate rows `cand` (free, ascending, each
    with window end `e`) from one product against their joint window.

    In row order, a candidate still free becomes the start of group g, g + 1,
    ... and claims the rows of its own window that are within r and still
    free; a candidate claimed by an earlier start of the block is skipped.
    Appends the new starts, updates `free` and `group_of`, and returns the
    next group id and the block's distance evaluations.
    """
    lo, top = int(cand[0]) + 1, int(e[-1])
    free_cols = free[lo:top]
    mask = within(np.take(X, cand, axis=0), half[cand, None], X[lo:top], half[lo:top], r_sq,
                  np.take(X32, cand, axis=0), X32[lo:top])
    mask &= free_cols
    mask &= np.arange(lo, top) > cand[:, None]
    # free rows of each candidate's window before the block claims any
    seen = np.concatenate(([0], np.cumsum(free_cols)))
    counts = seen[e - lo] - seen[cand + 1 - lo]

    owners, claimed = [], []
    cands, window_ends = cand.tolist(), e.tolist()
    for k in mask.any(axis=1).nonzero()[0].tolist():
        c = cands[k]
        if free[c]:
            own = slice(c + 1 - lo, window_ends[k] - lo)
            rows = (mask[k, own] & free_cols[own]).nonzero()[0]
            if rows.size:
                rows += c + 1
                free[rows] = False
                owners.append(k)
                claimed.append(rows)
    is_start = free[cand]
    block_starts = cand[is_start]
    ids = g - 1 + np.cumsum(is_start)
    group_of[block_starts] = ids[is_start]
    starts.append(block_starts)
    evaluations = int(counts[is_start].sum())
    if claimed:
        # a start's window loses the rows claimed before its turn: a row j
        # claimed by candidate k is counted by every later start below j
        owner = np.repeat(owners, [rows.size for rows in claimed])
        rows = np.concatenate(claimed)
        group_of[rows] = ids[owner]
        evaluations -= int(np.searchsorted(block_starts, rows).sum()
                           - np.searchsorted(block_starts, cand[owner], side="right").sum())
    return g + block_starts.size, evaluations
