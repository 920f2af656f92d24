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

The rows of a window are a contiguous slice of the sorted data, so the sweep
runs in blocks, every start on one path: the next free rows from the current
start, as many as fit one product of at most ``_BLOCK`` entries against
their joint window (``kernel.block_rows``, as ``window_blocks``), are tested
against that window in one float32 matrix product, compared with R^2 through
half squared norms (``kernel.within``, which splits a window too wide for
one product into column chunks). A start whose window alone exceeds half the
budget (wide windows, few groups) is a block of its own. The block is then
resolved from the pairs (candidate, free row within R) that ``within``
returns, the free flags its column mask: a candidate starts a group unless
an earlier start of the block hits it (decided in order, only for those an
earlier candidate hits), and each hit row goes to the least start rank of
its pairs. Where starts claimed over a quarter of the last block's
candidates, a block decides its starts first, on their own columns, and
multiplies only the starts' rows; otherwise from its one product, as few are
claimed (`many-groups`: 5%). Whether a start goes alone, and how many
candidates share its block, is decided on the windows in rows, so that
dropping claimed rows (below) does not turn the wide windows of starts that
claim most of them into blocks whose later candidates are claimed already.

The products run on a layout of the rows still free, made once per call:
slot j holds row ``ids[j]`` and its float32 column of ``kernel.screen`` (the
row, then its half norm, the sweep's only one), in score order, with a flag
for whether it is still free. Only the starts and block candidates look up
their window ends. Every row at or past the latest window end is free and in
its own slot. A compaction moves the free rows of the zone between the next
start and that end to the right end of the zone, in place and in order: they
stay contiguous with the untouched rows after them, so every later window is
still one slice of slots, holding all its free rows and no row claimed
before the compaction. The direct re-checks read the float64 rows of X
through ``ids``. A compaction runs when less than half of the next start's
window is free. The zone then holds more claimed rows than free ones, so a
compaction moves fewer rows than it drops, and since a row is dropped once,
all compactions together move fewer than n rows. A start that goes alone
multiplies at most 2c + 1 columns for its c evaluations.

dist_count counts, for each start, the free rows of its own window at its
turn, with no pass over the window, from two invariants: a block's
candidates are the first free slots, and every slot from a window end on is
free. So if ``left`` slots are free, the window of candidate k (from 0),
which ends at slot e_k, held left - (n - e_k) - (k + 1) free rows before
the block claimed any; the rows claimed in it before k's turn are then
subtracted. The count is the same in either layout, since every window
holds the same free rows and claimed rows are never counted.

A test whose value lies within float32's rounding band of R^2, and every
test of a block beyond the screen's range, is decided again by the direct
formula ``diff = y - x; einsum(diff, diff)``, so the groups are exactly
those of the direct formula, whatever the blocks.
``aggregate_reference`` in ``tests/_oracles.py`` is the same procedure on the
direct formula, one start at a time and without the early exit.

A grouping is two arrays over the score-sorted rows: ``starts`` (l,), the
ascending starting row of each group, and ``group_of`` (n,), each row's group.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .kernel import _BLOCK, _SPAN, block_rows, screen, window_pad, within
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
    r_sq, reach = r * r, r + window_pad(X, r)
    ids = np.arange(n)
    X32 = screen(X)
    layout = (ids, X32)    # slot j holds row ids[j] and its float32 column
    free = np.ones(n, dtype=bool)
    group_of = np.empty(n, dtype=np.int64)
    starts: list[np.ndarray] = []
    g = dist_count = 0
    i = zone = 0    # the slot of the next start; the latest window end
    first = True    # whether the next block decides its starts first
    left = n        # rows neither started nor claimed: the free slots from i on
    while i < n:
        # window ends never decrease, so no row at or past the window end of
        # the latest start has been assigned yet
        hi = int(np.searchsorted(scores, scores[ids[i]] + reach, side="right"))
        if 2 * (left - (n - hi)) < hi - i:
            # under half the window is free: drop the zone's claimed rows
            i = _compact(layout, free, i, zone)
        cand, e, row = np.array([i]), np.array([hi]), int(ids[i])
        # blocks are sized on the windows in rows (see the module docstring)
        if 2 * (hi - row - 1) <= _BLOCK:
            # the next free rows, as many as fit one product with their joint window
            cand = i + np.flatnonzero(free[i:hi + _SPAN])[:_SPAN]
            e = np.searchsorted(scores, scores[ids[cand]] + reach, side="right")
            cand = cand[:block_rows(e - (row + 1))]
            e = e[:cand.size]
        g0 = g
        g, count, taken = _sweep_block(X, layout, r_sq, free, group_of, starts, g, cand, e,
                                       left, first)
        first = 4 * (g - g0) < 3 * cand.size
        dist_count += count
        left -= taken
        # the next start is the first free row after the last candidate, or its window end
        lo, zone = int(cand[-1]) + 1, int(e[-1])
        k = int(free[lo:zone].argmax()) if zone > lo else 0
        i = lo + k if zone > lo and free[lo + k] else zone
    return np.concatenate(starts), group_of, dist_count


def _compact(layout, free, lo: int, hi: int) -> int:
    """Move the free slots of [lo, hi) to its right end, in order, and
    return the first of them.

    Each array of `layout` moves with them, along its last axis. The slots
    go a budget's worth at a time, the highest first: a slot only moves
    right, and never onto a slot still to be moved.
    """
    top = hi
    # a chunk's indices and float32 columns take 12 + 4 d bytes a slot
    step = max(1, _BLOCK // layout[1].shape[0])
    for b in range(hi, lo, -step):
        a = max(lo, b - step)
        src = a + np.flatnonzero(free[a:b])
        for array in layout:
            array[..., top - src.size:top] = np.take(array, src, axis=-1)
        top -= src.size
    free[lo:top] = False
    free[top:hi] = True
    return top


def _sweep_block(X, layout, r_sq, free, group_of, starts, g, cand, e, left, first):
    """Run the sweep over the candidate slots `cand` (the first `cand.size`
    of the `left` free slots, each with window end `e`) from one product
    against their joint window.

    A candidate starts a group (g, g + 1, ... in slot order) unless an
    earlier start of the block hits it; each free row that a start hits
    after it goes to the first such start, and lies before that start's
    window end (``kernel.window_pad`` pads it past the scores' rounding).
    With `first`, the starts are decided first, on the candidates' own
    columns, and only their rows meet the window. Appends the new starts,
    updates `free` and `group_of`, and returns the next group id, the
    block's distance evaluations and the number of rows it started or
    claimed.
    """
    ids, X32 = layout
    lo, top, m = int(cand[0]) + 1, int(e[-1]), cand.size
    A = np.take(X, ids[cand], axis=0)
    early = np.zeros((m, m), dtype=bool)    # early[a, k]: candidate a hits candidate k
    is_start = np.ones(m, dtype=bool)

    def decide(a, k):
        early[a, k] = k > a    # a candidate is hit only by earlier ones
        hit = early.any(axis=0)
        claimed = early[~hit].any(axis=0)    # by the candidates no one hits, all starts
        for c in np.flatnonzero(hit).tolist():    # in order: claimed by an earlier start?
            if claimed[c]:
                is_start[c] = False
            else:
                claimed |= early[c]

    if m > 1 and first:
        decide(*within(A, X, r_sq, X32[:, cand], ids[cand]))
        A = A[is_start]
    i, j = within(A, X, r_sq, X32[:, lo:top], ids[lo:top], free[lo:top])
    if m > 1 and not first:
        # the free columns up to the last candidate are the later candidates
        head = j < cand[-1] + 1 - lo
        decide(i[head], np.searchsorted(cand, j[head] + lo))
        i = np.where(is_start, np.cumsum(is_start) - 1, m)[i]
    # free rows of each candidate's window before the block claims any (see
    # the module docstring)
    counts = left - (free.size - e) - np.arange(1, m + 1)
    block_starts = cand[is_start]
    l = block_starts.size
    evaluations = int(counts[is_start].sum())
    if l > 1:
        # each hit row goes to the least rank among its pairs (start k ranks k,
        # other candidates m); of the starts' columns a start hits only its own
        owner = np.full(top - lo, m)
        np.minimum.at(owner, j, i)
        owner[block_starts[1:] - lo] = m
        rows = np.flatnonzero(owner < m)
        rows, owners = rows + lo, owner[rows]
        # a start's window loses the rows claimed before its turn: a row j
        # claimed by start k is counted by every later start below j
        evaluations -= int((np.searchsorted(block_starts, rows) - owners).sum()) - rows.size
    else:
        # candidate 0 is the one start: it owns all its hits
        rows, owners = j[:np.searchsorted(i, 1)] + lo, 0
    free[rows] = False
    group_of[ids[block_starts]] = np.arange(g, g + l)
    group_of[ids[rows]] = g + owners
    starts.append(ids[block_starts])
    return g + l, evaluations, l + rows.size
