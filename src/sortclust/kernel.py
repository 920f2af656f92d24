"""Exact squared-distance tests by BLAS on contiguous blocks of rows.

The pipeline tests |y - x|^2 against a threshold t (aggregation, merging)
or looks for the nearest y (minPts, predict). In score-sorted order, the
rows a score window admits are a contiguous slice, so all tests of a block
of rows against its window come from one matrix product of two slices,
read through the expanded form

    |y - x|^2 / 2 = |x|^2 / 2 + |y|^2 / 2 - x.y

with half squared norms computed once. This is the method of Chen and
Güttel, "Fast and exact fixed-radius neighbor search based on sorting"
(arXiv 2212.07679).

The expanded form rounds differently from the direct formula
``diff = y - x; einsum("ij,ij->i", diff, diff)``, which decides every test.
Wherever the expanded form lies within the rounding band (`_band`) of the
decision (the threshold, or the nearest candidate), the value is computed
again by the direct formula. So is every value of a block the product
cannot decide. Outside the band, the two formulas cannot disagree.

Every product runs in the units it is given. ``screen`` makes a (d + 1, n)
column-major copy of B, once per caller: row j, then its half squared norm.
``within`` and ``nearest`` put -1 last in each row of A, so one product
gives x.y - |y|^2/2, and take one bound per block, s = max |x|^2/2 +
max |y|^2/2 (+ t/2 in ``within``), and one band from it. A block whose s,
or s plus its band, leaves [2^-100, 2^100) goes to the direct formula:
above, a float32 cast could overflow (to inf, with no numpy warning);
below, float32 underflow would swamp the band. So every decision, at every
magnitude, is the direct formula's. ``prepare`` frames a fit's rows by a
power of two (``prep.framed``) to put s in that range; direct calls are
screened where their own s lies in it.

``within`` screens in float32 and returns its hits as index pairs in
row-major order: after each product one pass flags the entries above the
band (and in a column mask), one takes them out, and only those meet the
band's upper end. The nearest search screens on the ``screens`` of B, made
once per search (or once per model, by ``predict``), and the product
decides a row unless a runner-up lies within twice the band of its lead.
Blocks of at least ``_SCREEN_ENTRIES`` (2^15) product entries use the
float32 screen, smaller ones the float64 screen, whose band is 2^-29 as
wide: in float32, 7% of the benchmark's 16-row `few-groups` predicts met a
near-tie within the band, whose re-check raised their 90th percentile time
by 13-45%.

``nearest_by_score`` bounds each row's nearest distance by its
``_SCORE_NEIGHBOURS`` neighbours in score and searches only the rows whose
score lies within that bound (padded by ``window_pad``), by the projection
bound of Friedman, Baskett and Shustek (IEEE Trans. Computers, 1975): a
score gap never exceeds the distance. ``nearest``, which the minPts rule and
``predict`` call, takes it by the cost rule in its docstring.
``window_blocks`` cuts consecutive rows into blocks whose joint window fills
the budget, however much or little the windows move from row to row.

Every temporary holds at most ``_BLOCK_BYTES`` (1 MB, the one budget), so
memory stays bounded whatever the width of a window or the number of groups:
``within`` and ``nearest`` split the columns of a wide window themselves.
``nearest`` reuses one product buffer, and one buffer of cast rows per
precision: fresh 1 MB temporaries were paged in afresh on some heap states
after a fit, and predict's time varied with them.
"""

from __future__ import annotations

import math

import numpy as np

# Bytes of each temporary array; a block holds at most _BLOCK float64 entries.
_BLOCK_BYTES = 1 << 20
_BLOCK = _BLOCK_BYTES // 8

# eps and the smallest subnormal of each screen's dtype
_ROUNDING = {t: (float(np.finfo(t).eps), float(np.finfo(t).smallest_subnormal))
             for t in (np.float32, np.float64)}
_EPS, _TINY = _ROUNDING[np.float64]
_SINGLE_LOW, _SINGLE_HIGH = 2.0 ** -100, 2.0 ** 100    # the s that are screened
# Product entries of a nearest-search block from which it is screened in float32.
_SCREEN_ENTRIES = 1 << 15
# Rows of B nearest in score whose distances bound a score-windowed search.
_SCORE_NEIGHBOURS = 32
# A bound-step distance of that search costs about this many dense product
# entries, float32-screened (twice the 15 to 35 measured for d from 2 to 100,
# one BLAS thread, in an earlier float64 form whose entries cost twice as much).
_BOUND_COST = 64
# The most rows a block can hold if its hull grows a column per row.
_SPAN = math.isqrt(_BLOCK) + 2


def half_sq_norms(points: np.ndarray) -> np.ndarray:
    """|x|^2 / 2 of each row."""
    return 0.5 * np.einsum("ij,ij->i", points, points)


def largest(points: np.ndarray) -> float:
    """The largest magnitude of an entry of `points`, 0 if it has none."""
    return max(float(points.max()), -float(points.min())) if points.size else 0.0


def _band(d: int, s, dtype):
    """Rounding band of a screen of `dtype` (float32 or float64), in half
    squared distance: 8 (d + 4) u s, u = eps/2.

    `s` bounds |x|^2/2 + |y|^2/2 + t/2 for the pairs at hand, so |x||y| <= s
    and |y|^2/2 <= s. Both searches take one s per block, from its largest
    norms: above a pair's own bound, s only widens the band, which sends
    more entries to the direct formula and changes no decision. The product
    of d + 1 terms (the last -1 times the half norm) errs by at most
    2 (d + 1) u s in any order, fused or not (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1). In float32, casting
    the rows adds 2u s, casting the half norm u s, and the float32 threshold
    and band ends 2u s: (2 d + 7) u s (1 + 2u), as s reads max |y|^2/2
    rounded to float32; the float64 parts err by under 2^-26 of that. In
    float64 no cast rounds the rows, but the other errors are of the
    product's order: each half norm, of a row of B or of A, d u s (d squares
    summed); the threshold's subtraction u s; and the direct formula, whose
    differences, squares and sum err by (d + 2) u |y - x|^2, 2 (d + 2) u s
    in half squared distance. That is (6 d + 7) u s in all, again under the
    band.

    At most 3 d + 3 roundings underflow, each by half the smallest subnormal of
    `dtype` (times |y_k| <= sqrt(2 s) for an entry of a row), and each of the
    direct formula's d squares by half of float64's, d tiny / 4 in half squared
    distance: the absolute term covers them for s <= 1/2, the relative one above.

    The nearest search compares the screened entries of a row with its
    largest, the lead h1, for s = max |x|^2/2 + max |y|^2/2, with no
    threshold: each entry errs by at most (2 d + 5) u s (1 + 2u) in float32,
    (3 d + 2) u s in float64, and the direct formula by under 2^-26 of the
    first or 2 (d + 2) u s. The bar h1 - 2 band is computed in float64,
    erring by under 2^-51 s, and each entry h2 is compared with it exactly.
    An h2 below the bar puts the exact values more than 2 (6 d + 26) u s
    (float32) or 2 (5 d + 28) u s (float64) apart, more than twice the
    direct formula's error: the lead is strictly nearer by the direct
    formula, and the row of h2 is neither the nearest nor tied with it.
    """
    eps, tiny = _ROUNDING[dtype]
    return 4.0 * (d + 4) * (eps * s + tiny)


def screen(points: np.ndarray, dtype=np.float32) -> np.ndarray:
    """The (d + 1, n) screen of `points` in `dtype`: column j is row j, then
    that row's half squared norm; entries beyond float32's range cast to
    inf. The rows go a budget's worth at a time: one strided cast of them
    all is about twice as slow.
    """
    out = np.empty((points.shape[1] + 1, points.shape[0]), dtype)
    step = max(1, _BLOCK // out.shape[0])
    with np.errstate(over="ignore"):
        for c in range(0, out.shape[1], step):
            rows = points[c:c + step]
            out[:-1, c:c + step] = rows.T
            out[-1, c:c + step] = half_sq_norms(rows)
    return out


def screens(points: np.ndarray) -> tuple:
    """``(b32, b64, pad)``, what a nearest search against the rows of `points`
    precomputes: their float32 and float64 screens and ``window_pad(points, 0.0)``."""
    return screen(points), screen(points, np.float64), window_pad(points, 0.0)


def window_pad(points: np.ndarray, r: float) -> float:
    """Slack to add to a score window of half-width `r` over `points`; `r`
    may be an array of half-widths.

    A row within r by the direct formula has a score gap of at most r, up
    to rounding: the scores err by at most d u |x| each (u = eps/2), the
    direct formula and the unit length of the direction by (d + 2) u
    relative, and the window end s + r by u (|s| + r). With
    |x| <= sqrt(d) max|x_k|, the relative slack is four times what these
    add up to. Squares that underflow can hide a distance of up to
    sqrt(d/2 * smallest subnormal); the absolute slack is more than twice
    that.
    """
    if points.size == 0:
        return 0.0
    d = points.shape[1]
    return (4.0 * (d + 2) * _EPS * (math.sqrt(d) * largest(points) + r)
            + 2.0 * math.sqrt((d + 2) * _TINY))


def _direct_sq(A: np.ndarray, ia: np.ndarray, B: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """|B[ib] - A[ia]|^2 for each index pair, by the direct formula."""
    out = np.empty(ia.size)
    step = max(1, _BLOCK // A.shape[1])
    for s in range(0, ia.size, step):
        diff = B[ib[s:s + step]] - A[ia[s:s + step]]
        out[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def within(A: np.ndarray, B: np.ndarray, t: float, b32: np.ndarray, b_rows,
           cols=None) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), in row-major order, with |B[b_rows[j]] - A[i]|^2 <= t
    (t >= 0) as the direct formula decides, and `cols[j]` if a column mask
    is given.

    `b32` holds the (d + 1, k) columns of the k rows ``B[b_rows]`` in a
    :func:`screen` layout; k may be 0. The columns go ``_BLOCK // m`` at a
    time, so every product holds the budget however wide the window; each
    chunk takes one bound and one band, and the rows of A are cast once a
    chunk is screened. The rows of B are gathered only for direct re-checks.
    A stable sort on i puts the pairs of several chunks back in row-major order.
    """
    m, d, k = A.shape[0], A.shape[1], b32.shape[1]
    half_a = half_sq_norms(A)
    top, a32 = float(np.maximum.reduce(half_a)) + 0.5 * t, None
    step = max(1, _BLOCK // m)
    pairs = [(np.empty(0, np.int64),) * 2]
    for c in range(0, k, step):
        bc = b32[:, c:c + step]
        s = top + float(np.maximum.reduce(bc[-1]))    # the columns' largest, in float32
        width = _band(d, s, np.float32)
        if _SINGLE_LOW <= s and s + width < _SINGLE_HIGH:
            if a32 is None:    # |x|^2/2 <= s < 2^100: no entry overflows
                a32, thr = np.empty((m, d + 1), np.float32), half_a - 0.5 * t
                a32[:, :-1], a32[:, -1] = A, -1.0    # np.full takes longer
            h = np.matmul(a32, bc)
            lower, upper = np.float32(thr - width)[:, None], np.float32(thr + width)
        else:    # the direct formula decides every entry
            h, lower, upper = np.zeros((m, bc.shape[1]), np.float32), -np.inf, np.full(m, np.inf)
        i, j = _within_chunk(h, lower, upper, A, B, t, b_rows[c:c + step],
                             None if cols is None else cols[c:c + step])
        pairs.append((i, j + c if c else j))
    if len(pairs) <= 2:
        return pairs[-1]
    i, j = map(np.concatenate, zip(*pairs))
    order = np.argsort(i, kind="stable")
    return i[order], j[order]


def _within_chunk(h, lower, upper, A, B, t, b_rows, cols):
    """:func:`within` on one column chunk, from its (m, kc) product `h`: the
    entries above their row's `lower` (and in `cols`) are hits where they
    reach its `upper` too, and go to the direct formula below it."""
    unsure = h > lower
    if cols is not None:
        unsure &= cols
    at = unsure.ravel().nonzero()[0]    # np.flatnonzero takes longer on small blocks
    i = at // h.shape[1]    # np.divmod takes several times longer
    j = at - i * h.shape[1]
    check = (h.ravel()[at] < upper[i]).nonzero()[0]
    if check.size:
        hit = np.ones(at.size, dtype=bool)
        hit[check] = _direct_sq(A, i[check], B, b_rows[j[check]]) <= t
        i, j = i[hit], j[hit]
    return i, j


def block_rows(widths: np.ndarray) -> int:
    """The most first rows m of a block with m * max(widths[m - 1], 1) within
    the budget, and at least one; `widths[m - 1]` (nondecreasing) is the width
    of the first m rows' joint window, so a row too wide goes alone."""
    cost = np.maximum(widths, 1) * np.arange(1, widths.size + 1)
    return max(1, int(np.searchsorted(cost, _BLOCK, side="right")))


def window_blocks(los: np.ndarray, his: np.ndarray):
    """Blocks of consecutive rows i with the hull [lo, hi) of their windows
    [los[i], his[i]).

    Yields ``(rows, lo, hi)``: from each first row, as many rows as
    :func:`block_rows` admits for the widths of their hulls. Windows need
    not be monotone; for nondecreasing `los` and `his` the hull is
    ``[los[first], his[last])``.
    """
    i, l = 0, len(his)
    while i < l:
        span = _SPAN
        while True:
            lo = np.minimum.accumulate(los[i:i + span])
            hi = np.maximum.accumulate(his[i:i + span])
            m = block_rows(hi - lo)
            if m < lo.size or i + m >= l:
                break
            span *= 4
        yield slice(i, i + m), int(lo[m - 1]), int(hi[m - 1])
        i += m


def nearest(A: np.ndarray, B: np.ndarray, score_a=None, score_b=None,
            screened=None) -> np.ndarray:
    """Index of the row of B nearest to each row of A, as ``np.argmin`` of
    the direct formula picks it: equal distances go to the smallest index.

    A row whose largest screened value leads its runner-up by more than
    twice the band (one band per block, from its largest norms) is decided
    by the product; otherwise every row of B within twice the band of the
    lead is a candidate, compared by the direct formula. So are the winners
    of several column chunks, and every row of a block the product cannot
    decide, whose band is infinite. A block of at least ``_SCREEN_ENTRIES``
    entries is screened in float32, a smaller one in float64. B must have a
    row (a ValueError otherwise); `screened` (``screens(B)``) may be given.

    Given `score_a` and `score_b`, the rows' scores along one unit direction
    (nondecreasing for B), it may search score windows instead
    (:func:`nearest_by_score` on A sorted by score), with the same result
    bit for bit; `score_a` may be a function that scores A, called only
    then. The choice is one of cost, made from the m rows of A and the k of
    B before any distance is computed. The dense search costs m * k product
    entries, about 1.3 ns each at d = 10 on the float32 screen (1.5 ns on
    the float64 one; one BLAS thread). The windows cost
    ``_SCORE_NEIGHBOURS`` direct distances per row of A, about
    ``_BOUND_COST`` (64) screened entries each, then the products over its
    window, whose width depends on the data (16-21% of the rows of B on the
    benchmark's workloads), plus about 0.2 ms per call. They are taken when
    k >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST (4096) and m * k >= 4 *
    ``_BLOCK`` (four blocks). Measured on the benchmark's blobs (10 blobs of
    standard deviation 1, held-out rows of A against a subsample of a fit's
    starting points), with 1,000 rows of A they break even at about 2,500
    rows of B for d = 2, 3,500 for d = 10 and 4,000 to 6,000 for d = 50
    (1,000 to 2,000 in an earlier float64 form); with 6k to 12k rows of B,
    at 32 to 128 rows of A (three to six blocks). d moves the crossover
    less than the data does, so it does not enter the rule.
    """
    _check_rows(B)
    screened = screens(B) if screened is None else screened
    if score_a is None or not _by_score(A.shape[0], B.shape[0]):
        return _nearest(A, half_sq_norms(A), B, *screened[:2])
    if callable(score_a):
        score_a = score_a(A)
    order, near = np.argsort(score_a), np.empty(A.shape[0], dtype=np.int64)
    near[order] = nearest_by_score(A[order], score_a[order], B, score_b, screened)
    return near


def _check_rows(B: np.ndarray) -> None:
    """The nearest searches need a row of B to find."""
    if B.shape[0] == 0:
        raise ValueError("B has no rows: the nearest row of B needs one")


def _by_score(rows_a: int, rows_b: int) -> bool:
    """Whether :func:`nearest` searches score windows rather than all of B."""
    return (rows_b >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST
            and rows_a * rows_b >= 4 * _BLOCK)


def _nearest(A, half_a, B, b32, b64) -> np.ndarray:
    """:func:`nearest`, given the half squared norms of the rows of A and
    the float32 and float64 screens of B."""
    m, k, d = A.shape[0], B.shape[0], A.shape[1]
    cols = min(k, _BLOCK)
    rows = max(1, _BLOCK // cols)
    best = np.zeros(m, dtype=np.int64)
    best_sq = np.full(m, np.inf) if k > cols else None
    buf = np.empty(min(m, rows) * cols)    # holds float64 or float32 entries
    cast = {}    # the rows of A, -1 last, one buffer per dtype
    for c0 in range(0, k, cols):
        Bc, nc = B[c0:c0 + cols], min(cols, k - c0)
        for r0 in range(0, m, rows):
            at = slice(r0, min(r0 + rows, m))
            nr = at.stop - r0
            dtype = np.float32 if nr * nc >= _SCREEN_ENTRIES else np.float64
            bc = (b32 if dtype is np.float32 else b64)[:, c0:c0 + cols]
            # the rows' largest half norm, then the columns', as the screen holds it
            s = float(np.maximum.reduce(half_a[at])) + float(np.maximum.reduce(bc[-1]))
            width = _band(d, s, dtype)
            if _SINGLE_LOW <= s and s + width < _SINGLE_HIGH:
                a = cast.get(dtype)
                if a is None:
                    a = cast[dtype] = np.full((min(m, rows), d + 1), -1.0, dtype)
                a[:nr, :-1] = A[at]    # |x|^2/2 < s < 2^100: no entry overflows
                h = np.matmul(a[:nr], bc, out=buf.view(dtype)[:nr * nc].reshape(nr, nc))
            else:    # the direct formula decides every entry
                h, width = np.zeros((nr, nc)), math.inf
            flat, off = h.reshape(-1), np.arange(0, nr * nc, nc)
            win = h.argmax(axis=1)
            # the bar in float64: a float32 lead minus the bands would round
            lead = flat[win + off].astype(np.float64, copy=False) - 2.0 * width
            flat[win + off] = -np.inf
            unsure = (flat[h.argmax(axis=1) + off] >= lead).nonzero()[0]
            if unsure.size:
                flat[win[unsure] + off[unsure]] = np.inf
                ia, ib = np.divmod(np.flatnonzero(h[unsure] >= lead[unsure, None]), nc)
                sq = _direct_sq(A, unsure[ia] + r0, Bc, ib)
                # each row's candidates by distance, then index: the first of a row wins
                order = np.lexsort((ib, sq, ia))
                win[unsure] = ib[order[np.r_[True, ia[order][1:] != ia[order][:-1]]]]
            if best_sq is not None:
                sq = _direct_sq(A, np.arange(r0, at.stop), Bc, win)
                better = sq < best_sq[at]
                win = np.where(better, win + c0, best[at])
                best_sq[at] = np.where(better, sq, best_sq[at])
            best[at] = win
    return best


def nearest_by_score(A: np.ndarray, score_a: np.ndarray, B: np.ndarray,
                     score_b: np.ndarray, screened=None) -> np.ndarray:
    """:func:`nearest` for rows in score order, searched in score windows.

    `score_a` and `score_b` are the scores of the rows of A and B along one
    unit direction (as ``prepare`` computes them), each nondecreasing. The
    direct-formula distances from a row of A to the ``_SCORE_NEIGHBOURS``
    rows of B nearest to it in score bound its nearest distance by some ub.
    Scores are 1-Lipschitz, so every row of B within ub has a score within
    ub + ``window_pad(A, ub) + window_pad(B, 0)`` of the row's score (the
    rounding of the square root is one unit roundoff more, which the pads'
    factor four covers): the window holds the nearest row and every row
    tied with it, and the result is the index ``nearest`` gives over all of
    B, ties going to the smallest index. Consecutive rows of A whose joint
    window fits the block budget (``window_blocks``) share one call of
    ``nearest`` on that contiguous slice of B and of its screens. B must
    have a row; `screened` (``screens(B)``, which holds B's pad) may be
    given.
    """
    _check_rows(B)
    m, k = A.shape[0], B.shape[0]
    b32, b64, pad = screens(B) if screened is None else screened
    near = min(_SCORE_NEIGHBOURS, k)
    first = np.clip(np.searchsorted(score_b, score_a) - near // 2, 0, k - near)
    # runs[j] is the view of rows j..j+near-1 of B: one gather per row of A
    runs = np.lib.stride_tricks.sliding_window_view(B, (near, B.shape[1]))[:, 0]
    bound = np.empty(m)
    step = max(1, _BLOCK // (near * B.shape[1]))
    for s in range(0, m, step):
        diff = runs[first[s:s + step]]
        diff -= A[s:s + step, None]
        bound[s:s + step] = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
    reach = np.sqrt(bound)
    reach += window_pad(A, reach) + pad
    los = np.searchsorted(score_b, score_a - reach, side="left")
    his = np.searchsorted(score_b, score_a + reach, side="right")
    half_a = half_sq_norms(A)
    best = np.empty(m, dtype=np.int64)
    for rows, lo, hi in window_blocks(los, his):
        best[rows] = lo + _nearest(A[rows], half_a[rows], B[lo:hi], b32[:, lo:hi],
                                   b64[:, lo:hi])
    return best
