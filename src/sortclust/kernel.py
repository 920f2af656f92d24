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
Wherever the expanded form lies within the rounding band (`_band32`, or
`_band` in float64) of the decision (the threshold, or the nearest
candidate), the value is computed again by the direct formula. So is every
value of a block the product cannot decide. Outside the band, the two
formulas cannot disagree.

``within`` screens in float32, half the bytes of float64, in the frame of
B: ``screen`` makes a (d + 1, n) column-major float32 copy, once per
caller, whose column j is 2^-e times row j, then that row's half squared
norm, e being the ``frexp`` exponent of B's largest magnitude. Scaling by a
power of two is exact away from underflow and overflow (Higham, *Accuracy
and Stability of Numerical Algorithms*, section 3.1). ``within`` and
``nearest`` scale the rows of A by 2^-e and t by 2^-2e, with -1 last in
each row of A, so one product gives x.y - |y|^2/2. A block whose bound s
(|x|^2/2 + max |y|^2/2 + t/2 in the frame), or s plus its band, leaves
[2^-100, 2^100) goes to the direct formula: above, a cast could near
float32's overflow; below, float32 underflow would swamp the band. The
band also covers the direct formula's underflow in data units, so every
decision, at every magnitude, is the direct formula's.

The nearest search (``nearest``, ``nearest_by_score``) screens the same
way, on a ``screen`` copy of B made once per search (or once per model, by
``predict``): the largest of x.y - |y|^2/2 over a row's block leads, and
the row is decided by the product unless a runner-up lies within twice the
band of it (s = max |x|^2/2 + max |y|^2/2). A block whose direct distances
may overflow goes to the direct formula, as they tie at inf. Blocks of
fewer than ``_SCREEN_ENTRIES`` (2^15) product entries keep the float64
expanded form (`_band`): in float32, 7% of the benchmark's 16-row
`few-groups` predicts met a near-tie within the band, whose re-check raised
their 90th percentile time by 13-45%.

The nearest search in score order (``nearest_by_score``) bounds each row's
nearest distance by its ``_SCORE_NEIGHBOURS`` neighbours in score and
searches only the rows whose score lies within that bound (padded by
``window_pad``), by the projection bound of Friedman, Baskett and Shustek
(IEEE Trans. Computers, 1975): a score gap never exceeds the distance.
``nearest``, which the minPts rule and ``predict`` call, takes it when given
scores for a search of at least four blocks against at least 4,096 rows
(the cost rule is in its docstring).

``window_blocks`` cuts consecutive rows into blocks whose joint window
fills the budget, however much or little the windows move from row to row.

Every temporary holds at most ``_BLOCK_BYTES`` (1 MB, the one budget), so
memory stays bounded whatever the width of a window or the number of groups:
``within`` and ``nearest`` split the columns of a wide window themselves.
``nearest`` reuses one product buffer, for float64 or float32 entries: fresh
1 MB temporaries were paged in afresh on some heap states after a fit, and
predict's time varied with them.
"""

from __future__ import annotations

import math

import numpy as np

# Bytes of each temporary array; a block holds at most _BLOCK float64 entries.
_BLOCK_BYTES = 1 << 20
_BLOCK = _BLOCK_BYTES // 8

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).smallest_subnormal)
_SINGLE_LOW, _SINGLE_HIGH = 2.0 ** -100, 2.0 ** 100    # s screened in float32
# Product entries of a nearest-search block below which it stays in float64.
_SCREEN_ENTRIES = 1 << 15
# Small blocks whose half squared norms sum to this or more (or to inf or nan)
# are decided by the direct formula; below it no inner product can overflow.
_NORM_LIMIT = 2.0 ** 1020
# Rows of B nearest in score whose distances bound a score-windowed search.
_SCORE_NEIGHBOURS = 32
# A bound-step distance of that search costs about this many dense product
# entries, float32-screened (twice the 15 to 35 float64 entries measured for
# d from 2 to 100, one BLAS thread: the screen halves an entry's cost).
_BOUND_COST = 64
# The most rows a block can hold if its hull grows a column per row.
_SPAN = math.isqrt(_BLOCK) + 2


def half_sq_norms(points: np.ndarray) -> np.ndarray:
    """|x|^2 / 2 of each row."""
    return 0.5 * np.einsum("ij,ij->i", points, points)


def largest(points: np.ndarray) -> float:
    """The largest magnitude of an entry of `points`, 0 if it has none."""
    return max(float(points.max()), -float(points.min())) if points.size else 0.0


def _framed(values, e: int):
    """2^-e `values`, inf where that overflows: far beyond the frame, where
    every block goes to the direct formula. Scaling down cannot overflow."""
    if e >= 0:
        return np.ldexp(values, -e)
    with np.errstate(over="ignore"):
        return np.ldexp(values, -e)


def _band(d: int, s):
    """Rounding band of the expanded form, in half squared distance.

    `s` bounds |x|^2/2 + |y|^2/2 + t/2 for the pairs at hand. With unit
    roundoff u = eps/2 and P = (|x| + |y|)^2, the expanded form (norms and
    inner product) errs by at most d u P, the direct formula by at most
    (d + 2) u P, and the subtractions and comparisons around them by a few
    u P plus u t. Halved, with P <= 2 (|x|^2 + |y|^2), that is at most
    (2 d + 5) eps s; the band is 4 (d + 2) eps s. A product that underflows
    errs by at most half the smallest subnormal, and at most 4 d + 2 of
    them enter one comparison, which the absolute term covers.
    """
    return 4.0 * (d + 2) * (_EPS * s + _TINY)


def _band32(d: int, s, e: int):
    """Rounding band of the float32 screen, in half squared distance in the
    frame 2^-e of B.

    `s` is as for `_band`, in the frame; |x||y| <= s and |y|^2/2 <= s. With
    u = eps32/2, the screen errs by at most 2u s for casting the rows, u s
    for casting the half norm, 2 (d + 1) u s for the product of d + 1 terms
    (the last -1 times the half norm) in any order, fused or not (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1), and 2u s
    for the float32 threshold and band ends: (2 d + 7) u s (1 + 2u), as s
    reads max |y|^2/2 rounded to float32, against a band of 8 (d + 4) u s.
    The float64 parts err by under 2^-26 of that. At most 3 d + 3 roundings
    underflow, each by half the smallest float32 subnormal (times
    |y_k| <= sqrt(2 s) for a cast entry): the absolute term covers them for
    s <= 1/2, the relative one above.

    The direct formula runs in data units, where each of its d squares may
    underflow by half the smallest float64 subnormal: by d 2^-2e tiny / 4 at
    most in the frame's half squared distance. The last term, 4 (d + 2)
    2^-2e tiny, covers two such errors; it passes the relative term for data
    below about 1e-158, and overflows to inf below about 2^-1050.

    The nearest search compares the screened entries of a row with its
    largest, the lead h1, for s = max |x|^2/2 + max |y|^2/2: each entry errs
    by at most (2 d + 5) u s (1 + 2u), as there is no threshold, and the
    direct formula by under 2^-26 of that, plus its underflow. The bar h1 -
    2 band is computed in float64, erring by under 2^-51 s, and each float32
    entry h2 is compared with it exactly. An h2 below the bar puts the exact
    values more than 2 (6 d + 26) u s apart, far more than the direct
    formula's error: the lead is strictly nearer by the direct formula, and
    the row of h2 is neither the nearest nor tied with it.
    """
    return (4.0 * (d + 4) * (_EPS32 * s + _TINY32)
            + 4.0 * (d + 2) * (math.ldexp(_TINY, -2 * e) if e > -1049 else math.inf))


def screen(points: np.ndarray, top=None) -> tuple[np.ndarray, int]:
    """The (d + 1, n) float32 screen of `points` and its frame exponent e,
    the ``frexp`` exponent of `top` (``largest(points)`` if not given):
    column j is 2^-e times row j, then that row's half squared norm. The
    rows go a budget's worth at a time: one strided cast of them all is
    several times slower.
    """
    e = math.frexp(largest(points) if top is None else top)[1]
    out = np.empty((points.shape[1] + 1, points.shape[0]), np.float32)
    step = max(1, _BLOCK // out.shape[0])
    for c in range(0, out.shape[1], step):
        rows = np.ldexp(points[c:c + step], -e)
        out[:-1, c:c + step] = rows.T
        out[-1, c:c + step] = half_sq_norms(rows)
    return out, e


def window_pad(points: np.ndarray, r: float, top=None) -> float:
    """Slack to add to a score window of half-width `r` over `points`; `r`
    may be an array of half-widths, and `top` is ``largest(points)``.

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
    top = largest(points) if top is None else top
    return (4.0 * (d + 2) * _EPS * (math.sqrt(d) * top + r)
            + 2.0 * math.sqrt((d + 2) * _TINY))


def _direct_sq(A: np.ndarray, ia: np.ndarray, B: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """|B[ib] - A[ia]|^2 for each index pair, by the direct formula."""
    out = np.empty(ia.size)
    step = max(1, _BLOCK // A.shape[1])
    for s in range(0, ia.size, step):
        diff = B[ib[s:s + step]] - A[ia[s:s + step]]
        out[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def within(A: np.ndarray, B: np.ndarray, t: float, b32: np.ndarray, b_rows, e: int) -> np.ndarray:
    """(m, k) mask: whether |B[b_rows[j]] - A[i]|^2 <= t, as the direct formula decides.

    `b32` holds the (d + 1, k) columns of the k rows ``B[b_rows]`` in a
    :func:`screen` layout of frame exponent `e`; k may be 0. The rows of A
    are scaled and cast here, with -1 last; the rows of B are gathered only
    for direct re-checks. The columns go ``_BLOCK // m`` at a time, so every
    product holds the budget however wide the window.
    """
    hit = np.zeros((A.shape[0], b32.shape[1]), dtype=bool)
    scaled, t_e = _framed(A, e), float(_framed(t, 2 * e))
    half_a = half_sq_norms(scaled)[:, None]
    a32 = np.full((A.shape[0], A.shape[1] + 1), -1.0, np.float32)
    np.clip(scaled, -_SINGLE_HIGH, _SINGLE_HIGH, out=a32[:, :-1])
    step = max(1, _BLOCK // A.shape[0])
    for c in range(0, hit.shape[1], step):
        cols = slice(c, c + step)
        _within_chunk(hit[:, cols], A, half_a, B, t, t_e, a32, b32[:, cols], b_rows[cols], e)
    return hit


def _within_chunk(out, A, half_a, B, t, t_e, a32, b32, b_rows, e) -> None:
    """:func:`within` on one product's worth of columns, into `out` (all
    false); `t_e` is `t` in the frame."""
    # the largest half norm of the columns, as the screen holds it
    s = half_a + (float(b32[-1].max()) + 0.5 * t_e)
    width = _band32(A.shape[1], s, e)
    if _SINGLE_LOW <= np.min(s) and np.max(s + width) < _SINGLE_HIGH:
        h = np.matmul(a32, b32)
        thr = half_a - 0.5 * t_e
        lower, upper = np.float32(thr - width), np.float32(thr + width)
    else:    # the direct formula decides every entry
        h, lower, upper = np.zeros(out.shape, np.float32), -np.inf, np.inf
    unsure = h > lower
    if not unsure.any():
        return
    np.greater_equal(h, upper, out=out)
    unsure ^= out
    at = np.flatnonzero(unsure)
    if at.size:
        ia, ib = np.divmod(at, out.shape[1])
        out[ia, ib] = _direct_sq(A, ia, B, b_rows[ib]) <= t


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


def nearest(A: np.ndarray, B: np.ndarray, score_a=None, score_b=None, half_b=None,
            pad_b=None, screened=None) -> np.ndarray:
    """Index of the row of B nearest to each row of A, as ``np.argmin`` of
    the direct formula picks it: equal distances go to the smallest index.

    A row whose largest expanded value leads its runner-up by more than
    twice the band (one band per block, from its largest norms) is decided
    by the product; otherwise every row of B within twice the band of the
    lead is a candidate, compared by the direct formula. So are the winners
    of several column chunks, and every row of a block the product cannot
    decide. A block of at least ``_SCREEN_ENTRIES`` entries is screened in
    float32 (`_band32`); a smaller one multiplies in float64 (`_band`), on
    the rows of B and their half squared norms. B must have a row (a
    ValueError otherwise); `half_b` and `screened` (``screen(B)``) may be
    given.

    Given `score_a` and `score_b`, the rows' scores along one unit direction
    (nondecreasing for B), it may search score windows instead
    (:func:`nearest_by_score` on A sorted by score, with `pad_b` as there),
    with the same result bit for bit; `score_a` may be a function that
    scores A, called only then. The choice is one of cost, made from the m
    rows of A and the k of B before any distance is computed. The dense
    search costs m * k product entries, about 1 ns each at d = 10 on the
    float32 screen (2 ns in float64; one BLAS thread). The windows cost
    ``_SCORE_NEIGHBOURS`` direct distances per row of A, about
    ``_BOUND_COST`` (64) screened entries each, then the products over its
    window, whose width depends on the data (16-21% of the rows of B on the
    benchmark's workloads), plus about 0.2 ms per call. They are taken when
    k >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST (4096) and m * k >= 4 *
    ``_BLOCK`` (four blocks). Measured on the benchmark's blobs (10 blobs of
    standard deviation 1, held-out rows of A against a subsample of a fit's
    starting points), with 1,000 rows of A they break even at about 2,500
    rows of B for d = 2, 3,500 for d = 10 and 4,000 to 6,000 for d = 50
    (1,000 to 2,000 for each in float64); with 6k to 12k rows of B, at 32
    to 128 rows of A (three to six blocks). d moves the crossover less than
    the data does, so it does not enter the rule.
    """
    _check_rows(B)
    half_b = half_sq_norms(B) if half_b is None else half_b
    screened = screen(B) if screened is None else screened
    if score_a is None or not _by_score(A.shape[0], B.shape[0]):
        return _nearest(A, half_sq_norms(A), B, half_b, *screened)
    if callable(score_a):
        score_a = score_a(A)
    order, near = np.argsort(score_a), np.empty(A.shape[0], dtype=np.int64)
    near[order] = nearest_by_score(A[order], score_a[order], B, score_b, half_b, pad_b,
                                   screened)
    return near


def _check_rows(B: np.ndarray) -> None:
    """The nearest searches need a row of B to find."""
    if B.shape[0] == 0:
        raise ValueError("B has no rows: the nearest row of B needs one")


def _by_score(rows_a: int, rows_b: int) -> bool:
    """Whether :func:`nearest` searches score windows rather than all of B."""
    return (rows_b >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST
            and rows_a * rows_b >= 4 * _BLOCK)


def _nearest(A, half_a, B, half_b, b32, e) -> np.ndarray:
    """:func:`nearest`, given the half squared norms of the rows of A and B
    and the :func:`screen` of B with its frame exponent."""
    m, k, d = A.shape[0], B.shape[0], A.shape[1]
    cols = min(k, _BLOCK)
    rows = max(1, _BLOCK // cols)
    best = np.zeros(m, dtype=np.int64)
    best_sq = np.full(m, np.inf) if k > cols else None
    buf, a32 = np.empty(min(m, rows) * cols), None    # buf holds float64 or float32 entries
    for c0 in range(0, k, cols):
        Bc, hb, b32c = B[c0:c0 + cols], half_b[c0:c0 + cols], b32[:, c0:c0 + cols]
        nc, top = Bc.shape[0], float(np.maximum.reduce(hb))
        # the largest half norm of the columns, as the screen holds it, if a
        # block of them (at most min(m, rows) rows) is large enough to screen
        top32 = (float(np.maximum.reduce(b32c[-1])) if min(m, rows) * nc >= _SCREEN_ENTRIES
                 else np.inf)
        for r0 in range(0, m, rows):
            at = slice(r0, min(r0 + rows, m))
            nr, width = at.stop - r0, None
            top_a = float(np.maximum.reduce(half_a[at]))
            if nr * nc >= _SCREEN_ENTRIES:
                # the rows' largest half norm in the frame, with room for the
                # squares that underflow in data units (d tiny at most)
                s = float(_framed(top_a + d * _TINY, 2 * e)) + top32
                band = _band32(d, s, e)
                # in range, and |y - x|^2 <= 4 s stays below 2^1022 in data units
                if (_SINGLE_LOW <= s and s + band < _SINGLE_HIGH
                        and math.frexp(s)[1] + 2 * e <= 1021):
                    if a32 is None:
                        a32 = np.full((min(m, rows), d + 1), -1.0, np.float32)
                    # the rows in the frame, cast: |x|^2/2 < s < 2^100
                    np.ldexp(A[at], -e, out=a32[:nr, :-1])
                    h = np.matmul(a32[:nr], b32c,
                                  out=buf.view(np.float32)[:nr * nc].reshape(nr, nc))
                    width = band
            elif top_a + top < _NORM_LIMIT:    # a small block gains nothing from the screen
                h = np.matmul(A[at], Bc.T, out=buf[:nr * nc].reshape(nr, nc))
                h -= hb
                width = _band(d, top_a + top)
            if width is not None:
                flat, off = h.reshape(-1), np.arange(0, nr * nc, nc)
                win = h.argmax(axis=1)
                # the bar in float64: a float32 lead minus the bands would round
                lead = flat[win + off].astype(np.float64, copy=False) - 2.0 * width
                flat[win + off] = -np.inf
                unsure = (flat[h.argmax(axis=1) + off] >= lead).nonzero()[0]
                if unsure.size:
                    flat[win[unsure] + off[unsure]] = np.inf
                    cand = h[unsure] >= lead[unsure, None]
            else:
                win, unsure, cand = np.empty(nr, np.int64), np.arange(nr), np.ones((nr, nc), bool)
            if unsure.size:
                ia, ib = np.divmod(np.flatnonzero(cand), nc)
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
                     score_b: np.ndarray, half_b=None, pad_b=None, screened=None) -> np.ndarray:
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
    ``nearest`` on that contiguous slice of B and of its screen. B must have
    a row; `half_b`, `pad_b` (``window_pad(B, 0.0)``) and `screened`
    (``screen(B)``) may be given.
    """
    _check_rows(B)
    m, k = A.shape[0], B.shape[0]
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
    reach += window_pad(A, reach) + (window_pad(B, 0.0) if pad_b is None else pad_b)
    los = np.searchsorted(score_b, score_a - reach, side="left")
    his = np.searchsorted(score_b, score_a + reach, side="right")
    half_a, half_b = half_sq_norms(A), half_sq_norms(B) if half_b is None else half_b
    b32, e = screen(B) if screened is None else screened
    best = np.empty(m, dtype=np.int64)
    for rows, lo, hi in window_blocks(los, his):
        best[rows] = lo + _nearest(A[rows], half_a[rows], B[lo:hi], half_b[lo:hi],
                                   b32[:, lo:hi], e)
    return best
