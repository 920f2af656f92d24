"""Cluster-quality metrics, synthetic blob data, and the aggregation
efficiency model for elongated Gaussian data.

The adjusted Rand index is computed in exact integer arithmetic. The adjusted
mutual information uses exactly-rounded float sums (math.fsum), so both
metrics are invariant under relabeling down to the last bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .aggregation import _finite_real
from .geometry import reg_inc_gamma_lower

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SIMPSON_TOL = 1e-9
_SIMPSON_MAX_INTERVALS = 10_000
_SIMPSON_MAX_WIDTH = 10.0


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Cross-tabulation of two labelings of the same points."""

    counts: np.ndarray     # (r, c) nonnegative ints
    row_sums: np.ndarray   # (r,)
    col_sums: np.ndarray   # (c,)
    total: int

    @classmethod
    def from_labels(cls, truth, pred) -> "ContingencyTable":
        t = np.asarray(truth).ravel()
        p = np.asarray(pred).ravel()
        if t.size != p.size:
            raise ValueError(f"label vectors differ in length: {t.size} vs {p.size}")
        if t.size == 0:
            raise ValueError("label vectors must be nonempty")
        _, ti = np.unique(t, return_inverse=True)
        _, pi = np.unique(p, return_inverse=True)
        r, c = ti.max() + 1, pi.max() + 1
        counts = np.zeros((r, c), dtype=np.int64)
        np.add.at(counts, (ti, pi), 1)
        return cls(counts=counts, row_sums=counts.sum(axis=1),
                   col_sums=counts.sum(axis=0), total=int(t.size))


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def ari(truth, pred) -> float:
    """Adjusted Rand index, exact rational arithmetic internally.

    Any label values are accepted; -1 (outliers) counts as an ordinary
    cluster id. The degenerate all-singleton / single-cluster comparisons
    return 1.0 when the partitions agree.
    """
    table = ContingencyTable.from_labels(truth, pred)
    sum_cells = sum(_comb2(int(v)) for v in table.counts.ravel() if v > 1)
    sum_rows = sum(_comb2(int(v)) for v in table.row_sums)
    sum_cols = sum(_comb2(int(v)) for v in table.col_sums)
    pairs = _comb2(table.total)
    numerator = 2 * (pairs * sum_cells - sum_rows * sum_cols)
    denominator = pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        return 1.0
    return float(Fraction(numerator, denominator))


def _is_perfect_match(counts: np.ndarray) -> bool:
    nonzero = counts > 0
    return (np.all(nonzero.sum(axis=1) == 1)
            and np.all(nonzero.sum(axis=0) == 1))


def _entropy(sums: np.ndarray, n: int) -> float:
    return -math.fsum((int(a) / n) * math.log(int(a) / n)
                      for a in sums if a > 0)


def _mutual_information(table: ContingencyTable) -> float:
    n = table.total
    parts = []
    rows, cols = table.counts.shape
    for i in range(rows):
        ai = int(table.row_sums[i])
        for j in range(cols):
            nij = int(table.counts[i, j])
            if nij > 0:
                parts.append((nij / n) * math.log(n * nij / (ai * int(table.col_sums[j]))))
    return math.fsum(parts)


def _expected_mi(table: ContingencyTable) -> float:
    """Expected mutual information under the fixed-margins hypergeometric
    model, via log-factorial tables (safe up to n ~ 1e6)."""
    n = table.total
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))))
    cell_sums = []
    for ai in (int(a) for a in table.row_sums):
        for bj in (int(b) for b in table.col_sums):
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            # grouping keeps the float result symmetric under a <-> b
            log_hyper = ((lf[ai] + lf[bj]) + (lf[n - ai] + lf[n - bj]) - lf[n]
                         - lf[nij] - (lf[ai - nij] + lf[bj - nij])
                         - lf[n - ai - bj + nij])
            terms = (nij / n) * (np.log(n * nij) - math.log(ai * bj)) * np.exp(log_hyper)
            cell_sums.append(float(np.sum(terms)))
    return math.fsum(cell_sums)


def ami(truth, pred) -> float:
    """Adjusted mutual information with arithmetic-mean normalization.

    Identical partitions (up to relabeling) score exactly 1.0, including the
    degenerate single-cluster and all-singleton cases; any other comparison
    with a zero denominator scores 0.0.
    """
    table = ContingencyTable.from_labels(truth, pred)
    if _is_perfect_match(table.counts):
        return 1.0
    n = table.total
    mi = _mutual_information(table)
    h_truth = _entropy(table.row_sums, n)
    h_pred = _entropy(table.col_sums, n)
    emi = _expected_mi(table)
    denominator = 0.5 * (h_truth + h_pred) - emi
    if denominator == 0.0:
        return 0.0
    return (mi - emi) / denominator


def make_blobs(n: int, d: int, k: int, std: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs with centers drawn uniformly from [-10, 10]^d.

    Points are split as evenly as possible over the k centers (the first
    n mod k blobs get one extra point). Fully reproducible for a fixed seed.
    Returns (points, ground-truth labels).
    """
    for name, count, least in (("k", k, 1), ("d", d, 1), ("n", n, k)):
        if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= least):
            raise ValueError(f"{name} must be an integer of at least {least}, got {count!r}")
    if not (_finite_real(std) and std >= 0.0):
        raise ValueError(f"std must be finite and nonnegative, got {std!r}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(k, d))
    base, extra = divmod(n, k)
    counts = np.full(k, base, dtype=np.int64)
    counts[:extra] += 1
    labels = np.repeat(np.arange(k), counts)
    points = centers[labels] + rng.normal(0.0, 1.0, size=(n, d)) * std
    return points, labels


@dataclass(frozen=True)
class GaussianModelParams:
    """Parameters of the elongated-blob efficiency model.

    c is the window center on the principal axis, r the query radius, s the
    standard deviation of the d-1 off-axis coordinates (the on-axis one has
    standard deviation 1), d the dimension.
    """

    c: float
    r: float
    s: float
    d: int

    def validate(self) -> None:
        # no finite real (a bool, a str, past float64) reads as nan and fails its test
        c, r, s = (v if _finite_real(v) else math.nan for v in (self.c, self.r, self.s))
        if math.isnan(c):
            raise ValueError("c must be finite")
        if not r > 0.0:
            raise ValueError("r must be positive and finite")
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {self.s!r}")
        d = self.d
        if not (isinstance(d, numbers.Real) and not isinstance(d, bool) and d >= 2 and d % 1 == 0):
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")


def model_p1(c: float, r: float) -> float:
    """Probability that a standard normal score falls within r of c."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    return 0.5 * (math.erf((c + r) / _SQRT2) - math.erf((c - r) / _SQRT2))


def _adaptive_simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature with Richardson acceptance."""

    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    stack = [(a, fa, m, fm, b, fb, whole, _SIMPSON_TOL)]
    total = 0.0
    intervals = 1
    while stack:
        x0, f0, x1, f1, x2, f2, s, eps = stack.pop()
        lm, flm, left = simpson(x0, f0, x1, f1)
        rm, frm, right = simpson(x1, f1, x2, f2)
        if x2 - x0 <= _SIMPSON_MAX_WIDTH and abs(left + right - s) <= 15.0 * eps:
            total += left + right + (left + right - s) / 15.0
            continue
        intervals += 1
        if intervals > _SIMPSON_MAX_INTERVALS:
            raise RuntimeError("quadrature failed: subdivision cap exceeded")
        stack.append((x0, f0, lm, flm, x1, f1, left, 0.5 * eps))
        stack.append((x1, f1, rm, frm, x2, f2, right, 0.5 * eps))
    return total


def model_p2(params: GaussianModelParams) -> float:
    """Probability that an elongated-Gaussian point lies within r of the
    on-axis point (c, 0, ..., 0).

    The off-axis coordinates contribute a chi-square CDF factor with d-1
    degrees of freedom inside the window integral. exp(-t^2/2) is 0.0 in
    float64 beyond |t| = 38.6, so the window is clipped to [-39, 39]; the
    slack r^2 - (t - c)^2 is factored, so it neither overflows nor loses t
    beside a large c.
    """
    params.validate()
    c, r, s, d = params.c, params.r, params.s, params.d
    inv_s_sq = 1.0 / (s * s) if s * s > 0.0 else math.inf
    lo, hi = max(c - r, -39.0), min(c + r, 39.0)

    def integrand(t: float) -> float:
        slack = (r + c - t) * (r - c + t)
        if not slack > 0.0:     # nan is inf * 0.0, at a window end
            return 0.0
        return (_INV_SQRT_2PI * math.exp(-0.5 * t * t)
                * reg_inc_gamma_lower(0.5 * (slack * inv_s_sq), 0.5 * (d - 1)))

    try:
        return _adaptive_simpson(integrand, lo, hi) if lo < hi else 0.0
    except (ValueError, OverflowError) as exc:  # only a large d fails the gamma function
        raise ValueError(f"d={d} too large for the chi-square factor: {exc}") from None


def model_ratio(params: GaussianModelParams) -> float:
    """Conditional probability that a window candidate is a true ball member.

    model_p2 / model_p1, clamped into [0, 1]; a vanishing window (both
    probabilities zero) counts as 1 by convention.
    """
    params.validate()
    p1 = model_p1(params.c, params.r)
    if p1 == 0.0:
        return 1.0
    return min(max(model_p2(params) / p1, 0.0), 1.0)
