"""Data preparation: centering, leading principal direction, score sorting.

The output of :func:`prepare` is the canonical input of the aggregation
phase: rows reordered by their projection onto the top principal direction,
in the one n x d buffer it makes, and the exact median row norm, taken of the
few rows in a rounding band of the middle half norms, that makes radii unit-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _BLOCK, _EPS, _TINY, half_sq_norms, largest


@dataclass(frozen=True, eq=False)
class PreparedData:
    """Centered data in score-sorted order plus the statistics derived from it.

    Attributes
    ----------
    centered : (n, d) array
        Mean-centered points, rows ordered by nondecreasing score.
    mean : (d,) array
        Column means of the raw input.
    v1 : (d,) array
        Unit top principal direction (sign fixed: largest-magnitude entry
        is positive).
    scores : (n,) array
        Projections ``centered @ v1``, nondecreasing.
    perm : (n,) array
        Sorted position -> original row index.
    sigma1, sigma2 : float
        First and second singular values of the centered matrix.
    mext : float
        Scale of the unit-free radius: the median norm of the centered rows.
    e : int
        Frame exponent, the input's and the centered rows' (:func:`prepare`):
        coordinates, statistics and the stages' radii are 2^-e times the input's.
    """

    centered: np.ndarray
    mean: np.ndarray
    v1: np.ndarray
    scores: np.ndarray
    perm: np.ndarray
    sigma1: float
    sigma2: float
    mext: float
    e: int = 0

    @property
    def n(self) -> int:
        return self.centered.shape[0]

    @property
    def d(self) -> int:
        return self.centered.shape[1]


def real_array(values, name: str) -> np.ndarray:
    """`values` as float64; complex values or entries that are no float raise ValueError."""
    try:
        arr = np.asarray(values)    # one pass over a list, which finds its dtype
        if arr.dtype.kind != "c":
            return arr.astype(np.float64, copy=False)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} does not convert to real numbers: {exc}") from None
    raise ValueError(f"{name} contains complex values")


def framed(points) -> tuple[np.ndarray, int]:
    """2^-e `points` and e, the ``frexp`` exponent of their largest magnitude, if
    beyond +-32; within, `points` and 0. Exact away from underflow and overflow
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1). nan and inf
    raise ValueError. Within, no square or Gram entry nears float64's limits, and
    rows in [2^-33, 2^33) keep the kernel's bound s in [2^-67, 2^100) for any d
    below 2^30, so their products are screened."""
    top = largest(points)
    if not math.isfinite(top):
        raise ValueError("input contains non-finite values")
    e = math.frexp(top)[1]
    return (np.ldexp(points, -e), e) if abs(e) > 32 else (points, 0)


def center(raw) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the per-column mean. Returns (centered matrix, mean vector)."""
    pts = real_array(raw, "input")
    if pts.ndim != 2:
        raise ValueError("input must be a 2-D matrix of points")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError("input must have at least one row and one column")
    with np.errstate(over="ignore", invalid="ignore"):    # silent: raised below
        mean = pts.mean(axis=0)    # nan or inf where its column holds one or its sum overflows
    if not np.isfinite(mean).all():
        raise ValueError("the input's column sums overflow float64; scale it down"
                         if math.isfinite(largest(pts)) else "input contains non-finite values")
    return pts - mean, mean


class _Framed(np.ndarray):
    """A view of rows :func:`prepare` has framed, which need no scan for it."""


def _principal_axes(centered) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenvalues of the d x d Gram matrix of 2^-e `centered` (descending,
    clipped at zero), the matching unit eigenvectors as rows, by LAPACK's
    symmetric eigensolver, and e (:func:`framed`; 0 for `_Framed` rows). For
    all-zero data, where every direction is principal, the coordinate axes."""
    X = np.asarray(centered, dtype=np.float64)
    X, e = (X, 0) if isinstance(centered, _Framed) else framed(X)
    lam, vecs = np.linalg.eigh(X.T @ X)
    if lam[-1] <= 0.0:
        return np.zeros(lam.size), np.eye(lam.size), e
    return np.maximum(lam[::-1], 0.0), vecs.T[::-1].copy(), e


def _fix_sign(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0.0 else v


def first_principal_component(centered) -> tuple[np.ndarray, float, float]:
    """Top right-singular direction and leading two singular values.

    Works on the d x d Gram matrix, so the cost is O(n d^2) to form it plus
    an n-independent eigensolve. Sign convention: the entry of v1 with the
    largest magnitude is positive. σ1 and σ2 are 2^e those of 2^-e
    `centered` (:func:`framed`), so they overflow only beyond float64's range.
    """
    lam, axes, e = _principal_axes(centered)
    sigma = np.ldexp(np.sqrt(lam), e)
    return _fix_sign(axes[0]), float(sigma[0]), float(sigma[1]) if lam.size > 1 else 0.0


def principal_plane(centered) -> tuple[np.ndarray, np.ndarray]:
    """First two principal directions (for 2-D plot projections).

    In one dimension the second direction is the zero vector.
    """
    lam, axes, _ = _principal_axes(centered)
    if lam.size < 2 or lam[1] == 0.0:
        return _fix_sign(axes[0]), np.zeros(lam.size)
    return _fix_sign(axes[0]), _fix_sign(axes[1])


def _stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(values, kind="stable")`` and the sorted values, bit for bit, by one
    ``np.sort`` of uint64 keys: the order-preserving image of a value's bits (negative
    values inverted, the sign bit set on the rest, so nan of either sign is last), its
    low ``bit_length(n - 1)`` bits replaced by its index. Each run of positions whose
    cut keys tie or whose values do not strictly increase (equal values, -0.0 beside
    0.0, nan) is sorted again by (value, index); between runs both strictly increase."""
    bits, low = values.view(np.uint64), np.uint64((1 << (values.size - 1).bit_length()) - 1)
    keys = np.invert(bits, out=bits | np.uint64(1 << 63), where=values < 0.0)
    keys &= ~low
    perm = np.arange(values.size)
    keys |= perm.view(np.uint64)
    keys.sort()
    np.bitwise_and(keys, low, out=perm.view(np.uint64))
    keys &= ~low
    tied = keys[:-1] == keys[1:]
    ordered = np.take(values, perm, out=keys.view(np.float64), mode="clip")    # keys' place
    tied |= ~(ordered[:-1] < ordered[1:])
    if tied.any():
        pos = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        order = pos[np.lexsort((perm[pos], ordered[pos]))]
        perm[pos] = perm[order]
        ordered[pos] = ordered[order]
    return perm, ordered


def score_and_sort(centered, v1) -> tuple[np.ndarray, np.ndarray]:
    """Project onto v1 and order the rows by nondecreasing score (stable).

    Returns ``(sorted scores, perm)``; the rows in that order are ``centered[perm]``,
    which :func:`prepare` gathers itself. Equal scores keep the input order of
    their rows, which decides the row that starts a group."""
    X = np.asarray(centered, dtype=np.float64)
    v = np.asarray(v1, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise ValueError("v1 must have unit norm")
    return _stable_argsort(X @ v)[::-1]


def _median(values: np.ndarray, below: int, n: int) -> float:
    """``np.median`` of n values with no nan, bit for bit, from the `values` at ranks
    `below` on, which hold the middle ones, partitioned in place: ``np.median``
    would copy them, and import ``numpy.ma`` at every fit's start-up."""
    half = n // 2 - below
    values.partition(half if n % 2 else (half - 1, half))
    return float(values[half] if n % 2 else (values[half - 1] + values[half]) / 2)


def prepare(raw) -> PreparedData:
    """Run the full preparation pipeline on raw points.

    The input is framed (:func:`framed`, one scan); one n x d buffer is made
    beyond it. It holds the centered rows, then, ``_BLOCK`` entries at a time,
    the score-sorted rows gathered from the input and centered again (the same
    bits), with their half squared norms h. ``np.linalg.norm`` takes exact norms,
    each row as in one call, only of rows whose h lies within 4w of the largest or
    the middle h, w = 2 (d + 1) (u h + η): both sum d rounded squares, erring by at
    most γ_d S + d η/2 in any order, and halving by η/2 (S the exact sum, u = eps/2,
    η the smallest subnormal; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 3.1), so h is within w of half ``norm``'s sum. The largest norm is
    theirs, and the middle ones, at the ranks less the count below the band.
    Norms past float64 in the input's units raise ValueError. The rows take
    their own frame 2^-k, with the mean, scores, σ and `mext`, so a spread tiny
    or huge next to the largest entry is screened as at scale 1. k is
    :func:`framed` of the norms (2^-k mean stays finite: norms are 0 or at least
    2^-537, the framed mean under 2^32). Where σ1 < 2^-200 squares may have
    underflowed: k is the rows' largest exponent, held where 2^-k mean reaches
    2^1022, and v1 is taken again (the gather then reads a scaled input copy).
    """
    pts, e = framed(np.ascontiguousarray(real_array(raw, "input")))
    rows, mean = center(pts)
    v1, sigma1, sigma2 = first_principal_component(rows.view(_Framed))
    k = (max(math.frexp(largest(rows))[1], math.frexp(largest(mean))[1] - 1022)
         if sigma1 < 2.0 ** -200 else 0)
    if k:
        pts, mean, e = np.ldexp(pts, -k), np.ldexp(mean, -k), e + k
        v1, sigma1, sigma2 = first_principal_component(np.ldexp(rows, -k, out=rows).view(_Framed))
    scores, perm = score_and_sort(rows, v1)
    (n, d), half = rows.shape, np.empty(rows.shape[0])
    for i in range(0, n, step := max(1, _BLOCK // d)):    # sorted rows replace centered ones
        block = np.take(pts, perm[i:i + step], axis=0, out=rows[i:i + step], mode="clip")
        half[i:i + step] = half_sq_norms(np.subtract(block, mean, out=block))
    c, a = 4 * (d + 1) * _EPS, 8 * (d + 1) * _TINY    # the band 4w: c h + a
    tops = np.linalg.norm(rows[half >= (1 - c) * half.max() - a], axis=1)
    if math.frexp(float(tops.max()))[1] + e > 1024:
        raise ValueError("centered row norms lie beyond float64's range, about 1.8e308")
    part = np.partition(half, n // 2)    # h at rank n // 2, and (n even) the max before it
    lower, upper = (1 - c) * part[:n // 2 + n % 2].max() - a, (1 + c) * part[n // 2] + a
    mid = np.linalg.norm(rows[(lower <= half) & (half <= upper)], axis=1)
    k = 0 if k else framed(tops)[1]
    if k:
        for values in (rows, scores, mean, mid):
            np.ldexp(values, -k, out=values)
        sigma1, sigma2, e = math.ldexp(sigma1, -k), math.ldexp(sigma2, -k), e + k
    return PreparedData(centered=rows, mean=mean, v1=v1, scores=scores, perm=perm,
                        sigma1=sigma1, sigma2=sigma2, e=e,
                        mext=_median(mid, np.count_nonzero(half < lower), n))
