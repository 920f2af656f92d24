"""Data preparation: centering, leading principal direction, score sorting.

The output of :func:`prepare` is the canonical input of the aggregation
phase: rows reordered by their projection onto the top principal direction,
in the one n x d buffer it makes, together with the scale statistic (the
median row norm) that makes the user-facing radius parameter unit-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _BLOCK, largest


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
    """``np.argsort(values, kind="stable")`` and the sorted values, bit for bit.

    numpy's default argsort is several times faster than its stable one but
    may permute equal keys. So the default runs first, and then only the
    positions in a run of values that do not strictly increase (equal
    values, -0.0 next to 0.0, and any nan) are sorted again, by (value,
    index), with ``np.lexsort``.
    """
    perm = np.argsort(values)
    ordered = values[perm]
    tied = ~(ordered[:-1] < ordered[1:])
    if tied.any():
        in_run = np.zeros(ordered.size, dtype=bool)
        in_run[:-1] = tied
        in_run[1:] |= tied
        pos = np.flatnonzero(in_run)
        order = pos[np.lexsort((perm[pos], ordered[pos]))]
        perm[pos] = perm[order]
        ordered[pos] = ordered[order]
    return perm, ordered


def score_and_sort(centered, v1) -> tuple[np.ndarray, np.ndarray]:
    """Project onto v1 and order the rows by nondecreasing score (stable).

    Returns ``(sorted scores, perm)``; the rows in that order are
    ``centered[perm]``, which :func:`prepare` gathers itself. Equal scores keep
    the input order of their rows, which decides the row that starts a group;
    ``_stable_argsort`` keeps that order at the speed of numpy's default sort,
    by sorting the runs of equal scores again.
    """
    X = np.asarray(centered, dtype=np.float64)
    v = np.asarray(v1, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise ValueError("v1 must have unit norm")
    perm, scores = _stable_argsort(X @ v)
    return scores, perm


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty float64 vector with no nan, bit for bit:
    the middle element, or the mean ``(a + b) / 2`` of the two middle ones,
    as ``np.median`` takes it. `values` is partitioned in place, so no copy
    of it is made. ``np.median`` imports ``numpy.ma`` for its nan check,
    which would add that module to every fit's start-up."""
    half = values.size // 2
    values.partition(half if values.size % 2 else (half - 1, half))
    return float(values[half] if values.size % 2 else (values[half - 1] + values[half]) / 2)


def prepare(raw) -> PreparedData:
    """Run the full preparation pipeline on raw points.

    The input is framed (:func:`framed`, one scan); one n x d buffer is made
    beyond it. It holds the centered rows, then, ``_BLOCK`` entries at a time,
    the score-sorted rows gathered from the input and centered again (the same
    bits), whose norms for `mext` are taken in cache, each row as in one call.
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
    step = max(1, _BLOCK // rows.shape[1])
    norms = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], step):    # the sorted rows take the centered rows' place
        block = np.take(pts, perm[i:i + step], axis=0, out=rows[i:i + step], mode="clip")
        norms[i:i + step] = np.linalg.norm(np.subtract(block, mean, out=block), axis=1)
    if math.frexp(float(norms.max()))[1] + e > 1024:
        raise ValueError("centered row norms lie beyond float64's range, about 1.8e308")
    norms, k = (norms, 0) if k else framed(norms)
    if k:
        for values in (rows, scores, mean):
            np.ldexp(values, -k, out=values)
        sigma1, sigma2, e = math.ldexp(sigma1, -k), math.ldexp(sigma2, -k), e + k
    return PreparedData(centered=rows, mean=mean, v1=v1, scores=scores, perm=perm,
                        sigma1=sigma1, sigma2=sigma2, mext=_median(norms), e=e)
