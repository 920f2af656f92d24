"""Data preparation: centering, leading principal direction, score sorting.

The output of :func:`prepare` is the canonical input of the aggregation
phase: rows reordered by their projection onto the top principal direction,
together with the scale statistic (the median row norm) that makes the
user-facing radius parameter unit-free.
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
    """

    centered: np.ndarray
    mean: np.ndarray
    v1: np.ndarray
    scores: np.ndarray
    perm: np.ndarray
    sigma1: float
    sigma2: float
    mext: float

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


def _finite(values, points):
    """`values`, computed from `points`; a ValueError if they overflowed."""
    if np.isfinite(values).all():
        return values
    top = largest(points)    # inf where centering itself overflowed
    raise ValueError(f"input magnitudes reach {top:.3g}; above about 1e153 their squares "
                     "overflow float64" if math.isfinite(top) else "centering the input "
                     "overflowed float64; magnitudes above about 1e153 are not supported")


def center(raw) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the per-column mean. Returns (centered matrix, mean vector)."""
    pts = real_array(raw, "input")
    if pts.ndim != 2:
        raise ValueError("input must be a 2-D matrix of points")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError("input must have at least one row and one column")
    if not np.all(np.isfinite(pts)):
        raise ValueError("input contains non-finite values")
    with np.errstate(over="ignore"):
        mean = _finite(pts.mean(axis=0), pts)
        return pts - mean, mean


def _principal_axes(centered) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the d x d Gram matrix (descending, clipped at zero) and
    the matching unit eigenvectors as rows, by LAPACK's symmetric
    eigensolver. All-zero data has every direction principal; the axes are
    then the coordinate axes, so the first axis comes first."""
    X = np.asarray(centered, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        lam, vecs = np.linalg.eigh(_finite(X.T @ X, X))
    if lam[-1] <= 0.0:
        return np.zeros(lam.size), np.eye(lam.size)
    return np.maximum(lam[::-1], 0.0), vecs.T[::-1].copy()


def _fix_sign(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0.0 else v


def first_principal_component(centered) -> tuple[np.ndarray, float, float]:
    """Top right-singular direction and leading two singular values.

    Works on the d x d Gram matrix, so the cost is O(n d^2) to form it plus
    an n-independent eigensolve. Sign convention: the entry of v1 with the
    largest magnitude is positive. Where λ1 overflows, σ1 and σ2 are 2^e those of
    2^-e `centered`, e the ``frexp`` exponent of its largest magnitude.
    """
    lam, axes = _principal_axes(centered)
    e = math.frexp(largest(centered))[1] if math.isinf(lam[0]) else 0
    sigma = np.ldexp(np.sqrt(_principal_axes(np.ldexp(centered, -e))[0] if e else lam), e)
    return _fix_sign(axes[0]), float(sigma[0]), float(sigma[1]) if lam.size > 1 else 0.0


def principal_plane(centered) -> tuple[np.ndarray, np.ndarray]:
    """First two principal directions (for 2-D plot projections).

    In one dimension the second direction is the zero vector.
    """
    lam, axes = _principal_axes(centered)
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


def score_and_sort(centered, v1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project onto v1 and reorder rows by nondecreasing score (stable).

    Returns ``(ordered rows, sorted scores, perm)``. Equal scores keep the
    input order of their rows, which decides the row that starts a group;
    ``_stable_argsort`` keeps that order at the speed of numpy's default
    sort, by sorting the runs of equal scores again.
    """
    X = np.asarray(centered, dtype=np.float64)
    v = np.asarray(v1, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise ValueError("v1 must have unit norm")
    perm, scores = _stable_argsort(X @ v)
    return np.take(X, perm, axis=0), scores, perm


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty float64 vector with no nan, bit for bit:
    the middle element, or the mean ``(a + b) / 2`` of the two middle ones,
    as ``np.median`` takes it. ``np.median`` imports ``numpy.ma`` for its nan
    check, which would add that module to every fit's start-up."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    part = np.partition(values, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2)


def prepare(raw) -> PreparedData:
    """Run the full preparation pipeline on raw points.

    The row norms behind `mext` are taken in blocks of about ``_BLOCK``
    entries, so no n x d temporary is made for them; each row reduces as it
    would in one call, so the norms are the same bit for bit.
    Column means, a Gram matrix or a `mext` that overflow (from magnitudes
    of about 1e153) raise ValueError, with no warning.
    """
    centered, mean = center(raw)
    v1, sigma1, sigma2 = first_principal_component(centered)
    ordered, scores, perm = score_and_sort(centered, v1)
    del centered    # n * d floats fewer at the peak, under the norms' temporaries
    step = max(1, _BLOCK // ordered.shape[1])
    with np.errstate(over="ignore"):
        norms = np.concatenate([np.linalg.norm(ordered[i:i + step], axis=1)
                                for i in range(0, ordered.shape[0], step)])
    return PreparedData(centered=ordered, mean=mean, v1=v1, scores=scores, perm=perm,
                        sigma1=sigma1, sigma2=sigma2, mext=_finite(_median(norms), ordered))
