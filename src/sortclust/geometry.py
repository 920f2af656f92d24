"""Special functions and equal-radius ball volume formulas.

The incomplete beta and the overlap fraction take arrays (a Python float
gives a Python float) and make the IEEE operations of the scalar recurrence
in its order, each entry stopping at its own convergence. The continued
fractions and series are written out directly instead of pulled from scipy
so that the package stays dependency-light and the convergence behaviour is
pinned down in one place.
"""

from __future__ import annotations

import math

import numpy as np

from .aggregation import _finite_real, _radius

_EPS = 1e-15        # convergence threshold for series / continued fractions
_FPMIN = 1e-300     # keeps the modified Lentz recurrences away from 0
_MAX_ITER = 500
_MAX_LINEAR_DIM = 300   # above this, plain volumes under/overflow; use the log forms


def _away_from_zero(v):
    """`v` with each entry of magnitude below _FPMIN replaced by _FPMIN."""
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function (modified Lentz) at
    each entry of `x`; an entry keeps the `h` of the step where its |delta - 1| < _EPS."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    out, live = np.empty_like(x), np.arange(x.size)
    c = 1.0
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        out[live[done]] = h[done]
        if done.all():
            return out
        live, x, c, d, h = (v[~done] for v in (live, x, c, d, h))
    raise ValueError(f"incomplete beta continued fraction failed to converge "
                     f"(a={a}, b={b}, x={x[0]})")


def _each(f, v: np.ndarray) -> np.ndarray:
    """`f` of each entry of `v`; numpy's log, log1p and exp differ from `math`'s in last bits."""
    return np.fromiter(map(f, v.tolist()), np.float64, v.size)


def reg_inc_beta(s, a: float, b: float):
    """Regularized incomplete beta I_s(a, b) for each s in [0, 1], a > 0, b > 0;
    a Python float for a scalar s."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta parameters must be positive")
    x = np.asarray(s, dtype=np.float64)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"s={x[outside][0]} outside [0, 1]")
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    x = x[inner]
    front = _each(math.exp, math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                  + a * _each(math.log, x) + b * _each(math.log1p, -x))
    # Symmetry switch: the continued fraction converges fast only on one side.
    low = x < (a + 1.0) / (a + b + 2.0)
    frac = np.empty_like(x)
    frac[low] = front[low] * _betacf(a, b, x[low]) / a
    frac[~low] = 1.0 - front[~low] * _betacf(b, a, 1.0 - x[~low]) / b
    out[inner] = frac
    return out if out.ndim else float(out)


def _gamma_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ValueError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ValueError(f"incomplete gamma continued fraction failed to converge "
                     f"(a={a}, x={x})")


def reg_inc_gamma_lower(x: float, a: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for x >= 0, a > 0.

    P(a, x) is the chi-square CDF with 2a degrees of freedom evaluated at 2x.
    """
    if a <= 0.0:
        raise ValueError("gamma parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    # Series converges fast left of the mean, continued fraction right of it.
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


def _check_ball_args(radius: float, d: int) -> None:
    _radius(radius)
    if not (_finite_real(d) and d >= 1 and int(d) == d):
        raise ValueError("dimension must be a positive integer")


def log_ball_volume(radius: float, d: int) -> float:
    """log of the volume of a d-dimensional ball; valid for any dimension."""
    _check_ball_args(radius, d)
    return 0.5 * d * math.log(math.pi) + d * math.log(radius) - math.lgamma(0.5 * d + 1.0)


def ball_volume(radius: float, d: int) -> float:
    """Volume of a d-dimensional ball, pi^(d/2) radius^d / Gamma(d/2 + 1)."""
    _check_ball_args(radius, d)
    if d > _MAX_LINEAR_DIM:
        raise ValueError(f"d={d} > {_MAX_LINEAR_DIM}: use log_ball_volume")
    v = math.exp(log_ball_volume(radius, d))
    if v == 0.0 or math.isinf(v):
        raise OverflowError(f"ball volume not representable for radius={radius}, d={d}; "
                            "use log_ball_volume")
    return v


def overlap_fraction(dist, radius: float, d: int):
    """Intersection volume of two equal d-balls over one ball's volume, per distance.

    This is I_s((d+1)/2, 1/2) with s = 1 - dist^2/(4 radius^2), i.e. twice the
    relative volume of the spherical cap cut off at half the center distance.
    The first beta parameter has to be (d+1)/2: the superficially plausible
    d/2+1 already fails the d=1 check, where the overlap of two unit-length
    intervals at distance t is exactly 2-t.
    """
    _check_ball_args(radius, d)
    t = np.asarray(dist, dtype=np.float64)
    if (t < 0.0).any():
        raise ValueError("dist must be nonnegative")
    s, near = np.zeros_like(t), ~(t >= 2.0 * radius)   # a nan is near: reg_inc_beta rejects it
    unit, k = math.frexp(radius)    # scaled by 2^-k, 4 radius^2 cannot under- or overflow
    s[near] = np.clip(1.0 - np.ldexp(t[near], -k) ** 2 / (4.0 * unit * unit), 0.0, 1.0)
    return reg_inc_beta(s, 0.5 * (d + 1.0), 0.5)


def intersection_volume(dist, radius: float, d: int):
    """Volume of the intersection of two d-balls of equal radius, per distance."""
    frac = overlap_fraction(dist, radius, d)
    return ball_volume(radius, d) * frac if np.any(frac) else frac
