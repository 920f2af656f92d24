import math

import numpy as np
import pytest

from sortclust import geometry
from sortclust.geometry import (ball_volume, intersection_volume, log_ball_volume,
                                overlap_fraction, reg_inc_beta, reg_inc_gamma_lower)

from _oracles import (erf_series, interval_overlap_1d, lens_area_2d, mc_lens_volume,
                      scalar_overlap_fraction, scalar_reg_inc_beta)

# dimensions of the array-against-scalar comparisons: both sides of the
# linear-volume cap at 300, and far beyond it
ORACLE_DIMS = (1, 2, 10, 50, 200, 301, 10_000)
BAD_DIMS = (0, -1, 2.5, float("inf"), float("nan"), True, "3")


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestRegIncBeta:
    def test_integral_limits(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_density(self):
        for s in np.linspace(0.0, 1.0, 21):
            assert reg_inc_beta(float(s), 1.0, 1.0) == pytest.approx(s, abs=1e-12)

    def test_closed_form_one_b(self):
        # I_s(1, b) = 1 - (1-s)^b
        assert reg_inc_beta(0.25, 1.0, 0.5) == pytest.approx(1.0 - 0.75 ** 0.5, abs=1e-12)
        for s in (0.1, 0.5, 0.9):
            for b in (0.5, 1.5, 4.0):
                assert reg_inc_beta(s, 1.0, b) == pytest.approx(1.0 - (1.0 - s) ** b,
                                                                abs=1e-12)

    def test_reflection_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.2, 8.0))
            b = float(rng.uniform(0.2, 8.0))
            assert reg_inc_beta(s, a, b) + reg_inc_beta(1.0 - s, b, a) == \
                pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_s(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.01, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.01, 1.0, 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -2.0)


class TestRegIncGammaLower:
    def test_zero(self):
        assert reg_inc_gamma_lower(0.0, 3.0) == 0.0

    def test_exponential_closed_form(self):
        # P(1, x) = 1 - exp(-x)
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert reg_inc_gamma_lower(x, 1.0) == pytest.approx(1.0 - math.exp(-x),
                                                                abs=1e-12)

    def test_erf_relation(self):
        # P(1/2, x) = erf(sqrt(x)); the expected value comes from a series oracle
        assert erf_series(1.0) == pytest.approx(0.8427007929497149, abs=1e-14)
        assert reg_inc_gamma_lower(1.0, 0.5) == pytest.approx(0.8427007929497149,
                                                              abs=1e-12)
        for x in (0.25, 2.25, 4.0):
            assert reg_inc_gamma_lower(x, 0.5) == pytest.approx(erf_series(math.sqrt(x)),
                                                                abs=1e-12)

    def test_monotone_to_one(self):
        vals = [reg_inc_gamma_lower(x, 2.5) for x in np.linspace(0.0, 40.0, 100)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_huge_argument_saturates(self):
        assert reg_inc_gamma_lower(1e30, 4.5) == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(-1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(1.0, 0.0)


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(1.0, 1) == pytest.approx(2.0, rel=1e-13)
        assert ball_volume(1.0, 2) == pytest.approx(math.pi, rel=1e-13)
        assert ball_volume(1.0, 3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_radius_scaling(self):
        assert ball_volume(2.0, 3) == pytest.approx(8.0 * ball_volume(1.0, 3), rel=1e-12)

    def test_log_form_matches(self):
        for d in (1, 2, 7, 40, 200):
            assert math.exp(log_ball_volume(0.8, d)) == pytest.approx(
                ball_volume(0.8, d), rel=1e-12)

    def test_unit_volume_decays_in_high_dimension(self):
        vols = [ball_volume(1.0, d) for d in range(6, 60)]
        assert all(b < a for a, b in zip(vols, vols[1:]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ball_volume(1.0, 301)
        # the log form keeps working far beyond the cap
        assert math.isfinite(log_ball_volume(1.0, 100_000))

    def test_underflow_signaled(self):
        with pytest.raises(OverflowError):
            ball_volume(1e-200, 300)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ball_volume(0.0, 3)
        with pytest.raises(ValueError):
            ball_volume(1.0, 0)


class TestIntersectionVolume:
    def test_coincident_balls(self):
        for d in (1, 2, 5):
            assert intersection_volume(0.0, 1.0, d) == pytest.approx(
                ball_volume(1.0, d), rel=1e-12)

    def test_tangent_balls(self):
        assert intersection_volume(2.0, 1.0, 3) == 0.0
        assert intersection_volume(5.0, 1.0, 3) == 0.0

    def test_one_dimension_is_interval_overlap(self):
        for dist in (0.0, 0.3, 1.0, 1.7, 1.999):
            assert intersection_volume(dist, 1.0, 1) == pytest.approx(
                interval_overlap_1d(dist, 1.0), rel=1e-10)

    def test_two_dimensions_is_lens_area(self):
        assert intersection_volume(1.0, 1.0, 2) == pytest.approx(
            2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0), rel=1e-10)
        for dist in (0.2, 0.7, 1.3, 1.9):
            for radius in (0.5, 1.0, 2.5):
                if dist < 2.0 * radius:
                    assert intersection_volume(dist, radius, 2) == pytest.approx(
                        lens_area_2d(dist, radius), rel=1e-10)

    def test_monotone_nonincreasing_in_dist(self):
        for d in (1, 2, 4, 9):
            vals = [intersection_volume(float(t), 1.0, d)
                    for t in np.linspace(0.0, 2.2, 60)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_continuous_at_touching_distance(self):
        assert intersection_volume(2.0 - 1e-9, 1.0, 3) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_chain(self):
        for d in (1, 2, 5):
            for dist in (0.3, 1.0, 1.7):
                assert 0.0 <= intersection_volume(dist, 1.0, d) <= ball_volume(1.0, d)

    def test_monte_carlo_agreement(self):
        for d in (1, 2, 3, 5):
            for dist in (0.3, 1.0, 1.7):
                est, se = mc_lens_volume(dist, 1.0, d, samples=200_000, seed=17 * d + int(10 * dist))
                assert abs(intersection_volume(dist, 1.0, d) - est) <= 3.0 * se


class TestOverlapFraction:
    def test_overlap_fraction_range(self):
        for d in (1, 2, 10, 500):
            for dist in (0.0, 0.5, 1.5, 2.0):
                f = overlap_fraction(dist, 1.0, d)
                assert 0.0 <= f <= 1.0

    def test_array_fractions_equal_the_scalar_bit_for_bit(self):
        # at 0, at 2r and one ulp below, beyond 2r, at the distances of the
        # density pairs in test_merging, and random
        rng = np.random.default_rng(5)
        for radius in (1.0, 0.37):
            dist = np.r_[0.0, 2.0 * radius, np.nextafter(2.0 * radius, 0.0), 3.0 * radius,
                         np.array([0.1, 0.5, 1.5, 1.9]) * radius,
                         rng.uniform(0.0, 2.0 * radius, 3000)]
            for d in ORACLE_DIMS:
                expected = [scalar_overlap_fraction(t, radius, d) for t in dist.tolist()]
                assert np.array_equal(bits(overlap_fraction(dist, radius, d)), bits(expected))

    @pytest.mark.parametrize("power", [-560, 560])
    def test_fractions_at_radii_beyond_the_square_range(self, power):
        # at radius 2^+-560, 4 r^2 over- or underflows; the fraction depends
        # on dist / radius only, so dist q 2^+-560 gives radius 1's fraction
        # for q, bit for bit
        rng = np.random.default_rng(6)
        q = np.r_[0.0, 0.5, 1.0, 1.9, np.nextafter(2.0, 0.0), 2.0, 3.0, rng.uniform(0.0, 2.0, 500)]
        scale = 2.0 ** power
        for d in (1, 2, 10):
            assert np.array_equal(bits(overlap_fraction(q * scale, scale, d)),
                                  bits(overlap_fraction(q, 1.0, d)))
            assert np.array_equal(bits(overlap_fraction(q, 1.0, d)),
                                  bits([scalar_overlap_fraction(x, 1.0, d) for x in q.tolist()]))

    def test_radii_whose_square_underflows_or_overflows(self):
        # 4 r^2 underflows to 0 at 1e-163 and overflows at 1e160: the
        # fraction stays that of the ratio, with no warning
        for dist, radius in ((5e-164, 1e-163), (1e-170, 1e-163), (1e160, 1e160),
                             (1.5e300, 1e300)):
            f = overlap_fraction(dist, radius, 2)
            assert f == pytest.approx(overlap_fraction(dist / radius, 1.0, 2), rel=1e-14)

    def test_scalar_in_scalar_out(self):
        for f in (reg_inc_beta, overlap_fraction, intersection_volume):
            args = (0.3, 1.0, 0.5) if f is reg_inc_beta else (0.3, 1.0, 3)
            assert type(f(*args)) is float
            assert type(f(np.float64(0.3), *args[1:])) is float
            assert f(np.array([[0.3]]), *args[1:]).shape == (1, 1)
        assert type(intersection_volume(2.5, 1.0, 3)) is float
        assert overlap_fraction(np.empty(0), 1.0, 3).shape == (0,)

    def test_distance_errors(self):
        for dist in (-1e-300, -1.0, float("nan"), np.array([0.5, -0.5]),
                     np.array([0.5, float("nan")])):
            with pytest.raises(ValueError):
                overlap_fraction(dist, 1.0, 3)
            with pytest.raises(ValueError):
                intersection_volume(dist, 1.0, 3)


class TestBallArguments:
    @pytest.mark.parametrize("f", [log_ball_volume, ball_volume, overlap_fraction,
                                   intersection_volume])
    def test_dimension_must_be_a_positive_integer(self, f):
        args = (1.0,) if f in (log_ball_volume, ball_volume) else (0.5, 1.0)
        for bad in BAD_DIMS:
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                f(*args, bad)
        assert f(*args, 3.0) == f(*args, np.int64(3)) == f(*args, 3)


class TestArrayContinuedFraction:
    def test_array_equals_the_scalar_bit_for_bit(self):
        # s at both ends, at the symmetry switch and one ulp either side of
        # it, and random
        rng = np.random.default_rng(3)
        for d in ORACLE_DIMS:
            a, b = 0.5 * (d + 1.0), 0.5
            switch = (a + 1.0) / (a + b + 2.0)
            s = np.r_[0.0, 1.0, switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1.0),
                      rng.uniform(0.0, 1.0, 3000)]
            expected = [scalar_reg_inc_beta(v, a, b) for v in s.tolist()]
            assert np.array_equal(bits(reg_inc_beta(s, a, b)), bits(expected))

    def test_s_outside_the_unit_interval(self):
        for s in (-0.01, 1.01, float("nan"), np.array([0.5, 1.5]), np.array([float("nan")])):
            with pytest.raises(ValueError, match="outside"):
                reg_inc_beta(s, 1.0, 1.0)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_ITER", 1)
        with pytest.raises(ValueError, match="failed to converge"):
            reg_inc_beta(np.array([0.2, 0.4]), 3.0, 0.5)
        with pytest.raises(ValueError, match="failed to converge"):
            overlap_fraction(0.5, 1.0, 3)
