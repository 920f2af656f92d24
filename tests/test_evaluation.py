import math

import numpy as np
import pytest

from sortclust.evaluation import (ContingencyTable, GaussianModelParams, ami,
                                  ari, make_blobs, model_p1, model_p2,
                                  model_ratio)

from _oracles import direct_expected_mi, erf_series, mc_window_hit_rate


class TestContingencyTable:
    def test_counts_and_margins(self):
        t = ContingencyTable.from_labels([0, 0, 1, 1], [0, 1, 0, 1])
        assert t.counts.tolist() == [[1, 1], [1, 1]]
        assert t.row_sums.tolist() == [2, 2]
        assert t.col_sums.tolist() == [2, 2]
        assert t.total == 4

    def test_arbitrary_label_values(self):
        t = ContingencyTable.from_labels([-1, 7, 7], [3, 3, 5])
        assert t.total == 3
        assert t.counts.sum() == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ContingencyTable.from_labels([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            ContingencyTable.from_labels([], [])


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_permutation_of_ids(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_hand_contingency_value(self):
        # 2x2 table of all ones: exact value is -1/2
        assert ari([0, 1, 0, 1], [0, 0, 1, 1]) == -0.5

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 5, size=30)
            assert ari(a, b) == ari(b, a)

    def test_exact_relabel_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 5, size=60)
        pred = rng.integers(0, 4, size=60)
        base = ari(truth, pred)
        for _ in range(100):
            mapping = rng.permutation(4)
            assert ari(truth, mapping[pred]) == base

    def test_outlier_label_is_ordinary(self):
        assert ari([-1, -1, 0, 0], [5, 5, 6, 6]) == 1.0

    def test_degenerate_single_cluster(self):
        assert ari([0, 0, 0], [1, 1, 1]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari([0, 1], [0, 1, 1])


class TestAmi:
    def test_identical_nontrivial(self):
        assert ami([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0
        assert ami([0, 0, 1, 1, 2], [7, 7, 3, 3, 9]) == 1.0

    def test_trivial_conventions(self):
        assert ami([0, 0, 0], [0, 0, 0]) == 1.0          # one cluster each
        assert ami([0, 1, 2], [5, 6, 7]) == 1.0          # all singletons

    def test_uniform_contingency_not_positive(self):
        # MI is exactly zero here, so the adjusted score cannot exceed zero
        assert ami([0, 1, 0, 1], [0, 0, 1, 1]) <= 0.0

    def test_expected_mi_matches_direct_summation(self):
        from sortclust.evaluation import _expected_mi
        rng = np.random.default_rng(3)
        for _ in range(10):
            truth = rng.integers(0, 3, size=int(rng.integers(4, 25)))
            pred = rng.integers(0, 4, size=truth.size)
            t = ContingencyTable.from_labels(truth, pred)
            direct = direct_expected_mi([int(v) for v in t.row_sums],
                                        [int(v) for v in t.col_sums], t.total)
            assert _expected_mi(t) == pytest.approx(direct, abs=1e-10)

    def test_exact_relabel_invariance(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 5, size=50)
        pred = rng.integers(0, 4, size=50)
        base = ami(truth, pred)
        for _ in range(100):
            mapping = rng.permutation(4)
            assert ami(truth, mapping[pred]) == base

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.integers(0, 3, size=40)
            b = rng.integers(0, 6, size=40)
            assert ami(a, b) == ami(b, a)

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.integers(0, 4, size=35)
            b = rng.integers(0, 4, size=35)
            assert ami(a, b) <= 1.0 + 1e-12


class TestMakeBlobs:
    def test_deterministic(self):
        a = make_blobs(50, 3, 4, 1.0, 7)
        b = make_blobs(50, 3, 4, 1.0, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_std_recovers_truth(self):
        pts, labels = make_blobs(30, 2, 3, 0.0, 1)
        # every point sits on its center, so equal rows share a label
        _, inverse = np.unique(pts, axis=0, return_inverse=True)
        assert ari(labels, inverse) == 1.0

    def test_split_as_even_as_possible(self):
        _, labels = make_blobs(10, 2, 3, 1.0, 0)
        counts = np.bincount(labels)
        assert sorted(counts.tolist()) == [3, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blobs(2, 2, 3, 1.0, 0)
        with pytest.raises(ValueError):
            make_blobs(5, 0, 2, 1.0, 0)
        with pytest.raises(ValueError):
            make_blobs(5, 2, 2, -1.0, 0)

    @pytest.mark.parametrize("counts, name", [
        ((10.5, 2, 2), "n"), ((10, 2.5, 2), "d"), ((10, 2, 2.0), "k"),
        ((10, "2", 2), "d"), ((2, 2, 3), "n"), ((5, 0, 2), "d"), ((5, 2, 0), "k")])
    def test_counts_must_be_integers_and_name_themselves(self, counts, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
            make_blobs(*counts, 1.0, 0)

    def test_numpy_integer_counts(self):
        a = make_blobs(np.int64(50), np.int32(3), np.uint8(4), 1.0, 7)
        b = make_blobs(50, 3, 4, 1.0, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("std", [float("nan"), float("inf")])
    def test_non_finite_std(self, std):
        with pytest.raises(ValueError, match="std must be finite"):
            make_blobs(20, 2, 2, std, 0)


class TestWindowModel:
    def test_p1_total_probability(self):
        assert model_p1(0.0, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_p1_unit_window(self):
        # the expected value comes from the erf series oracle
        expected = erf_series(1.0 / math.sqrt(2.0))
        assert model_p1(0.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_p1_shrinks_to_zero(self):
        assert model_p1(0.0, 1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_p2_small_s_approaches_p1(self):
        p1 = model_p1(0.3, 0.8)
        prev = 0.0
        for s in (0.5, 0.1, 0.02, 0.005):
            p2 = model_p2(GaussianModelParams(c=0.3, r=0.8, s=s, d=3))
            assert p2 >= prev - 1e-9
            prev = p2
        assert prev == pytest.approx(p1, abs=1e-4)

    def test_p2_never_exceeds_p1(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = GaussianModelParams(c=float(rng.uniform(-2, 2)),
                                         r=float(rng.uniform(0.1, 3.0)),
                                         s=float(rng.uniform(0.05, 1.0)),
                                         d=int(rng.integers(2, 12)))
            assert model_p2(params) <= model_p1(params.c, params.r) + 1e-9

    def test_p2_matches_monte_carlo(self):
        params = GaussianModelParams(c=0.6, r=0.5, s=0.3, d=2)
        est, se, _ = mc_window_hit_rate(0.6, 0.5, 0.3, 2, samples=400_000, seed=12)
        assert abs(model_p2(params) - est) <= 3.0 * se

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            model_p2(GaussianModelParams(c=0.0, r=1.0, s=0.5, d=1))
        with pytest.raises(ValueError):
            GaussianModelParams(c=0.0, r=1.0, s=1.5, d=3).validate()

    @pytest.mark.parametrize("d", [math.inf, math.nan, 2.5, 1, -math.inf])
    def test_dimension_that_is_no_integer(self, d):
        with pytest.raises(ValueError, match="^d must be an integer >= 2"):
            GaussianModelParams(c=0.0, r=1.0, s=0.5, d=d).validate()

    @pytest.mark.parametrize("c, r, s, d", [(30.0, 30.0, 0.3, 2), (19.0, 19.0, 1.0, 5),
                                            (-28.0, 30.0, 0.5, 3), (0.0, 1e10, 0.3, 2)])
    def test_p2_matches_monte_carlo_on_wide_windows(self, c, r, s, d):
        # windows much wider than the Gaussian's mass, or centred far from it
        est, se, _ = mc_window_hit_rate(c, r, s, d, samples=100_000, seed=14)
        assert abs(model_p2(GaussianModelParams(c=c, r=r, s=s, d=d)) - est) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("c, r, s", [(0.0, 1e10, 0.3), (0.0, 1e200, 0.3),
                                         (0.0, 0.5, 1e-300), (0.0, 0.5, 1e-155),
                                         (1e300, 1e300, 0.3), (-1e300, 1e300, 1.0),
                                         (1.7e308, 1.7e308, 1.0), (0.0, 1.7e308, 1e-300)])
    @pytest.mark.parametrize("d", [2, 3, 50])
    def test_ratio_at_the_far_ends_of_the_parameter_range(self, c, r, s, d):
        # each ball holds all but a vanishing part of its window's mass
        assert 0.999 <= model_ratio(GaussianModelParams(c=c, r=r, s=s, d=d)) <= 1.0

    def test_ratio_of_a_vanishing_radius(self):
        assert model_ratio(GaussianModelParams(c=0.0, r=5e-324, s=1e-300, d=2)) == 0.0

    @pytest.mark.parametrize("d, s", [(100_000, 1e-10), (10**400, 0.3)])
    def test_chi_square_factor_out_of_reach_names_d(self, d, s):
        with pytest.raises(ValueError, match=f"^d={d} too large for the chi-square factor: "):
            model_ratio(GaussianModelParams(c=0.0, r=0.5, s=s, d=d))

    def test_ratio_monotone_in_s_and_d(self):
        ratios_s = [model_ratio(GaussianModelParams(c=0.0, r=0.5, s=s, d=4))
                    for s in (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)]
        assert all(b <= a + 1e-9 for a, b in zip(ratios_s, ratios_s[1:]))
        ratios_d = [model_ratio(GaussianModelParams(c=0.0, r=0.5, s=0.3, d=d))
                    for d in (2, 3, 5, 10, 50)]
        assert all(b <= a + 1e-9 for a, b in zip(ratios_d, ratios_d[1:]))

    def test_ratio_increasing_in_r(self):
        ratios = [model_ratio(GaussianModelParams(c=0.0, r=r, s=0.3, d=10))
                  for r in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_ratio_limits(self):
        assert model_ratio(GaussianModelParams(c=0.0, r=20.0, s=0.3, d=10)) >= 0.999
        assert model_ratio(GaussianModelParams(c=0.0, r=0.5, s=0.005, d=5)) >= 0.999
