import math

import numpy as np
import pytest

from sortclust import fit, from_json, predict, prep, to_json
from sortclust.prep import (_median, _stable_argsort, center, first_principal_component,
                            prepare, principal_plane, score_and_sort)

from _oracles import singular_values_oracle, stable_score_sort

SQRT2 = math.sqrt(2.0)


class TestCenter:
    def test_arithmetic(self):
        centered, mean = center([[1.0, 2.0], [3.0, 4.0]])
        assert mean.tolist() == [2.0, 3.0]
        assert centered.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_single_point(self):
        centered, mean = center([[5.0]])
        assert mean.tolist() == [5.0]
        assert centered.tolist() == [[0.0]]

    def test_idempotent_on_centered_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 3))
        data -= data.mean(axis=0)
        centered, mean = center(data)
        assert np.all(np.abs(mean) <= 1e-12)
        assert np.allclose(centered, data, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            center([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            center([[float("inf"), 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            center([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            center(np.empty((0, 2)))


class TestFirstPrincipalComponent:
    def test_hand_eigendecomposition(self):
        # Gram matrix [[2, 2], [2, 2]] has eigenvalues 4 and 0
        v1, s1, s2 = first_principal_component([[-1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(v1, [1.0 / SQRT2, 1.0 / SQRT2], atol=1e-12)
        assert s1 == pytest.approx(2.0, abs=1e-12)
        assert s2 == pytest.approx(0.0, abs=1e-9)

    def test_one_dimension(self):
        v1, s1, s2 = first_principal_component([[-1.0], [1.0]])
        assert v1.tolist() == [1.0]
        assert s1 == pytest.approx(SQRT2, rel=1e-12)
        assert s2 == 0.0

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(3)
        wide_gap = rng.normal(size=(50, 3)) @ np.diag([3.0, 1.0, 0.2])
        # 200 x 4 with singular values 5, 5(1 - 1e-6), 1, 0.5: a relative
        # eigengap of 2e-6, which stalls an iterative eigensolver
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(200, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        small_gap = u @ np.diag([5.0, 5.0 * (1.0 - 1e-6), 1.0, 0.5]) @ v.T
        for x in (wide_gap, small_gap):
            _, s1, s2 = first_principal_component(x)
            ref = singular_values_oracle(x)
            assert s1 == pytest.approx(ref[0], rel=1e-8)
            assert s2 == pytest.approx(ref[1], rel=1e-8)

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(30, 4))
            v1, _, _ = first_principal_component(x)
            assert abs(np.linalg.norm(v1) - 1.0) <= 1e-10
            assert v1[int(np.argmax(np.abs(v1)))] > 0.0

    def test_all_zero_matrix(self):
        v1, s1, s2 = first_principal_component(np.zeros((5, 3)))
        assert v1.tolist() == [1.0, 0.0, 0.0]
        assert s1 == 0.0 and s2 == 0.0

    def test_principal_plane_orthogonality(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 5)) @ np.diag([4.0, 2.0, 1.0, 0.5, 0.1])
        v1, v2 = principal_plane(x)
        assert abs(float(v1 @ v2)) <= 1e-6
        assert abs(np.linalg.norm(v2) - 1.0) <= 1e-8

    def test_principal_plane_one_dimension(self):
        v1, v2 = principal_plane([[-1.0], [1.0]])
        assert v1.tolist() == [1.0]
        assert v2.tolist() == [0.0]


class TestScoreAndSort:
    def test_one_dimensional_sort(self):
        ordered, scores, perm = score_and_sort([[3.0], [1.0], [2.0]], [1.0])
        assert scores.tolist() == [1.0, 2.0, 3.0]
        assert perm.tolist() == [1, 2, 0]
        assert ordered[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_stable_on_ties(self):
        ordered, scores, perm = score_and_sort(np.ones((4, 2)), [1.0, 0.0])
        assert perm.tolist() == [0, 1, 2, 3]

    def test_scores_from_hand_case(self):
        ordered, scores, _ = score_and_sort([[-1.0, -1.0], [1.0, 1.0]],
                                            [1.0 / SQRT2, 1.0 / SQRT2])
        assert np.allclose(scores, [-SQRT2, SQRT2], atol=1e-12)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            score_and_sort([[1.0, 0.0]], [2.0, 0.0])


def assert_sorts_like_oracle(X, v1):
    """score_and_sort equals the stable-argsort oracle bit for bit; returns perm."""
    got, want = score_and_sort(X, v1), stable_score_sort(X, v1)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return got[2]


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestStableOrder:
    """The default argsort plus the tie repair is numpy's stable argsort."""

    def test_integer_scores_with_many_ties(self):
        rng = np.random.default_rng(41)
        repaired = 0
        for n in (2, 3, 8, 17, 100, 1000, 20000):
            for span in (1, 3, 50):
                X = rng.normal(size=(n, 3))
                X[:, 0] = rng.integers(-span, span + 1, size=n)
                v1 = [1.0, 0.0, 0.0]
                perm = assert_sorts_like_oracle(X, v1)
                repaired += not np.array_equal(np.argsort(X @ np.array(v1)), perm)
        # the default sort alone would have permuted tied rows
        assert repaired > 0

    def test_integer_lattice_along_a_skew_direction(self):
        rng = np.random.default_rng(42)
        for n in (5, 60, 3000):
            X = rng.integers(-4, 5, size=(n, 2)).astype(np.float64)
            assert_sorts_like_oracle(X, unit([3.0, 4.0]))
            assert_sorts_like_oracle(X, [0.0, 1.0])

    @pytest.mark.parametrize("pool", [
        [-0.0, 0.0], [-0.0, 0.0, -1.0, 1.0], [-0.0, 0.0, 2.5],
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0],
    ])
    def test_signed_zeros_and_non_finite_scores(self, pool):
        # BLAS sums from +0.0, so X @ v1 never yields -0.0 here, and finite
        # rows give finite scores; the repair is checked on the scores directly
        rng = np.random.default_rng(43)
        for n in (2, 7, 64, 5000):
            values = rng.choice(pool, size=n)
            perm, ordered = _stable_argsort(values.copy())
            want = np.argsort(values, kind="stable")
            assert np.array_equal(perm, want)
            assert ordered.tobytes() == values[want].tobytes()

    def test_constant_data(self):
        for n in (1, 2, 9, 4000):
            for value in (0.0, 2.5):
                perm = assert_sorts_like_oracle(np.full((n, 3), value), unit([1.0, -2.0, 0.5]))
                assert perm.tolist() == list(range(n))

    def test_duplicated_rows(self):
        rng = np.random.default_rng(45)
        base = rng.normal(size=(30, 4))
        for n in (31, 600, 9000):
            X = base[rng.integers(0, base.shape[0], size=n)]
            assert_sorts_like_oracle(X, unit(rng.normal(size=4)))

    def test_ties_at_both_ends(self):
        rng = np.random.default_rng(46)
        for n in (6, 9, 300):
            values = rng.normal(size=n)
            values[:3] = values.min()
            values[-3:] = values.max() + 1.0
            X = values[rng.permutation(n), None]
            perm = assert_sorts_like_oracle(X, [1.0])
            assert X[perm[0], 0] == X[perm[2], 0] and X[perm[-1], 0] == X[perm[-3], 0]

    def test_single_row(self):
        assert assert_sorts_like_oracle([[3.0, -1.0]], [0.0, 1.0]).tolist() == [0]

    @pytest.mark.parametrize("merge_mode", ["distance", "density"])
    @pytest.mark.parametrize("data", ["duplicated", "lattice"])
    def test_fit_equals_a_fit_on_the_oracle_sort(self, monkeypatch, merge_mode, data):
        rng = np.random.default_rng(47)
        if data == "duplicated":
            base = rng.normal(size=(40, 3))
            X = base[rng.integers(0, 40, size=800)]
        else:
            grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(5.0)), axis=-1)
            X = np.repeat(grid.reshape(-1, 2), 3, axis=0)[rng.permutation(180)]
        assert np.any(np.diff(prepare(X).scores) == 0.0)
        kwargs = dict(radius=0.3, minpts=4, merge_mode=merge_mode)
        text = to_json(fit(X, **kwargs))
        monkeypatch.setattr(prep, "score_and_sort", stable_score_sort)
        assert to_json(fit(X, **kwargs)) == text


class TestPrepare:
    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 6))
            data = rng.normal(0.0, 2.0, size=(n, d))
            p = prepare(data)
            assert np.all(np.diff(p.scores) >= 0.0)
            assert abs(np.linalg.norm(p.v1) - 1.0) <= 1e-10
            recomputed = p.centered @ p.v1
            assert np.allclose(recomputed, p.scores, rtol=1e-8, atol=1e-12)
            col_std = p.centered.std(axis=0)
            # means of all rows (the permutation only reorders them)
            assert np.all(np.abs(p.centered.mean(axis=0)) <= 1e-8 * col_std + 1e-12)
            assert p.sigma1 >= p.sigma2 >= 0.0
            assert sorted(p.perm.tolist()) == list(range(n))

    def test_norm_extent_is_median_norm(self):
        # bit for bit, on one block of rows and on many (_BLOCK // d rows each)
        rng = np.random.default_rng(4)
        for shape in [(41, 3), (1000, 1), (300, 129), (600, 1000), (40_000, 8)]:
            data = rng.normal(size=shape)
            centered = data - data.mean(axis=0)
            assert prepare(data).mext == float(np.median(np.linalg.norm(centered, axis=1)))

    def test_shift_invariance(self):
        rng = np.random.default_rng(33)
        data = rng.normal(size=(50, 4))
        base = prepare(data)
        shifted = prepare(data + np.array([13.0, -4.0, 0.25, 1e3]))
        assert np.allclose(base.centered, shifted.centered, atol=1e-10)
        assert np.allclose(base.scores, shifted.scores, atol=1e-10)
        assert base.perm.tolist() == shifted.perm.tolist()
        assert base.mext == pytest.approx(shifted.mext, abs=1e-10)

    def test_scale_covariance(self):
        rng = np.random.default_rng(34)
        data = rng.normal(size=(50, 4))
        base = prepare(data)
        for c in (0.1, 3.7):
            scaled = prepare(c * data)
            assert scaled.perm.tolist() == base.perm.tolist()
            assert np.allclose(scaled.scores, c * base.scores, rtol=1e-10, atol=1e-12)
            assert scaled.mext == pytest.approx(c * base.mext, rel=1e-10)

    def test_projection_gap_bounds_distance(self):
        # |score_i - score_j| <= dist(x_i, x_j), with the slack controlled by
        # the second singular value: dist^2 <= gap^2 + 2 sigma2^2
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(0.0, 1.5, size=(n, d)))
            diff = p.centered[:, None, :] - p.centered[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            gap = np.abs(p.scores[:, None] - p.scores[None, :])
            assert np.all(gap <= dist + 1e-9)
            assert np.all(dist ** 2 <= gap ** 2 + 2.0 * p.sigma2 ** 2 + 1e-6)

    def test_n_equals_one(self):
        p = prepare([[7.0, -2.0]])
        assert p.n == 1 and p.scores.tolist() == [0.0] and p.mext == 0.0


def normal_sample(seed=0):
    return np.random.default_rng(seed).normal(size=(50, 3))


# inputs past the old limit of about 1e153, where squares or column sums
# overflow in the input's units: the Gram matrix (the sample x1e154, and its
# column 0 x1e155), the column sums (two rows near 1.5e308), and only the row
# norms behind mext (3 rows of 8 columns at 6e153); all fit in their frame
PAST_THE_OLD_LIMIT = {
    "scaled-1e154": lambda: 1e154 * normal_sample(),
    "column-1e155": lambda: normal_sample() * [1e155, 1.0, 1.0],
    "rows-near-1.5e308": lambda: np.vstack([normal_sample(), [[1.5e308, 0.0, 0.0],
                                                              [1.4e308, 0.0, 0.0]]]),
    "row-norms-6e153": lambda: 6e153 * np.array([[1.0] * 8, [-1.0] * 8, [0.0] * 8]),
}

# row S: 50 x 3 normal samples (seeds 0-2, radius 0.3, minpts 3) times c,
# from the subnormals to near float64's largest value
ROW_S = (1e-320, 1e-310, 1e-300, 1e-250, 1e-200, 1e-162, 1e-161, 1e160, 1e200, 1e250,
         1e300, 1e307)


@pytest.mark.filterwarnings("error")
class TestMagnitudeRange:
    @pytest.mark.parametrize("case", list(PAST_THE_OLD_LIMIT))
    def test_inputs_past_the_old_limit_fit_with_no_warning(self, case):
        data = PAST_THE_OLD_LIMIT[case]()
        model = fit(data, radius=0.3)
        assert np.isfinite(model.starting_points).all() and 0.0 < model.mext < math.inf
        starts = model.starting_points + model.mean
        assert predict(model, starts).tolist() == model.group_cluster.tolist()
        if case == "scaled-1e154":
            assert model.labels.tolist() == fit(normal_sample(), radius=0.3).labels.tolist()

    def test_centering_overflow_is_the_declared_limit(self):
        # in the frame the rows fit; in the input's units the centered rows
        # reach 2.27e308, past float64's largest value
        with pytest.raises(ValueError, match="beyond float64's range") as raised:
            fit([[1.7e308], [-1.7e308], [-1.7e308]], radius=0.3)
        assert "inf" not in str(raised.value)

    def test_singular_values_where_the_largest_eigenvalue_overflows(self):
        # the Gram entries stay finite (near 9e307) but its largest
        # eigenvalue passes the float64 limit: one random sign per row,
        # shared by every column
        rng = np.random.default_rng(0)
        sign = rng.choice([-1.0, 1.0], size=(1000, 1))
        x = 3e152 * sign * (1.0 + 0.01 * rng.uniform(size=(1000, 10)))
        centered = x - x.mean(axis=0)
        reference = np.ldexp(np.linalg.svd(np.ldexp(centered, -160), compute_uv=False), 160)
        p = prep.prepare(x)
        _, s1, s2 = first_principal_component(centered)
        for sigma1, sigma2 in [(s1, s2), (math.ldexp(p.sigma1, p.e), math.ldexp(p.sigma2, p.e))]:
            assert math.isfinite(sigma1) and sigma1 > 1e154
            assert sigma1 == pytest.approx(reference[0], rel=1e-12)
            # sigma2 carries the Gram matrix's rounding relative to sigma1, at
            # any scale (sigma2 / sigma1 is about 1e-3 here)
            assert sigma2 == pytest.approx(reference[1], rel=1e-9)

    def test_scaled_by_1e153_gives_the_labels_at_scale_one(self):
        x = normal_sample()
        assert np.array_equal(fit(1e153 * x, radius=0.3).labels, fit(x, radius=0.3).labels)

    @pytest.mark.parametrize("k", [-1000, -500, -200, 200, 400, 1000])
    def test_powers_of_two_prepare_the_scale_one_bits(self, k):
        # scaling by 2^k is exact, and the frame takes it out again
        x = np.random.default_rng(7).normal(size=(300, 4))
        base, p = prepare(x), prepare(np.ldexp(x, k))
        assert base.e == 0 and p.e != 0
        assert np.array_equal(p.v1, base.v1) and np.array_equal(p.perm, base.perm)
        assert np.array_equal(np.ldexp(p.centered, p.e), np.ldexp(base.centered, k))
        assert np.array_equal(np.ldexp(p.scores, p.e), np.ldexp(base.scores, k))
        assert [math.ldexp(v, p.e) for v in (p.mext, p.sigma1, p.sigma2)] == \
            [math.ldexp(v, k) for v in (base.mext, base.sigma1, base.sigma2)]

    @pytest.mark.parametrize("c", ROW_S)
    def test_row_s_clusters_as_at_scale_one(self, c):
        # labels, predictions (on the rows, near them and away from them) and
        # a model reloaded from its JSON, against scale 1's
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = normal_sample(seed)
            queries = np.vstack([x, x + 0.05 * rng.normal(size=x.shape),
                                 3.0 * rng.normal(size=(20, 3))])
            base = fit(x, radius=0.3, minpts=3)
            want = predict(base, queries)
            model = fit(c * x, radius=0.3, minpts=3)
            for m in (model, from_json(to_json(model))):
                assert m.labels.tolist() == base.labels.tolist(), (seed, c)
                assert predict(m, c * queries).tolist() == want.tolist(), (seed, c)


class TestFiniteness:
    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.nan, np.inf]])
    def test_non_finite_entries_raise_one_value_error(self, values):
        # the frame's scan meets them: numpy's max and min propagate nan
        data = normal_sample()
        data[3:3 + len(values), 1] = values
        for call in (prepare, lambda x: fit(x, radius=0.3), center,
                     first_principal_component, principal_plane):
            with pytest.raises(ValueError, match="non-finite values"):
                call(data)


class TestMedian:
    """`_median` is ``np.median`` bit for bit on nonnegative norms."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 101, 1000, 4097])
    def test_bits_equal_np_median(self, n):
        rng = np.random.default_rng(n)
        samples = [rng.uniform(0.0, 10.0, n), rng.lognormal(0.0, 30.0, n),
                   rng.integers(0, 3, n).astype(np.float64), np.zeros(n),
                   np.linalg.norm(rng.normal(size=(n, 3)), axis=1)]
        for values in samples:
            expected = float(np.median(values))
            assert _median(values.copy()).hex() == expected.hex()

    @pytest.mark.parametrize("values", [
        [np.inf], [1.0, np.inf], [np.inf, np.inf], [2.0, np.inf, 1.0],
        [np.inf, 1.0, np.inf, 3.0], [0.0, np.inf, np.inf, np.inf, 5e153],
        [1.3e154, 1.34e154], [1.34e154, 1.34e154, np.inf, 0.0]])
    def test_norms_that_overflow_to_inf(self, values):
        values = np.array(values)
        assert _median(values.copy()).hex() == float(np.median(values)).hex()

    def test_input_is_left_as_it_is(self):
        values = np.array([3.0, 1.0, 2.0, 0.5])
        assert _median(values) == 1.5 and values.tolist() == [3.0, 1.0, 2.0, 0.5]
