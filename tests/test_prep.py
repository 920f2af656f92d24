import math
import tracemalloc

import numpy as np
import pytest

from sortclust import fit, from_json, make_blobs, predict, prep, to_json
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

    def test_opposite_infinities_raise_with_no_warning(self):
        # their column's sum is nan: one ValueError, and no numpy warning
        # (warnings are errors here)
        with pytest.raises(ValueError, match="non-finite values"):
            center([[np.inf], [-np.inf]])

    def test_column_sums_that_overflow_are_named(self):
        # finite rows whose column sum passes float64's largest value: the
        # message names the sums, not the values, and numpy stays silent
        with pytest.raises(ValueError, match="column sums overflow") as raised:
            center([[1.5e308], [1.4e308]])
        assert "non-finite" not in str(raised.value)

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
        scores, perm = score_and_sort([[3.0], [1.0], [2.0]], [1.0])
        assert scores.tolist() == [1.0, 2.0, 3.0]
        assert perm.tolist() == [1, 2, 0]

    def test_stable_on_ties(self):
        scores, perm = score_and_sort(np.ones((4, 2)), [1.0, 0.0])
        assert perm.tolist() == [0, 1, 2, 3]

    def test_scores_from_hand_case(self):
        scores, _ = score_and_sort([[-1.0, -1.0], [1.0, 1.0]], [1.0 / SQRT2, 1.0 / SQRT2])
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
    return got[1]


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


def assert_argsort_bits(values):
    """`_stable_argsort` is ``np.argsort(kind="stable")`` and ``values[perm]``, bit for bit."""
    perm, ordered = _stable_argsort(values.copy())
    want = np.argsort(values, kind="stable")
    assert perm.dtype == want.dtype and np.array_equal(perm, want)
    assert ordered.tobytes() == values[want].tobytes()


# n = 1, 2, and 2^b and 2^b + 1, where the index takes b and b + 1 low bits of a key
PACKED_SIZES = [1, 2, 3, 4, 5, 1024, 1025, 4096, 4097]


class TestPackedSort:
    """The index fills the low bit_length(n - 1) bits of each key; the runs that
    the cut keys or the values leave unordered are sorted again."""

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_runs_of_equal_values_and_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        for pool in ([2.5], [-0.0, 0.0], [-0.0, 0.0, -1.5, 1.5], [-1.0, 0.0, 1.0, 7.0]):
            assert_argsort_bits(rng.choice(pool, size=n))
        assert_argsort_bits(rng.integers(-3, 4, size=n).astype(np.float64))

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_nan_of_either_sign_infinities_and_subnormals(self, n):
        # nan of either sign and any payload sorts last, in index order
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(np.float64)
        pool = np.concatenate([nans, [np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                                      2.2250738585072014e-308, 0.0, -0.0, 1.0, -1.0]])
        rng = np.random.default_rng(n)
        assert_argsort_bits(rng.choice(pool, size=n))
        assert_argsort_bits(np.where(rng.random(n) < 0.1, rng.choice(nans, size=n),
                                     rng.normal(size=n)))

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_values_that_differ_only_in_their_lowest_bits(self, n):
        # 1 + k 2^-52 for shuffled k: the cut keys tie across whole runs of
        # consecutive floats, which the sort leaves in index order
        rng = np.random.default_rng(n)
        ulps = rng.permutation(n) * 2.0 ** -52
        for values in (1.0 + ulps, -(1.0 + ulps), np.ldexp(1.0 + ulps, -1060),
                       1.0 + rng.choice(ulps, size=n)):
            assert_argsort_bits(values)

    def test_sorts_random_scores_as_numpy(self):
        rng = np.random.default_rng(48)
        for n in (6, 777, 70_001):
            assert_argsort_bits(rng.normal(size=n))
            assert_argsort_bits(np.round(rng.normal(size=n), 2))


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

    def test_one_n_by_d_buffer_beyond_the_input(self):
        # the centered rows and the score-sorted rows share one buffer: the
        # traced peak is that buffer and a few n-vectors (scores, perm, norms
        # and the sort's), under 1.6 times the input's bytes
        X, _ = make_blobs(100_000, 10, 10, 1.0, 0)
        prepare(X[:100])
        tracemalloc.start()
        try:
            prepare(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * X.nbytes, peak / X.nbytes

    @pytest.mark.parametrize("shape", [(70_001, 4), (300, 1000)])
    @pytest.mark.parametrize("case", ["scale-1", "2^100", "2^-100", "5e-10+1e-17x"])
    def test_sorted_rows_are_the_centered_input_in_score_order(self, shape, case):
        # gathered from the input block by block and centered there, the
        # rows are (raw - mean)[perm] bit for bit, in the input's units and,
        # for the rescaled inputs, in scale 1's frame
        x = np.random.default_rng(8).normal(size=shape)
        raw = {"scale-1": x, "2^100": np.ldexp(x, 100), "2^-100": np.ldexp(x, -100),
               "5e-10+1e-17x": 5e-10 + 1e-17 * x}[case]
        p = prepare(raw)
        assert np.ldexp(p.centered, p.e).tobytes() == (raw - raw.mean(axis=0))[p.perm].tobytes()
        assert p.centered.flags.c_contiguous
        if case.startswith("2^"):
            base = prepare(x)
            assert np.array_equal(p.perm, base.perm)
            shift = p.e - base.e - int(case[2:])
            assert np.ldexp(p.centered, shift).tobytes() == base.centered.tobytes()

    def test_fortran_ordered_input_fits_as_c_ordered(self):
        # prepare reads a C-ordered copy, so the layout of the input changes
        # no score, norm or label
        X, _ = make_blobs(3000, 6, 5, 1.0, 2)
        F = np.asfortranarray(X)
        a, b = prepare(X), prepare(F)
        for name in ("centered", "scores", "perm"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.mext == b.mext
        assert to_json(fit(F, radius=0.3)) == to_json(fit(X, radius=0.3))


def assert_mext_is_the_median_norm(x):
    """`mext` is ``np.median`` of the row norms of ``prepare``'s rows, in its frame."""
    p = prepare(x)
    assert p.mext.hex() == float(np.median(np.linalg.norm(p.centered, axis=1))).hex()
    return p


def mext_input(case, n, d):
    x = np.random.default_rng(n * 1009 + d).normal(size=(n, d))
    return {"normal": x, "zero-rows": np.zeros((n, d)),
            "5e-10+1e-17x": 5e-10 + 1e-17 * x, "3+1e-14x": 3.0 + 1e-14 * x,
            "2^100": np.ldexp(x, 100), "2^-300": np.ldexp(x, -300),
            "[1,2^-1000x]": np.hstack([np.ones((n, 1)), np.ldexp(x, -1000)])}[case]


def lattice_rows(n_tied, far):
    """Integer rows whose sum is 0, so the mean is 0 and the rows are their own
    centered rows: n_tied rows of norm 1 (+-e1, +-e2), then pairs of norms 2
    and 3, and `far` pairs of norm 5 (+-(3, 4)) at the largest norm."""
    unit = [[1, 0], [-1, 0], [0, 1], [0, -1]] * (n_tied // 4)
    rows = unit + [[2, 0], [-2, 0], [0, 3], [0, -3]] + [[3, 4], [-3, -4]] * far
    return np.random.default_rng(n_tied + far).permutation(np.array(rows, dtype=np.float64))


class TestMext:
    """`mext` from the half squared norms and the exact norms of a band of rows."""

    @pytest.mark.parametrize("d", [1, 2, 10, 1000])
    @pytest.mark.parametrize("n", [1, 2, 100, 101])
    @pytest.mark.parametrize("case", ["normal", "zero-rows", "5e-10+1e-17x", "3+1e-14x",
                                      "2^100", "2^-300", "[1,2^-1000x]"])
    def test_bits_equal_the_median_row_norm(self, case, n, d):
        p = assert_mext_is_the_median_norm(mext_input(case, n, d))
        if case == "zero-rows" or n == 1:
            assert p.mext == 0.0

    def test_frames_beyond_32_are_taken(self):
        # the input's frame (2^+-100 and 2^-300) and the centered rows' frame
        # (a spread far below the offset, by the norms or by sigma1) all occur
        frames = {case: prepare(mext_input(case, 101, 10)).e
                  for case in ("2^100", "2^-300", "5e-10+1e-17x", "3+1e-14x", "[1,2^-1000x]")}
        assert all(abs(e) > 32 for e in frames.values()), frames

    @pytest.mark.parametrize("n_tied, far", [(52, 1), (400, 3), (4000, 10), (4, 0), (8, 5)])
    def test_rows_tied_at_the_median_and_at_the_largest_norm(self, n_tied, far):
        x = lattice_rows(n_tied, far)
        p = assert_mext_is_the_median_norm(x)
        assert p.e == 0 and np.array_equal(p.mean, [0.0, 0.0])
        if n_tied > len(x) / 2:
            assert p.mext == 1.0
        assert_mext_is_the_median_norm(x[:-1])

    @pytest.mark.parametrize("d", [1, 2, 10, 1000])
    def test_norms_a_few_ulps_apart(self, d):
        # unit rows, centered: the norms lie within a few ulps of 1, so the
        # half norms may order them otherwise than their exact norms do
        rng = np.random.default_rng(d)
        x = rng.normal(size=(1001 if d < 1000 else 201, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        for rows in (x, np.vstack([x, -x]), x[:-1]):
            assert_mext_is_the_median_norm(rows)

    @pytest.mark.parametrize("rows", ["unit", "subnormal"])
    def test_half_norms_moved_within_their_error_bound(self, monkeypatch, rows):
        # the band, not the einsum's rounding, finds the rows: half norms h
        # moved by up to (d + 1) u h, or by up to d subnormal steps where h is
        # subnormal (inside w = 2 (d + 1) (u h + eta)), leave mext exact. The
        # unit rows' norms lie within ulps of 1; the subnormal rows' squared
        # norms are (p^2 + q^2) eta, beside rows (+-1, 0, 0) that set the frame
        rng = np.random.default_rng(10)
        if rows == "unit":
            x = rng.normal(size=(1001, 10))
            x /= np.linalg.norm(x, axis=1)[:, None]
        else:
            tiny = np.hstack([np.zeros((300, 1)), np.ldexp(rng.integers(0, 40, (300, 2)), -537)])
            x = rng.permutation(np.vstack([tiny, -tiny, [[0.0, 0.0, 0.0]],
                                           [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]] * 20]))
        real, u = prep.half_sq_norms, np.finfo(float).eps / 2
        eta = np.finfo(float).smallest_subnormal

        def moved(block):
            h, d = real(block), block.shape[1]
            h *= 1.0 + rng.uniform(-1.0, 1.0, h.size) * (d + 1) * u
            return h + eta * rng.integers(-d, d + 1, h.size) * (h < 2.0 ** -1022)

        monkeypatch.setattr(prep, "half_sq_norms", moved)
        for _ in range(5):
            p = assert_mext_is_the_median_norm(x)
        assert p.e == 0 and (rows == "unit" or p.mext < 2.0 ** -511)

    def test_overflow_check_reads_the_largest_exact_norm(self, monkeypatch):
        # rows +-u times 2^1024, u unit rows shrunk by j ulps: their norms
        # lie within ulps of float64's limit, 2^1024. With half norms moved as
        # above, prepare raises if and only if the largest exact norm reaches it
        rng = np.random.default_rng(11)
        real, u = prep.half_sq_norms, np.finfo(float).eps / 2
        monkeypatch.setattr(prep, "half_sq_norms", lambda block: real(block) * (
            1.0 + rng.uniform(-1.0, 1.0, len(block)) * (block.shape[1] + 1) * u))
        outcomes = []
        for j in range(16):
            x = rng.normal(size=(200, 10))
            x *= (1.0 - j * u) / np.linalg.norm(x, axis=1)[:, None]
            x = np.vstack([x, -x])
            outcomes.append(np.linalg.norm(x - x.mean(axis=0), axis=1).max() >= 1.0)
            if outcomes[-1]:
                with pytest.raises(ValueError, match="beyond float64's range"):
                    prepare(np.ldexp(x, 1024))
            else:
                assert prepare(np.ldexp(x, 1024)).e == 1024 + math.frexp(np.abs(x).max())[1]
        assert any(outcomes) and not all(outcomes)

    def test_exact_norms_for_few_rows(self, monkeypatch):
        # the band holds the largest norm's rows and the middle ones: at most
        # 1% of the rows take an exact norm
        X, _ = make_blobs(100_000, 10, 10, 1.0, 0)
        counted, norm = [], np.linalg.norm

        def counting_norm(x, *args, **kwargs):
            if np.ndim(x) == 2:
                counted.append(len(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        p = prepare(X)
        monkeypatch.undo()
        assert 2 <= sum(counted) <= 1000, counted
        assert p.mext == float(np.median(np.linalg.norm(p.centered, axis=1)))


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

    # 2^-1000 times 5e-10 is subnormal, where scaling rounds
    @pytest.mark.parametrize("k, offset, spread", [
        pytest.param(k, offset, spread, id=f"{k}" + (f"-{offset:g}+{spread:g}x" if offset else ""))
        for offset, spread in [(0.0, 1.0), (5e-10, 1e-17), (3.0, 1e-14)]
        for k in (-1000, -500, -200, 200, 400, 1000) if (k, offset) != (-1000, 5e-10)])
    def test_powers_of_two_prepare_the_scale_one_bits(self, k, offset, spread):
        # scaling by 2^k is exact, and the frames take it out again: the
        # input's, and for rows whose spread is tiny next to their offset,
        # the centered rows' (which scale 1 takes too). In scale 1's frame
        # the rows and statistics have its bits
        x = offset + spread * np.random.default_rng(7).normal(size=(300, 4))
        base, p = prepare(x), prepare(np.ldexp(x, k))
        assert (base.e == 0) == (offset == 0.0) and p.e != base.e
        assert np.array_equal(p.v1, base.v1) and np.array_equal(p.perm, base.perm)
        back = p.e - k - base.e
        for name in ("centered", "scores", "mean"):
            assert np.array_equal(np.ldexp(getattr(p, name), back), getattr(base, name))
        assert [math.ldexp(v, back) for v in (p.mext, p.sigma1, p.sigma2)] == \
            [base.mext, base.sigma1, base.sigma2]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_spread_whose_squares_underflow_clusters_as_at_scale_one(self, seed):
        # rows [1, 2^-1000 N]: the centered rows' squares and Gram entries
        # underflow, so prepare frames the rows by their largest entry and
        # takes v1 again; in scale 1's frame everything has [1, N]'s bits
        N = np.random.default_rng(seed).normal(size=(50, 2))
        ones = np.ones((50, 1))
        x, tiny = np.hstack([ones, N]), np.hstack([ones, np.ldexp(N, -1000)])
        base, p = prepare(x), prepare(tiny)
        assert np.array_equal(p.v1, base.v1) and np.array_equal(p.perm, base.perm)
        back = p.e + 1000 - base.e
        for name in ("centered", "scores"):
            assert np.array_equal(np.ldexp(getattr(p, name), back), getattr(base, name))
        assert [math.ldexp(v, back) for v in (p.mext, p.sigma1, p.sigma2)] == \
            [base.mext, base.sigma1, base.sigma2]
        assert fit(tiny, radius=0.3).labels.tolist() == fit(x, radius=0.3).labels.tolist()

    @pytest.mark.parametrize("column, k", [(1.0, -1070), (3e9, -1074), (1e-300, -1074),
                                           (1.0, -600)])
    def test_a_spread_far_below_a_constant_column_fits_with_no_warning(self, column, k):
        # the rows' frame stops where 2^-k mean would reach 2^1022, so the
        # mean stays finite and returns to the input's units exactly; a
        # subnormal spread has lost its bits, so only 2^-600 has a reference
        N = np.random.default_rng(5).normal(size=(50, 2))
        x = np.hstack([np.full((50, 1), column), np.ldexp(N, k)])
        model = fit(x, radius=0.3)
        assert model.mean.tobytes() == x.mean(axis=0).tobytes()
        assert 0.0 < model.mext < math.inf
        assert predict(model, x).shape == (50,)
        assert to_json(from_json(to_json(model))) == to_json(model)
        if k == -600:
            reference = fit(np.hstack([np.ones((50, 1)), N]), radius=0.3)
            assert model.labels.tolist() == reference.labels.tolist()

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
            assert _median(values.copy(), 0, values.size).hex() == expected.hex()

    @pytest.mark.parametrize("values", [
        [np.inf], [1.0, np.inf], [np.inf, np.inf], [2.0, np.inf, 1.0],
        [np.inf, 1.0, np.inf, 3.0], [0.0, np.inf, np.inf, np.inf, 5e153],
        [1.3e154, 1.34e154], [1.34e154, 1.34e154, np.inf, 0.0]])
    def test_norms_that_overflow_to_inf(self, values):
        values = np.array(values)
        assert _median(values.copy(), 0, values.size).hex() == float(np.median(values)).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 101, 1000])
    def test_middle_ranks_counted_from_below(self, n):
        # the values at ranks `below` on, shuffled, with n and `below`, give
        # the median of all n, as prepare takes it from a band of rows
        rng = np.random.default_rng(n)
        values = np.sort(rng.lognormal(0.0, 3.0, n))
        expected = float(np.median(values)).hex()
        for below in sorted({0, (n - 1) // 2, (n - 1) // 4}):
            for above in sorted({0, (n + 1) // 2 - 1, n // 5}):
                part = rng.permutation(values[below:n - above])
                assert _median(part, below, n).hex() == expected

    def test_partitions_its_input_in_place(self):
        # prepare's norms are partitioned where they lie: no copy of n floats
        # at prepare's peak
        values = np.array([3.0, 1.0, 2.0, 0.5])
        assert _median(values, 0, 4) == 1.5
        assert sorted(values[:2]) == [0.5, 1.0] and sorted(values[2:]) == [2.0, 3.0]
