"""The expanded-norm kernel against direct-difference oracles, at its rounding
edges: exact ties at the threshold, subnormal and overflowing squared norms,
dimensions up to 64, and equal nearest distances far from the origin."""

import tracemalloc

import numpy as np
import pytest

from sortclust import aggregation, kernel, merging
from sortclust.aggregation import aggregate
from sortclust.kernel import half_sq_norms, nearest, within
from sortclust.merging import GroupClusterMap, density_merge, distance_merge
from sortclust.postprocess import apply_minpts, fit, predict, to_json
from sortclust.prep import PreparedData, prepare

from _oracles import (aggregate_reference, brute_force_density_edges,
                      brute_force_distance_edges, direct_nearest, direct_sq_matrix)
from test_aggregation import in_input_units

# Pythagorean offsets of length exactly 5 and 7.5 (= 1.5 * 5) in the plane.
AT_R = [(3.0, 4.0), (-4.0, 3.0), (5.0, 0.0), (0.0, -5.0), (-3.0, -4.0)]
AT_SCALE_R = [(4.5, 6.0), (-6.0, 4.5), (7.5, 0.0), (-4.5, -6.0)]


def pair_mask(pairs, shape):
    """The (m, k) mask of ``within``'s pairs, which must come in row-major
    order, each once."""
    i, j = pairs
    assert i.dtype == j.dtype == np.int64
    assert np.all(np.diff(i * shape[1] + j) > 0)
    mask = np.zeros(shape, dtype=bool)
    mask[i, j] = True
    return mask


def within_all(A, B, t):
    return pair_mask(within(A, B, t, kernel.screen(B), np.arange(B.shape[0])),
                     (A.shape[0], B.shape[0]))


def block_bound(A, B, t=0.0):
    """The bound s of one block of A against every row of B, with
    max |y|^2/2 as the screen holds it."""
    return half_sq_norms(A).max() + float(kernel.screen(B)[-1].max()) + 0.5 * t


def data_band(d, A, B, t=0.0):
    """The float32 band of a block of A against B, in half squared distance."""
    return kernel._band(d, block_bound(A, B, t), np.float32)


def by_hand(points, v1):
    """PreparedData for points taken as already centered, sorted by score
    along v1 (prepare would overflow first at the magnitudes used here)."""
    pts = np.asarray(points, dtype=np.float64)
    v1 = np.asarray(v1, dtype=np.float64)
    scores = pts @ v1
    order = np.argsort(scores, kind="stable")
    return PreparedData(centered=pts[order], mean=np.zeros(pts.shape[1]), v1=v1,
                        scores=scores[order], perm=order, sigma1=1.0, sigma2=1.0,
                        mext=1.0)


def check_stages(p, r, scale=1.5):
    """aggregate equals its direct reference; distance_merge equals brute force."""
    starts, group_of, _ = aggregate(p, r)
    starts_ref, group_of_ref, _ = aggregate_reference(p, r)
    assert np.array_equal(starts, starts_ref)
    assert np.array_equal(group_of, group_of_ref)
    edges = distance_merge(p.scores[starts], p.centered[starts], r, scale)
    assert set(map(tuple, edges.tolist())) == brute_force_distance_edges(
        p.centered[starts], r, scale)
    return starts, group_of, edges


class TestLattice:
    @pytest.mark.parametrize("offset", [0.0, 2.0 ** 20, 1e8])
    def test_exact_radius_and_scaled_radius_are_inside(self, offset):
        centre = np.full((1, 2), offset)
        ring = centre + np.array(AT_R)
        outer = centre + np.array(AT_SCALE_R)
        beyond = centre + np.array([(5.0, 1e-6), (7.5, 1e-6)])
        assert within_all(centre, ring, 25.0).all()
        assert within_all(centre, outer, 56.25).all()
        assert not within_all(centre, outer, 25.0).any()
        assert within_all(centre, beyond, 56.25).tolist() == [[True, False]]
        B = np.vstack([ring, outer, beyond])
        for t in (25.0, 56.25):
            assert np.array_equal(within_all(centre, B, t), direct_sq_matrix(centre, B) <= t)

    def test_stages_on_a_lattice_with_representable_mean(self):
        # symmetric about the origin, so the mean is exactly zero and the
        # centred rows keep their exact distances: ties at r and at 1.5 r
        half = np.array([(0.0, 0.0)] + AT_R + AT_SCALE_R + [(10.0, 0.0), (10.0, 5.0)])
        data = np.vstack([half + 20.0, -(half + 20.0)])
        p = prepare(data)
        assert np.array_equal(p.mean, np.zeros(2))
        starts, group_of, edges = check_stages(p, 5.0)
        assert edges.shape[0] > 0
        assert starts.size < p.n


class TestFloatRange:
    @pytest.mark.parametrize("scale", [1e-200, 1e-160])
    def test_subnormal_squares(self, scale):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 3)) * scale
        B = rng.normal(size=(40, 3)) * scale
        exact = direct_sq_matrix(A, B)
        for t in (0.0, float(np.median(exact)), float(exact.max())):
            assert np.array_equal(within_all(A, B, t), exact <= t)
        assert np.array_equal(nearest(A, B), direct_nearest(A, B))

    @pytest.mark.parametrize("scale", [1e-200, 1e-160])
    def test_subnormal_stages(self, scale):
        rng = np.random.default_rng(4)
        # in the input's units: prepare would frame the rows away from them
        p = in_input_units(prepare(rng.normal(size=(60, 3)) * scale))
        for radius in (0.3, 1.0):
            check_stages(p, radius * scale)

    @pytest.mark.parametrize("size", [1e155, 5e153])
    def test_overflowing_norms(self, size):
        # |x|^2 overflows to inf (1e155) or comes within a factor 2 of it
        # (5e153), while differences of size / 100 square to finite values
        rng = np.random.default_rng(5)
        d = 4
        pts = size + rng.normal(size=(50, d)) * (size / 100)
        half = half_sq_norms(pts)
        assert np.all(half > 2.0 ** 1020) and np.all(np.isinf(half) == (size > 1e154))
        p = by_hand(pts, np.full(d, 0.5))
        for r in (size / 200, size / 50):
            starts, group_of, _ = check_stages(p, r)
            assert 1 < starts.size < p.n
        A, B = pts[:10], pts[10:]
        exact = direct_sq_matrix(A, B)
        assert np.isfinite(exact).all()
        assert np.array_equal(within_all(A, B, float(np.median(exact))),
                              exact <= np.median(exact))
        assert np.array_equal(nearest(A, B), direct_nearest(A, B))


# blobs at a scale c, or offset: C + c X (see TestFrame)
FAR = [pytest.param(0.0, c, id=f"{c:g}")
       for c in (1e-200, 1e-60, 1e-30, 1e-15, 1e15, 1e30, 1e60, 1e200)] + [
    pytest.param(5e-10, 1e-17, id="5e-10+1e-17x"), pytest.param(3.0, 1e-14, id="3+1e-14x")]


class TestFrame:
    """``prepare`` frames a fit's rows by a power of two, and ``predict`` its
    starts and queries, so that their products are screened at any
    magnitude. Direct calls keep their units: blocks whose bound s leaves
    the screen's range, at about 1e-15 and 1e15 for rows near the origin,
    go to the direct formula, which decides every block exactly."""

    @pytest.mark.parametrize("offset, scale", FAR)
    def test_scaled_data_is_screened_in_float32(self, offset, scale, monkeypatch):
        # a fit (aggregate, distance merge and minPts, which moves the 27
        # groups of 30 scattered rows) and a predict at any magnitude, or
        # offset far from its spread: every product runs on a float32 or
        # float64 screen, and the direct formula re-checks at most 1% of
        # their entries. With every block sent to the direct formula the
        # model is the same, bit for bit
        rng = np.random.default_rng(21)
        centres = rng.normal(scale=4.0, size=(3, 4))
        x = np.vstack([centres[rng.integers(3, size=1500)] + rng.normal(size=(1500, 4)),
                       rng.uniform(-12.0, 12.0, size=(30, 4))])
        queries = offset + scale * (x[:200] + 0.3 * rng.normal(size=(200, 4)))

        def run():
            model = fit(offset + scale * x, radius=0.3, minpts=40)
            return model, predict(model, queries)

        (model, labels), products, rechecked = work(monkeypatch, run)
        entries = sum(a[0] * b[1] for _, _, a, b, _ in products)
        assert dtypes(products) <= {np.dtype(np.float32), np.dtype(np.float64)}
        assert 0 < rechecked <= 0.01 * entries
        monkeypatch.setattr(kernel, "_SINGLE_HIGH", 0.0)
        direct, direct_labels = run()
        assert to_json(model) == to_json(direct)
        assert np.array_equal(labels, direct_labels)

    @pytest.mark.parametrize("scale", [1e-200, 1e-165, 1e-60, 1e-30, 1e30, 1e60])
    def test_direct_calls_outside_the_range_go_to_the_direct_formula(self, scale, monkeypatch):
        # rows in their own units, far from 1: s lies outside [2^-100, 2^100),
        # so no block is multiplied and the direct formula decides every entry
        rng = np.random.default_rng(22)
        A, B = scale * rng.normal(size=(20, 4)), scale * rng.normal(size=(60, 4))
        exact = direct_sq_matrix(A, B)
        for t in (0.0, float(np.median(exact))):
            got, types, rechecked = recounted(monkeypatch, lambda: within_all(A, B, t))
            assert np.array_equal(got, exact <= t)
            assert types == set() and rechecked == exact.size
        # 8 rows against 4,096: a block large enough to screen
        B = scale * rng.normal(size=(kernel._SCREEN_ENTRIES // 8, 4))
        near, types, rechecked = recounted(monkeypatch, lambda: nearest(A[:8], B))
        assert np.array_equal(near, direct_nearest(A[:8], B))
        assert types == set() and rechecked == 8 * B.shape[0]

    def test_zero_and_subnormal_rows(self):
        # zero or subnormal rows, below the screen's range: every entry goes
        # direct
        rng = np.random.default_rng(23)
        for B in (np.zeros((30, 3)), np.ldexp(rng.integers(-8, 9, size=(30, 3)), -1074)):
            A = np.vstack([B[:5], np.zeros((1, 3))])
            exact = direct_sq_matrix(A, B)
            for t in (0.0, 5e-324, float(np.median(exact)), 1.0):
                assert np.array_equal(within_all(A, B, t), exact <= t)
            assert np.array_equal(nearest(A, B), direct_nearest(A, B))

    def test_nearest_distances_that_overflow_tie_at_inf(self, monkeypatch):
        # rows of B about -1.3e154 e_1 and queries at +1.3e154 e_1: every
        # half norm is finite, but the queries' direct distances overflow to
        # inf and tie, so the smallest index is the nearest. 8 rows against
        # 4,096 make a block large enough to screen, but s lies past 2^100
        rng = np.random.default_rng(25)
        B = [-1.3e154, 0.0, 0.0] + 1e150 * rng.normal(size=(kernel._SCREEN_ENTRIES // 8, 3))
        A = np.vstack([B[:6] + 1e150 * rng.normal(size=(6, 3)),
                       [[1.3e154, 0.0, 0.0], [1.3e154, 1e152, 0.0]]])
        assert np.isfinite(half_sq_norms(A)).all() and np.isfinite(half_sq_norms(B)).all()
        assert np.isinf(direct_sq_matrix(A[6:], B)).all()
        near, types, _ = recounted(monkeypatch, lambda: nearest(A, B))
        assert np.array_equal(near, direct_nearest(A, B)) and near[6:].tolist() == [0, 0]
        assert types == set()

    @pytest.mark.parametrize("size", [1.0, 1e-300])
    def test_queries_far_from_the_rows_of_b(self, size):
        # rows of A 1e60 and 1e200 times as large as the rows of B, and at
        # 1e300, beside rows near B: only the far rows' blocks go direct, and
        # their half norms and float32 casts overflow to inf with no warning
        rng = np.random.default_rng(24)
        B = size * rng.normal(size=(50, 3))
        for far in (size * 1e60, size * 1e200, 1e300):
            A = np.vstack([size * rng.normal(size=(4, 3)), far * rng.normal(size=(2, 3))])
            exact = direct_sq_matrix(A, B)
            for t in (1.0, far * far):
                assert np.array_equal(within_all(A, B, t), exact <= t)
            assert np.array_equal(nearest(A, B), direct_nearest(A, B))


class TestSingleBand:
    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_pairs_at_the_threshold_far_from_the_origin(self, d):
        """Rows about 1e3 from the origin and partners whose squared distance
        lies within 6 float32 ulps of t, on both sides: every such pair lies
        inside the float32 band, so the direct formula decides it.

        Catches a float32 band set to 0, or built from float64's eps in
        place of float32's: either lets the screen decide pairs that its
        rounding (float32 ulps of half norms near 5e5) puts on the wrong side.
        """
        rng = np.random.default_rng(d)
        eps32 = float(np.finfo(np.float32).eps)
        centre = rng.normal(size=d)
        A = 1e3 * centre / np.linalg.norm(centre) + rng.normal(size=(6, d))
        t = 1.7
        ulps = np.repeat(np.arange(-6, 7), 4)
        dirs = rng.normal(size=(A.shape[0], ulps.size, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        B = (A[:, None] + dirs * np.sqrt(t * (1.0 + ulps * eps32))[:, None]).reshape(-1, d)
        exact = direct_sq_matrix(A, B)
        own = exact[np.arange(A.shape[0])[:, None],
                    np.arange(B.shape[0]).reshape(A.shape[0], -1)]
        assert np.all(np.abs(own / t - 1.0) <= 7 * eps32)
        assert (own <= t).any() and (own > t).any()
        # the block is one the float32 screen covers
        s = block_bound(A, B, t)
        assert kernel._SINGLE_LOW <= s < kernel._SINGLE_HIGH
        assert np.array_equal(within_all(A, B, t), exact <= t)

    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_the_screen_is_one_fused_product(self, d, monkeypatch):
        # the pairs above go through one float32 product of the rows, each
        # with -1 in its last place, and the (d + 1)-row screen columns,
        # whose last row is the half squared norms
        products = []
        real = np.matmul

        def matmul(a, b, out=None):
            products.append((a.dtype, b.dtype, a.shape, b.shape, a[:, -1].tolist()))
            return real(a, b, out=out)

        monkeypatch.setattr(kernel.np, "matmul", matmul)
        self.test_pairs_at_the_threshold_far_from_the_origin(d)
        assert len(products) == 1
        a_type, b_type, a_shape, b_shape, last = products[0]
        assert a_type == b_type == np.float32
        assert a_shape == (6, d + 1) and b_shape == (d + 1, 6 * 13 * 4)
        assert last == [-1.0] * 6


def cast(points):
    """The screen of `points`, cast whole: the rows and their half norms,
    rounded to float32, inf beyond its range."""
    with np.errstate(over="ignore"):
        return np.vstack([points.T, half_sq_norms(points)]).astype(np.float32)


class TestScreen:
    """``kernel.screen`` against the rows and half norms, cast whole."""

    def check(self, points):
        got = kernel.screen(points)
        assert got.dtype == np.float32 and got.shape == (points.shape[1] + 1, points.shape[0])
        assert got.flags.c_contiguous
        assert got.tobytes() == cast(points).tobytes()
        return got

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("block", [60, kernel._BLOCK])
    def test_columns_across_block_boundaries(self, d, block, monkeypatch):
        # rows of magnitudes 1e-20 to 1e20: the half norms of the smallest
        # underflow in float32, those of the largest overflow to inf
        monkeypatch.setattr(kernel, "_BLOCK", block)
        step = block // (d + 1)
        rng = np.random.default_rng(d)
        for n in (1, step - 1, step, step + 1, 3 * step + 2):
            self.check(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-20, 20, size=(n, 1)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-60, 1.0, 1e60, 1e300])
    def test_rows_beyond_float32_cast_to_inf_with_no_warning(self, scale, monkeypatch):
        # the rows keep their units: past float32's range an entry and its
        # half norm cast to inf, with no warning (warnings are errors here),
        # and below it they round to zero
        monkeypatch.setattr(kernel, "_BLOCK", 12)
        points = scale * np.array([[3.0, -4.0], [1.0, 0.5], [-7.5, 2.0], [0.0, 0.0],
                                   [1e-9, 0.0]])
        got = self.check(points)
        assert np.isinf(got[:, 0]).all() == (scale > 1e38)
        assert (not got.any()) == (scale < 1e-46)

    def test_zero_subnormal_and_empty_rows(self):
        for points in (np.zeros((3, 2)), np.array([[5e-324, -1e-320], [0.0, 3e-322]]),
                       np.empty((0, 4))):
            self.check(points)
        assert not kernel.screen(np.zeros((3, 2))).any()

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-60, 1.0, 1e60, 1e150, 1e300])
    def test_screens_at_any_scale(self, scale):
        # the nearest search's screens: b32 is screen(B) bit for bit, b64 the
        # same rows and half norms unrounded, and pad window_pad(B, 0)
        rng = np.random.default_rng(7)
        self.check_screens(scale * rng.normal(size=(50, 3)))

    def test_screens_of_zero_subnormal_and_empty_rows(self):
        for points in (np.zeros((3, 2)), np.array([[5e-324, -1e-320], [0.0, 3e-322]]),
                       np.empty((0, 4))):
            self.check_screens(points)

    def check_screens(self, points):
        b32, b64, pad = kernel.screens(points)
        assert b32.dtype == np.float32 and b32.flags.c_contiguous
        assert b32.tobytes() == kernel.screen(points).tobytes()
        assert b64.dtype == np.float64 and b64.flags.c_contiguous
        assert b64.tobytes() == np.vstack([points.T, half_sq_norms(points)]).tobytes()
        assert pad == kernel.window_pad(points, 0.0)


def work(monkeypatch, call):
    """The result of `call`, its products (as `multiplied` lists them), and
    the number of pairs it decides by the direct formula."""
    rechecked, direct_sq = [], kernel._direct_sq

    def counting(A, ia, B, ib):
        rechecked.append(ia.size)
        return direct_sq(A, ia, B, ib)

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_direct_sq", counting)
        got, products = multiplied(monkeypatch, call)
    return got, products, sum(rechecked)


def recounted(monkeypatch, call):
    """The result of `call`, the dtypes of its products, and the number of
    pairs it decides by the direct formula."""
    got, products, rechecked = work(monkeypatch, call)
    return got, dtypes(products), rechecked


class TestScreenRange:
    """A block is screened when its bound s lies in [2^-100, 2^100), and s
    plus its band too; any other block goes to the direct formula, with no
    product. Blocks either side of each end decide as the direct formula
    does."""

    def far_rows(self, rng, m, d, n=40):
        """B, n rows of norm about 1, and m rows within 1e-3 of a unit vector."""
        B = rng.normal(size=(n, d))
        u = rng.normal(size=d)
        return B, u / np.linalg.norm(u) + 1e-3 * rng.normal(size=(m, d))

    def scaled_to(self, target, side, bound):
        """The factor c for which bound(c) lies 2^-10 of itself below
        (side -1) or above (side 1) `target`, where bound(c) grows as c^2."""
        c = np.sqrt(target / bound(1.0))
        c *= np.sqrt(target * (1.0 + side * 2.0 ** -10) / bound(c))
        assert (bound(c) >= target) == (side == 1)
        return c

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_within_either_side_of_two_to_the_hundred(self, d, side, monkeypatch):
        rng = np.random.default_rng(d)
        B, A0 = self.far_rows(rng, 6, d)

        def median(c):
            return float(np.median(direct_sq_matrix(c * A0, B)))

        def bound(c):
            s = block_bound(c * A0, B, median(c))
            return s + kernel._band(d, s, np.float32)

        c = self.scaled_to(kernel._SINGLE_HIGH, side, bound)
        A, t = c * A0, median(c)
        exact = direct_sq_matrix(A, B) <= t
        assert exact.any() and not exact.all()
        got, types, rechecked = recounted(monkeypatch, lambda: within_all(A, B, t))
        assert np.array_equal(got, exact)
        if side == -1:
            assert types == {np.dtype(np.float32)}
        else:
            assert types == set() and rechecked == exact.size

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_nearest_either_side_of_two_to_the_hundred(self, d, side, monkeypatch):
        # 8 rows against 4,096 columns: a block large enough to screen
        rng = np.random.default_rng(d)
        B, A0 = self.far_rows(rng, 8, d, kernel._SCREEN_ENTRIES // 8)

        def bound(c):
            s = block_bound(c * A0, B)
            return s + kernel._band(d, s, np.float32)

        A = self.scaled_to(kernel._SINGLE_HIGH, side, bound) * A0
        near, types, rechecked = recounted(monkeypatch, lambda: nearest(A, B))
        assert np.array_equal(near, direct_nearest(A, B))
        assert types == ({np.dtype(np.float32)} if side == -1 else set())
        assert rechecked == A.shape[0] * B.shape[0]

    def small_columns(self, rng, d):
        """A pool whose row 0 (norm 1) no block meets, then 4,096 rows of
        norm about 1 (8 rows against them make a block large enough to
        screen), and 8 rows of A among them."""
        pool = np.vstack([np.eye(d)[:1], rng.normal(size=(kernel._SCREEN_ENTRIES // 8, d))])
        return pool, pool[1:9] + 0.3 * rng.normal(size=(8, d))

    def shrunk(self, pool, A0, c, t0):
        """The pool with all rows but row 0 scaled by c, and the bound s of
        c A0 against those rows at threshold c^2 t0."""
        pool = np.vstack([pool[:1], c * pool[1:]])
        return pool, block_bound(c * A0, pool[1:], c * c * t0)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_within_either_side_of_two_to_the_minus_hundred(self, d, side, monkeypatch):
        rng = np.random.default_rng(d)
        pool, A0 = self.small_columns(rng, d)
        t0 = float(np.median(direct_sq_matrix(A0, pool[1:])))

        # within screens when the bound of its largest row of A reaches 2^-100
        c = self.scaled_to(kernel._SINGLE_LOW, side,
                           lambda c: self.shrunk(pool, A0, c, t0)[1])
        pool, A, t = self.shrunk(pool, A0, c, t0)[0], c * A0, c * c * t0
        b32 = kernel.screen(pool)
        rows = np.arange(1, pool.shape[0])
        exact = direct_sq_matrix(A, pool[1:]) <= t
        assert exact.any() and not exact.all()
        got, types, rechecked = recounted(
            monkeypatch, lambda: pair_mask(within(A, pool, t, b32[:, 1:], rows), exact.shape))
        assert np.array_equal(got, exact)
        if side == 1:
            assert types == {np.dtype(np.float32)} and rechecked < 0.1 * exact.size
        else:
            assert types == set() and rechecked == exact.size

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_nearest_either_side_of_two_to_the_minus_hundred(self, d, side, monkeypatch):
        rng = np.random.default_rng(d)
        pool, A0 = self.small_columns(rng, d)

        c = self.scaled_to(kernel._SINGLE_LOW, side,
                           lambda c: self.shrunk(pool, A0, c, 0.0)[1])
        pool, A = self.shrunk(pool, A0, c, 0.0)[0], c * A0
        b32, b64, _ = kernel.screens(pool)
        B = pool[1:]
        near, types, rechecked = recounted(monkeypatch, lambda: kernel._nearest(
            A, half_sq_norms(A), B, b32[:, 1:], b64[:, 1:]))
        assert np.array_equal(near, direct_nearest(A, B))
        if side == 1:
            assert types == {np.dtype(np.float32)} and rechecked < A.shape[0] * B.shape[0]
        else:
            assert types == set() and rechecked == A.shape[0] * B.shape[0]


class TestBlockBound:
    """``within`` takes one bound per column chunk, from its largest row of
    A: rows whose own bounds lie far below it are screened with its band,
    or not at all, which only sends more of their entries to the direct
    formula. Each block holds 5 rows near the 40 columns and one row whose
    bound sets the block's; the direct formula decides every pair."""

    scaled_to = TestScreenRange.scaled_to

    def check(self, monkeypatch, A, pool, first, t, types, rechecked):
        """within of A against the rows of `pool` from `first` on, against
        the direct oracle, with the dtypes of its products and the number of
        pairs it re-checks."""
        b32 = kernel.screen(pool)
        exact = direct_sq_matrix(A, pool[first:]) <= t
        assert exact.any() and not exact.all()
        got, got_types, got_rechecked = recounted(monkeypatch, lambda: pair_mask(
            within(A, pool, t, b32[:, first:], np.arange(first, pool.shape[0])), exact.shape))
        assert np.array_equal(got, exact)
        assert (got_types, got_rechecked) == (types, rechecked)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_small_rows_beside_one_row_at_two_to_the_hundred(self, d, side, monkeypatch):
        # under 2^100 the block's band, about 2^80, sends every
        # entry of the small rows to the direct formula and none of the
        # large row's; over it the direct formula decides the whole block
        rng = np.random.default_rng(d)
        B = rng.normal(size=(40, d))
        small = B[:5] + 0.3 * rng.normal(size=(5, d))
        t = float(np.median(direct_sq_matrix(small, B)))
        u = rng.normal(size=d)

        def rows(c):
            return np.vstack([small, c * u / np.linalg.norm(u)])

        def bound(c):
            s = block_bound(rows(c), B, t)
            return s + kernel._band(d, s, np.float32)

        A = rows(self.scaled_to(kernel._SINGLE_HIGH, side, bound))
        if side == -1:
            self.check(monkeypatch, A, B, 0, t, {np.dtype(np.float32)}, 5 * 40)
        else:
            self.check(monkeypatch, A, B, 0, t, set(), 6 * 40)

    @pytest.mark.parametrize("d", [2, 5])
    def test_rows_under_two_to_the_minus_hundred_beside_one_in_range(self, d, monkeypatch):
        # the columns and 5 rows of A of norm about 2^-60 (past the pool's
        # row 0) bound themselves near 2^-120, and a row of
        # norm 1 brings the block's bound into range: the block is screened,
        # and its band sends every entry of the tiny rows to the direct
        # formula and none of the row in range
        rng = np.random.default_rng(d)
        pool = np.vstack([np.eye(d)[:1], 2.0 ** -60 * rng.normal(size=(40, d))])
        tiny = pool[1:6] + 2.0 ** -60 * 0.3 * rng.normal(size=(5, d))
        t = float(np.median(direct_sq_matrix(tiny, pool[1:])))
        A = np.vstack([tiny, np.ones(d) / np.sqrt(d)])
        own = half_sq_norms(A) + float(kernel.screen(pool)[-1, 1:].max()) + 0.5 * t
        assert np.all(own[:5] < kernel._SINGLE_LOW) and own[5] > 2.0 ** -10
        self.check(monkeypatch, A, pool, 1, t, {np.dtype(np.float32)}, 5 * 40)


class TestRangeGuard:
    @pytest.mark.parametrize("scale", [1e-30, 1e-20, 1e-16, 3e-16, 1e14, 3e14, 1e20, 1e40])
    def test_stages_beyond_and_at_the_edges_of_the_float32_range(self, scale):
        # c09's samples, scaled to where s in data units would lie past the
        # float32 screen's range [2^-100, 2^100) (1e-30, 1e-20, 1e20, 1e40)
        # and to either side of its ends (1e-16 and 3e14 outside, 3e-16 and
        # 1e14 inside). The stages take them in the input's units, where
        # prepare would have framed them, and blocks outside the range go to
        # the direct formula
        rng = np.random.default_rng(109)
        for _ in range(5):
            n, d = int(rng.integers(20, 200)), int(rng.integers(1, 6))
            p = in_input_units(prepare(scale * rng.normal(0.0, 2.0, size=(n, d))))
            r = 0.35 * p.mext
            starts, _, _ = check_stages(p, r)
            edges = density_merge(starts, p, r)
            assert set(map(tuple, edges.tolist())) == brute_force_density_edges(
                p.centered, p.centered[starts], r, d)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_few_entries_go_to_the_direct_formula(self, scale, monkeypatch):
        # direct calls inside the screen's range are screened with a band
        # relative to their own magnitude (far ones go through prepare's
        # frame: TestFrame)
        rechecked, direct_sq = [], kernel._direct_sq

        def counting(A, ia, B, ib):
            rechecked.append(ia.size)
            return direct_sq(A, ia, B, ib)

        monkeypatch.setattr(kernel, "_direct_sq", counting)
        rng = np.random.default_rng(7)
        A, B = scale * rng.normal(size=(100, 4)), scale * rng.normal(size=(200, 4))
        exact = direct_sq_matrix(A, B)
        t = float(np.median(exact))
        assert np.array_equal(within_all(A, B, t), exact <= t)
        assert sum(rechecked) <= 0.001 * exact.size

    def test_rows_beyond_the_range_beside_rows_within_it(self):
        # one row 3e25 from the others: blocks with it lie beyond the
        # screen's range, so the direct formula decides them
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 3))
        pts[17] = [3e25, -1e25, 2e25]
        p = by_hand(pts, np.array([0.6, 0.0, 0.8]))
        for r in (0.2, 0.6):
            starts, _, _ = check_stages(p, r)
            edges = density_merge(starts, p, r)
            assert set(map(tuple, edges.tolist())) == brute_force_density_edges(
                p.centered, p.centered[starts], r, 3)
        # blocks holding that row, whose float32 half norm is inf
        A, B = pts[:20], pts[20:]
        exact = direct_sq_matrix(A, B)
        assert np.array_equal(within_all(A, B, 1.0), exact <= 1.0)
        assert np.array_equal(within_all(B, A, 1.0), exact.T <= 1.0)


class TestDimensions:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_within_and_nearest(self, d):
        rng = np.random.default_rng(d)
        shift = rng.uniform(-50.0, 50.0, size=d)
        A = shift + rng.normal(size=(15, d))
        B = shift + rng.normal(size=(70, d))
        exact = direct_sq_matrix(A, B)
        # thresholds at exact pair values, so some pairs tie with t
        for t in np.quantile(exact, [0.0, 0.1, 0.5], method="lower"):
            assert np.array_equal(within_all(A, B, float(t)), exact <= t)
        assert np.array_equal(nearest(A, B), direct_nearest(A, B))

    @pytest.mark.parametrize("d", [16, 64])
    def test_stages(self, d):
        rng = np.random.default_rng(d)
        p = prepare(rng.normal(size=(150, d)))
        for radius in (0.5, 0.9):
            check_stages(p, radius * p.mext)


class TestNearestTies:
    @pytest.mark.parametrize("block", [1 << 15, kernel._BLOCK, 2])
    def test_equal_distances_far_from_origin_go_to_the_smallest_index(self, block,
                                                                        monkeypatch):
        # with block 2 the tied rows fall into different column chunks
        monkeypatch.setattr(kernel, "_BLOCK", block)
        centre = np.array([[1e8, -1e8]])
        # a farther row first, then the tied ring in shuffled index order
        B = np.vstack([centre + (6.0, 0.0), centre + np.array(AT_R)[[2, 0, 4, 1, 3]]])
        assert np.all(direct_sq_matrix(centre, B)[0, 1:] == 25.0)
        assert nearest(centre, B).tolist() == [1] == direct_nearest(centre, B).tolist()

    def test_minpts_reassigns_to_the_smallest_tied_group(self):
        # groups in score order along x; group 3 is a small cluster, groups
        # 1, 2, 4, 5 and 6 are eligible clusters exactly 5 away from it and
        # group 0 is eligible and farther
        centre = np.array([1e8, -1e8])
        offsets = np.array([(-6.0, 0.0), (-4.0, 3.0), (-3.0, -4.0), (0.0, 0.0),
                            (0.0, -5.0), (3.0, 4.0), (5.0, 0.0)])
        starting_points = centre + offsets
        scores = starting_points[:, 0]
        sizes = np.array([5, 6, 7, 1, 8, 9, 10])
        cluster_map = GroupClusterMap(cluster_of_group=np.arange(7), sizes=sizes)
        out = apply_minpts(cluster_map, sizes, starting_points, scores, 3)
        # group 3 joins the cluster of group 1, the smallest tied index
        assert out.cluster_of_group[3] == out.cluster_of_group[1]
        assert out.sizes.tolist() == [10, 9, 8, 7, 7, 5]


def multiplied(monkeypatch, call):
    """The result of `call`, and each np.matmul it makes: the dtypes and
    shapes of both factors and the last column of the first."""
    products, real = [], np.matmul

    def matmul(a, b, out=None):
        products.append((a.dtype, b.dtype, a.shape, b.shape, a[:, -1].tolist()))
        return real(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(kernel.np, "matmul", matmul)
        got = call()
    return got, products


def dtypes(products) -> set:
    return {t for a, b, *_ in products for t in (a, b)}


def fillers(A, count, spread, gap, rng):
    """`count` rows about the mean of A, each farther than `gap` from every row of A."""
    out = np.empty((0, A.shape[1]))
    while out.shape[0] < count:
        rows = A.mean(axis=0) + spread * rng.normal(size=(2 * count, A.shape[1]))
        out = np.vstack([out, rows[direct_sq_matrix(A, rows).min(axis=0) > gap ** 2]])
    return out[:count]


class TestNearestScreen:
    """Blocks of the nearest search with at least ``_SCREEN_ENTRIES`` product
    entries, whose s lies in [2^-100, 2^100), are screened by one float32
    product; every row whose runner-up lies within twice the float32 band of
    its lead goes to the direct formula. Smaller blocks are screened in
    float64."""

    COLS = kernel._SCREEN_ENTRIES // 8    # 8 rows of A fill one screened block

    @pytest.mark.parametrize("norm", [1e3, 1e6])
    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_near_ties_far_from_the_origin(self, norm, d, monkeypatch):
        """Each row of A has two rows of B whose squared distances lie within
        6 float32 ulps of 1.7, far inside the float32 band at this distance
        from the origin; the others are farther than 3. The nearer of the
        two is the one the direct formula picks, at whichever index.

        Catches a band set to 0 or built from float64's eps, and a screen
        with 0 for the -1 in the rows' last column.
        """
        rng = np.random.default_rng(d)
        eps32 = float(np.finfo(np.float32).eps)
        centre = rng.normal(size=d)
        A = norm * centre / np.linalg.norm(centre) + 25.0 * rng.normal(size=(8, d))
        dirs = rng.normal(size=(8, 2, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        ulps = rng.choice(np.arange(-6, 7), size=(8, 2), replace=True)
        pairs = (A[:, None] + dirs * np.sqrt(1.7 * (1.0 + ulps * eps32))[..., None]).reshape(-1, d)
        B = np.vstack([pairs, fillers(A, self.COLS - pairs.shape[0], 60.0, 10.0, rng)])
        B = B[rng.permutation(B.shape[0])]
        exact = np.sort(direct_sq_matrix(A, B), axis=1)
        gap = 0.5 * (exact[:, 1] - exact[:, 0])
        assert np.all(exact[:, 1] < 1.8) and np.all(exact[:, 2] > 9.0)
        assert np.all(gap < data_band(d, A, B))
        near, products = multiplied(monkeypatch, lambda: nearest(A, B))
        assert np.array_equal(near, direct_nearest(A, B))
        # one fused product of the rows, each with -1 last, and the screen
        assert len(products) == 1
        a_type, b_type, a_shape, b_shape, last = products[0]
        assert a_type == b_type == np.float32
        assert a_shape == (8, d + 1) and b_shape == (d + 1, self.COLS)
        assert last == [-1.0] * 8

    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_near_ties_in_a_small_block_are_screened_in_float64(self, d, monkeypatch):
        """The construction above against 512 rows of B, a block under
        ``_SCREEN_ENTRIES``: the two candidates of each row lie 4 to 12
        float32 ulps apart, inside the float32 band but more than twice the
        float64 band apart. One float64 product decides every row, with no
        re-check.

        Catches float32's eps in a float64 block's band, and 0 for the -1 in
        the last column of the float64 rows.
        """
        rng = np.random.default_rng(d)
        eps32 = float(np.finfo(np.float32).eps)
        centre = rng.normal(size=d)
        A = 1e3 * centre / np.linalg.norm(centre) + 25.0 * rng.normal(size=(8, d))
        dirs = rng.normal(size=(8, 2, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        ulps = np.stack([rng.integers(-6, -1, 8), rng.integers(2, 7, 8)], axis=1)
        pairs = (A[:, None] + dirs * np.sqrt(1.7 * (1.0 + ulps * eps32))[..., None]).reshape(-1, d)
        cols = self.COLS // 8
        B = np.vstack([pairs, fillers(A, cols - pairs.shape[0], 60.0, 10.0, rng)])
        B = B[rng.permutation(B.shape[0])]
        exact = np.sort(direct_sq_matrix(A, B), axis=1)
        gap = 0.5 * (exact[:, 1] - exact[:, 0])
        assert np.all(exact[:, 1] < 1.8) and np.all(exact[:, 2] > 9.0)
        s = block_bound(A, B)
        assert np.all(gap < data_band(d, A, B))
        assert np.all(gap > 2.0 * kernel._band(d, s, np.float64))
        near, types, rechecked = recounted(monkeypatch, lambda: nearest(A, B))
        assert np.array_equal(near, direct_nearest(A, B))
        assert types == {np.dtype(np.float64)} and rechecked == 0
        # one product of the rows, each with -1 last, and the screen
        near, products = multiplied(monkeypatch, lambda: nearest(A, B))
        assert len(products) == 1
        a_type, b_type, a_shape, b_shape, last = products[0]
        assert a_shape == (8, d + 1) and b_shape == (d + 1, cols)
        assert last == [-1.0] * 8

    @pytest.mark.parametrize("d", [2, 10])
    def test_runners_up_within_twice_the_band_go_to_the_direct_formula(self, d,
                                                                        monkeypatch):
        """Rows 0-3 have a runner-up whose half squared distance exceeds the
        lead's by 1.5 float32 bands, rows 4-7 by 3 bands; every other row of
        B is 4 bands or more beyond. The screen errs by under half a band, so
        rows 0-3, and only they, go to the direct formula.

        Catches a margin of one band in place of two.
        """
        rng = np.random.default_rng(d)
        centre = rng.normal(size=d)
        A = 1e3 * centre / np.linalg.norm(centre) + 50.0 * rng.normal(size=(8, d))
        far = fillers(A, self.COLS - 16, 100.0, 20.0, rng)
        band = data_band(d, A, far)
        assert 1.0 + 8.0 * band < 20.0 ** 2
        dirs = rng.normal(size=(8, 2, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        margin = np.repeat([1.5, 3.0], 4)
        reach = np.sqrt(np.stack([np.ones(8), 1.0 + 2.0 * margin * band], axis=1))
        B = np.vstack([(A[:, None] + dirs * reach[..., None]).reshape(-1, d), far])
        order = rng.permutation(B.shape[0])
        B = B[order]
        assert data_band(d, A, B) == band
        rechecked, direct_sq = [], kernel._direct_sq

        def recording(A, ia, B, ib):
            rechecked.extend(ia.tolist())
            return direct_sq(A, ia, B, ib)

        monkeypatch.setattr(kernel, "_direct_sq", recording)
        near = nearest(A, B)
        assert np.array_equal(near, direct_nearest(A, B))
        assert np.array_equal(order[near], 2 * np.arange(8))
        assert sorted(set(rechecked)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("rows, cols, screened", [
        (8, COLS - 1, []), (8, COLS, [8]), (1, 8 * COLS - 1, []), (1, 8 * COLS, [1]),
        # 32 rows fill the budget against 4,096 columns; the 33rd goes alone
        (33, COLS, [32])])
    def test_blocks_either_side_of_the_screened_size(self, rows, cols, screened,
                                                     monkeypatch):
        rng = np.random.default_rng(rows + cols)
        A, B = rng.normal(size=(rows, 3)), 1.5 * rng.normal(size=(cols, 3))
        near, products = multiplied(monkeypatch, lambda: nearest(A, B))
        assert np.array_equal(near, direct_nearest(A, B))
        assert [a_shape[0] for a_type, _, a_shape, *_ in products
                if a_type == np.float32] == screened
        assert len(products) == -(-rows // (kernel._BLOCK // cols))


def scored(points, v1):
    """Rows sorted by their score along the unit vector v1, and the scores."""
    scores = np.asarray(points) @ np.asarray(v1, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    return np.asarray(points)[order], scores[order]


class TestNearestByScore:
    """The score-windowed search gives the index of the dense search."""

    @pytest.fixture(autouse=True)
    def windows(self, monkeypatch):
        monkeypatch.setattr(kernel, "_by_score", lambda rows_a, rows_b: True)

    def check(self, A, score_a, B, score_b):
        got = nearest(A, B, score_a, score_b)
        assert np.array_equal(got, direct_nearest(A, B))
        assert np.array_equal(got, nearest(A, B))

    @pytest.mark.parametrize("block", [2, 7, 64, 1 << 15, kernel._BLOCK])
    @pytest.mark.parametrize("neighbours", [1, 4, kernel._SCORE_NEIGHBOURS])
    def test_random_rows(self, block, neighbours, monkeypatch):
        monkeypatch.setattr(kernel, "_BLOCK", block)
        monkeypatch.setattr(kernel, "_SCORE_NEIGHBOURS", neighbours)
        rng = np.random.default_rng(block + neighbours)
        for d in (1, 3, 10):
            v1 = rng.normal(size=d)
            v1 /= np.linalg.norm(v1)
            A, sa = scored(rng.normal(size=(40, d)), v1)
            B, sb = scored(rng.normal(size=(300, d)) * 1.5, v1)
            self.check(A, sa, B, sb)

    @pytest.mark.parametrize("block", [2, 7, 1 << 15, kernel._BLOCK])
    @pytest.mark.parametrize("neighbours", [1, 2, kernel._SCORE_NEIGHBOURS])
    def test_equal_distances_far_from_the_origin(self, block, neighbours, monkeypatch):
        # each row of A has four rows of B exactly 5 away, in separate parts
        # of the score range, and farther rows between them in score; small
        # budgets and few score neighbours put the tied rows into different
        # windows and blocks
        monkeypatch.setattr(kernel, "_BLOCK", block)
        monkeypatch.setattr(kernel, "_SCORE_NEIGHBOURS", neighbours)
        centres = np.array([(1e8 + 40.0 * k, -1e8) for k in range(3)])
        ring = np.array(AT_R[:4])
        filler = np.array([(-1.0, 9.0), (1.0, -9.0), (2.0, 8.5), (4.5, -8.0)])
        B, sb = scored(np.vstack([c + ring for c in centres] + [c + filler for c in centres]),
                       [1.0, 0.0])
        A, sa = scored(centres, [1.0, 0.0])
        assert np.all(np.sort(direct_sq_matrix(A, B), axis=1)[:, :4] == 25.0)
        self.check(A, sa, B, sb)

    def test_fewer_eligible_rows_than_neighbours(self):
        rng = np.random.default_rng(11)
        A, sa = scored(rng.normal(size=(25, 4)), np.eye(4)[0])
        B, sb = scored(rng.normal(size=(kernel._SCORE_NEIGHBOURS // 4, 4)), np.eye(4)[0])
        self.check(A, sa, B, sb)

    def test_rows_scored_beyond_every_eligible_score(self):
        rng = np.random.default_rng(12)
        v1 = np.array([0.6, 0.8])
        B, sb = scored(rng.normal(size=(200, 2)), v1)
        high, s_high = scored(rng.normal(size=(30, 2)) + 10.0 * v1, v1)
        low, s_low = scored(rng.normal(size=(30, 2)) - 10.0 * v1, v1)
        assert s_high.min() > sb.max() and s_low.max() < sb.min()
        self.check(high, s_high, B, sb)
        self.check(low, s_low, B, sb)
        self.check(np.vstack([low, high]), np.concatenate([s_low, s_high]), B, sb)

    def test_row_at_the_bound_past_the_unpadded_window(self):
        # both rows lie on the score direction; the score of B exceeds the
        # score of A plus their direct distance by rounding, so only the
        # padded window keeps the one row of B
        v1 = np.array([0.6, 0.8])
        v1 /= np.linalg.norm(v1)
        A = np.array([[-1.3760354082967188, -1.8347138777289584]])
        B = np.array([[0.5662734181497775, 0.7550312241997035]])
        gap = np.sqrt(direct_sq_matrix(A, B)[0, 0])
        assert (A @ v1)[0] + gap < (B @ v1)[0]
        assert nearest(A, B, A @ v1, B @ v1).tolist() == [0]

    def test_single_eligible_row(self):
        rng = np.random.default_rng(13)
        A, sa = scored(rng.normal(size=(50, 3)), np.eye(3)[2])
        B = np.array([[0.5, -0.5, 3.0]])
        assert nearest(A, B, sa, B[:, 2]).tolist() == [0] * 50


def test_nearest_of_no_rows():
    out = nearest(np.empty((0, 3)), np.ones((4, 3)))
    assert out.dtype == np.int64 and out.shape == (0,)


def test_windows_from_4096_rows_of_b():
    # a bound-step distance costs about 64 float32-screened entries, so the
    # windows need 2 * 32 * 64 rows of B, and four blocks of entries
    assert kernel._BOUND_COST == 64
    assert not kernel._by_score(1_000, 4_095)
    assert kernel._by_score(1_000, 4_096)
    assert not kernel._by_score(4 * kernel._BLOCK // 4_096 - 1, 4_096)
    assert kernel._by_score(4 * kernel._BLOCK // 4_096, 4_096)


def test_nearest_in_no_rows_of_b(monkeypatch):
    # the nearest row of B needs one: a ValueError naming B, for both searches
    X = np.ones((2, 3))
    with pytest.raises(ValueError, match="B has no rows"):
        nearest(X, np.empty((0, 3)))
    monkeypatch.setattr(kernel, "_by_score", lambda rows_a, rows_b: True)
    with pytest.raises(ValueError, match="B has no rows"):
        nearest(X, np.empty((0, 3)), X[:, 0], np.empty(0))


class TestSmallBlocks:
    def test_blocks_and_chunks_give_the_same_results(self, monkeypatch):
        rng = np.random.default_rng(8)
        p = prepare(rng.normal(size=(300, 3)))
        r = 0.4 * p.mext
        before = check_stages(p, r)
        A, B = p.centered[:40], p.centered[40:]
        near = nearest(A, B)
        monkeypatch.setattr(kernel, "_BLOCK", 7)
        monkeypatch.setattr(aggregation, "_BLOCK", 7)
        after = check_stages(p, r)
        assert all(np.array_equal(x, y) for x, y in zip(before[:2], after[:2]))
        assert np.array_equal(before[2], after[2])
        assert np.array_equal(nearest(A, B), near)
        assert np.array_equal(near, direct_nearest(A, B))


def direct_pairs(A, B, t, cols=None):
    """np.nonzero of the direct formula's mask of |B[j] - A[i]|^2 <= t, and
    cols[j] if given: the pairs in row-major order."""
    mask = direct_sq_matrix(A, B) <= t
    return np.nonzero(mask if cols is None else mask & cols)


class TestPairs:
    """``within`` returns its hits as index pairs, np.nonzero of the
    direct formula's mask, in row-major order, masked by its columns."""

    def call(self, A, B, t, cols=None):
        b32 = kernel.screen(B)
        return within(A, B, t, b32, np.arange(B.shape[0]), cols)

    def check(self, got, want):
        assert all(side.dtype == np.int64 for side in got)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def data(self, seed, m, k=40, d=3, scale=1.0):
        rng = np.random.default_rng(seed)
        A, B = scale * rng.normal(size=(m, d)), scale * rng.normal(size=(k, d))
        return A, B, float(np.median(direct_sq_matrix(A, B))), rng.random(k) < 0.6

    def test_no_columns(self):
        self.check(self.call(np.ones((3, 2)), np.empty((0, 2)), 1.0),
                   (np.empty(0, np.int64), np.empty(0, np.int64)))

    def test_one_row(self):
        A, B, t, cols = self.data(1, 1)
        self.check(self.call(A, B, t), direct_pairs(A, B, t))
        self.check(self.call(A, B, t, cols), direct_pairs(A, B, t, cols))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_column_chunks_come_back_in_row_major_order(self, m, monkeypatch):
        # a budget of 7 entries: chunks of 3, 2 and 1 columns
        monkeypatch.setattr(kernel, "_BLOCK", 7)
        shapes = recorded_chunks(monkeypatch)
        A, B, t, cols = self.data(m, m)
        self.check(self.call(A, B, t), direct_pairs(A, B, t))
        self.check(self.call(A, B, t, cols), direct_pairs(A, B, t, cols))
        assert len(shapes) == 2 * -(-B.shape[0] // (7 // m))

    def test_column_mask(self):
        A, B, t, cols = self.data(4, 30, k=200, d=5)
        self.check(self.call(A, B, t, cols), direct_pairs(A, B, t, cols))
        self.check(self.call(A, B, t, np.zeros(200, bool)), direct_pairs(A, B, -1.0))

    @pytest.mark.parametrize("scale", [1e-200, 1e-165])
    def test_out_of_range_blocks_recheck_only_the_masked_columns(self, scale, monkeypatch):
        # the direct formula decides every entry, of the columns the mask keeps
        A, B, t, cols = self.data(5, 6, scale=scale)
        got, _, rechecked = recounted(monkeypatch, lambda: self.call(A, B, t))
        self.check(got, direct_pairs(A, B, t))
        assert rechecked == A.shape[0] * B.shape[0]
        got, _, rechecked = recounted(monkeypatch, lambda: self.call(A, B, t, cols))
        self.check(got, direct_pairs(A, B, t, cols))
        assert rechecked == A.shape[0] * int(cols.sum())


def recorded_chunks(monkeypatch) -> list:
    """The (rows, columns) of each product of the kernel: of ``within``, one
    per column chunk."""
    shapes, real = [], kernel._product

    def recording(*args):
        h, band = real(*args)
        shapes.append(h.shape)
        return h, band

    monkeypatch.setattr(kernel, "_product", recording)
    return shapes


class TestColumnChunks:
    def test_empty_window(self):
        out = within_all(np.ones((3, 2)), np.empty((0, 2)), 1.0)
        assert out.dtype == bool and out.shape == (3, 0)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e40])
    def test_windows_wider_than_the_budget(self, m, scale, monkeypatch):
        # 40 columns against a budget of 7 entries: chunks of 7 columns for
        # one row, of 2 for three; at 1e40 they go to the direct formula
        monkeypatch.setattr(kernel, "_BLOCK", 7)
        shapes = recorded_chunks(monkeypatch)
        rng = np.random.default_rng(m)
        A, pool = scale * rng.normal(size=(m, 3)), scale * rng.normal(size=(60, 3))
        rows = rng.permutation(60)[:40]
        B = pool[rows]
        exact = direct_sq_matrix(A, B)
        t = float(np.median(exact))
        assert np.array_equal(within_all(A, B, t), exact <= t)
        b32 = kernel.screen(pool)
        gathered = pair_mask(within(A, pool, t, b32[:, rows], rows), exact.shape)
        assert np.array_equal(gathered, exact <= t)
        assert len(shapes) > 2 and all(r * k <= 7 for r, k in shapes)
        assert sum(k for _, k in shapes) == 2 * B.shape[0]


class TestWindowBlocks:
    def blocks(self, los, his):
        return [(rows.start, rows.stop, lo, hi)
                for rows, lo, hi in kernel.window_blocks(np.array(los), np.array(his))]

    def test_blocks_fill_the_budget_when_windows_do_not_widen(self, monkeypatch):
        # 1,000 rows sharing one window of 10 columns: 100 rows per block,
        # far more than the square root of the budget
        monkeypatch.setattr(kernel, "_BLOCK", 1000)
        got = self.blocks([5] * 1000, [15] * 1000)
        assert got == [(a, a + 100, 5, 15) for a in range(0, 1000, 100)]

    def test_hull_of_windows_that_are_not_monotone(self, monkeypatch):
        monkeypatch.setattr(kernel, "_BLOCK", 12)
        # rows 0-1 span [2, 6), 4 columns; row 2 would widen it to [0, 6)
        assert self.blocks([2, 3, 0, 1], [5, 6, 3, 4]) == [(0, 2, 2, 6), (2, 4, 0, 4)]

    def test_a_row_wider_than_the_budget_goes_alone(self, monkeypatch):
        monkeypatch.setattr(kernel, "_BLOCK", 8)
        assert self.blocks([0, 1, 1], [20, 3, 4]) == [(0, 1, 0, 20), (1, 3, 1, 4)]

    def test_empty_windows_stay_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(kernel, "_BLOCK", 16)
        assert self.blocks([3] * 40, [3] * 40) == [(0, 16, 3, 3), (16, 32, 3, 3), (32, 40, 3, 3)]


def sweep_rule(widths):
    """The block size that aggregate's sweep computed inline, with no floor
    of one column on the widths."""
    cost = widths * np.arange(1, widths.size + 1)
    return max(1, int(np.searchsorted(cost, kernel._BLOCK, side="right")))


class TestBlockRows:
    BLOCK = kernel._BLOCK

    @pytest.mark.parametrize("widths, m", [
        ([0, 0, 0, 5, 100, 1_000, 20_000, 40_000], 6),
        # 4 rows of 32,768 columns land exactly on the budget; 32,769 pass it
        ([10, 100, 1_000, BLOCK // 4, BLOCK // 4], 4),
        ([10, 100, 1_000, BLOCK // 4 + 1], 3),
        # a first window alone over the budget is a block of its own
        ([BLOCK + 1, BLOCK + 5], 1),
        ([BLOCK, BLOCK], 1),
        ([0] * 40, 40),
    ])
    def test_cases_match_the_sweep_rule(self, widths, m):
        widths = np.array(widths)
        assert kernel.block_rows(widths) == sweep_rule(widths) == m

    def test_random_widths_match_the_sweep_rule(self):
        # the sweep passes at most _SPAN widths, fewer than the budget's
        # entries, so a zero width costs a column without changing m
        assert kernel._SPAN < kernel._BLOCK
        rng = np.random.default_rng(2)
        for _ in range(300):
            size = int(rng.integers(1, kernel._SPAN + 1))
            top = int(rng.choice([10, 1_000, 2 * kernel._BLOCK // size + 1]))
            widths = np.sort(np.maximum(rng.integers(-top // 4, top, size=size), 0))
            assert kernel.block_rows(widths) == sweep_rule(widths)


class TestBudget:
    @pytest.mark.parametrize("block", [7, 300, 1 << 15, kernel._BLOCK])
    def test_products_stay_within_the_block_budget(self, block, monkeypatch):
        # a row whose window alone exceeds the budget goes alone, and the
        # kernel splits its columns: every product holds the budget
        shapes = recorded_chunks(monkeypatch)
        real_matmul = np.matmul
        singles = []

        def matmul(a, b, out=None):
            # every product, the kernel's again, with the float32 ones apart
            product = real_matmul(a, b, out=out)
            shapes.append(product.shape)
            if product.dtype == np.float32:
                singles.append(product.shape)
            return product

        monkeypatch.setattr(kernel, "_BLOCK", block)
        monkeypatch.setattr(aggregation, "_BLOCK", block)
        monkeypatch.setattr(kernel.np, "matmul", matmul)
        monkeypatch.setattr(merging, "_BLOCK", block)
        rng = np.random.default_rng(block)
        p = prepare(rng.normal(size=(400, 3)))
        starts, _, _ = aggregate(p, 0.15 * p.mext)
        assert 20 < starts.size < 400
        pts, scores = p.centered[starts], p.scores[starts]
        with monkeypatch.context() as windows:
            windows.setattr(kernel, "_by_score", lambda rows_a, rows_b: True)
            nearest(pts[::3], pts[1::3], scores[::3], scores[1::3])
        before = len(shapes)
        density_merge(starts, p, 0.15 * p.mext)
        assert len(shapes) > before
        before = len(shapes)
        model = fit(p.centered, radius=0.15)
        queries = rng.normal(size=(2 * block // model.num_groups + 5, 3))
        labels = predict(model, queries)
        # a predict call spans more entries than the budget
        assert queries.shape[0] * model.num_groups > block and len(shapes) > before
        before = len(shapes)
        monkeypatch.setattr(kernel, "_by_score", lambda queries, starts: True)
        assert np.array_equal(predict(model, queries), labels)
        assert len(shapes) > before
        assert shapes and all(m * k <= block for m, k in shapes)
        assert any(m > 1 for m, _ in shapes)
        assert any(m > 1 for m, _ in singles)

    def test_compaction_moves_rows_within_the_budget(self, monkeypatch):
        # zones of thousands of free rows against a budget of 4,096 entries
        # (32 kB): the rows move a chunk at a time, and all that one
        # compaction holds at once fits the budget
        block = 1 << 12
        monkeypatch.setattr(aggregation, "_BLOCK", block)
        zones, peaks = [], []
        real = aggregation._compact

        def measured(layout, free, lo, hi):
            zones.append(int(np.count_nonzero(free[lo:hi])))
            tracemalloc.start()
            try:
                out = real(layout, free, lo, hi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(aggregation, "_compact", measured)
        rng = np.random.default_rng(5)
        centres = rng.normal(scale=4.0, size=(3, 3))
        p = prepare(centres[rng.integers(3, size=60_000)] + rng.normal(size=(60_000, 3)))
        starts, group_of, _ = aggregate(p, 0.4 * p.mext)
        # moved at once, a zone's free rows (an 8-byte index and a 12-byte
        # float32 row each) would exceed the budget
        assert max(zones) * 20 > 8 * block
        assert max(peaks) <= 8 * block
        oracle = aggregate_reference(p, 0.4 * p.mext)
        assert np.array_equal(starts, oracle[0]) and np.array_equal(group_of, oracle[1])

