import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sortclust import aggregation, kernel
from sortclust.aggregation import aggregate
from sortclust.kernel import window_pad
from sortclust.postprocess import fit
from sortclust.prep import PreparedData, prepare

from _oracles import aggregate_reference, brute_force_groups, windowed_dist_count

BAD_RADII = (True, 0.0, -1.0, float("nan"), float("inf"), "0.5")


def value_error(fn, *args, **kwargs) -> str:
    """The message of the ValueError that `fn(*args, **kwargs)` raises."""
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def prepared_1d(values):
    """PreparedData for already-sorted 1-D points with v1 = [1]."""
    pts = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PreparedData(centered=pts, mean=np.zeros(1), v1=np.ones(1),
                        scores=pts[:, 0], perm=np.arange(len(values)),
                        sigma1=1.0, sigma2=0.0, mext=1.0)


def prepared_raw(points, v1):
    """PreparedData wrapping points assumed already sorted by score along v1."""
    pts = np.asarray(points, dtype=np.float64)
    scores = pts @ np.asarray(v1, dtype=np.float64)
    assert np.all(np.diff(scores) >= 0.0)
    return PreparedData(centered=pts, mean=np.zeros(pts.shape[1]),
                        v1=np.asarray(v1, dtype=np.float64), scores=scores,
                        perm=np.arange(len(pts)), sigma1=1.0, sigma2=1.0, mext=1.0)


def in_input_units(p):
    """`p` with its rows, scores and statistics scaled back from prepare's frame
    to the input's units (exact where they stay normal), so that the stages
    meet the input's magnitudes themselves."""
    back = {name: np.ldexp(getattr(p, name), p.e)
            for name in ("centered", "mean", "scores", "sigma1", "sigma2", "mext")}
    return replace(p, **back, e=0)


def members(group_of):
    """Ascending member rows of each group, in group-id order."""
    return [np.nonzero(group_of == g)[0].tolist() for g in range(group_of.max() + 1)]


class TestAggregate:
    def test_one_dimensional_hand_trace(self):
        starts, group_of, dist_count = aggregate(prepared_1d([0.0, 0.5, 1.1, 5.0]), 0.6)
        assert members(group_of) == [[0, 1], [2], [3]]
        assert starts.tolist() == [0, 2, 3]
        assert dist_count == 1

    def test_radius_beyond_diameter_gives_one_group(self):
        rng = np.random.default_rng(1)
        p = prepare(rng.normal(size=(30, 3)))
        starts, group_of, _ = aggregate(p, 1e6)
        assert starts.tolist() == [0]
        assert group_of.tolist() == [0] * 30

    def test_non_contiguous_membership(self):
        # the middle point passes the score window but fails the distance test
        p = prepared_raw([[0.0, 0.0], [0.5, 0.9], [0.6, 0.0]], [1.0, 0.0])
        _, group_of, dist_count = aggregate(p, 0.7)
        assert members(group_of) == [[0, 2], [1]]
        assert dist_count == 2

    def test_boundary_distance_is_inside(self):
        _, group_of, _ = aggregate(prepared_1d([0.0, 0.7]), 0.7)
        assert members(group_of) == [[0, 1]]

    def test_point_at_radius_past_the_unpadded_window(self):
        # the second point is within r of the first by the direct formula, but
        # s_0 + r rounds below its score: only the padded window keeps it
        p = prepare(np.array([[-2.1676199894367754], [0.5141756313771225],
                              [1.653444358059653]]))
        r = 2.6817956208138978
        _, group_of, _ = aggregate(p, r)
        _, group_of_ref, _ = aggregate_reference(p, r)
        assert group_of.tolist() == group_of_ref.tolist() == [0, 0, 1]

    def test_invalid_radius(self):
        p = prepared_1d([0.0, 1.0])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                aggregate(p, bad)

    def test_radius_follows_the_rule_of_fit(self):
        # a finite positive real, no boolean; numpy scalars run as the float
        p = prepared_1d([0.0, 0.2, 0.5, 1.0, 1.3])
        for bad in BAD_RADII:
            assert value_error(aggregate, p, bad) == value_error(fit, [[0.0]], radius=bad)
        got = aggregate(p, np.float32(0.3))
        want = aggregate(p, float(np.float32(0.3)))
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2])) and got[2] == want[2]

    def test_stats_average(self):
        # the per-point average lives on the model: aggregation count over n
        data = [[0.0], [0.5], [1.1], [5.0]]
        model = fit(data, radius=0.6)
        _, _, dist_count = aggregate(prepare(data), model.r)
        assert model.dist_count == dist_count
        assert model.avg_dist_pp == dist_count / 4.0


class TestAggregateReference:
    def test_full_scan_count(self):
        _, group_of, dist_count = aggregate_reference(prepared_1d([0.0, 0.5, 1.1, 5.0]), 0.6)
        assert members(group_of) == [[0, 1], [2], [3]]
        # first start checks its 3 successors, the second checks 1, the third none
        assert dist_count == 4

    def test_same_partition_as_pruned(self):
        rng = np.random.default_rng(7)
        p = prepare(rng.normal(size=(200, 5)))
        for radius in (0.1, 0.5, 2.0):
            s_fast, g_fast, c_fast = aggregate(p, radius)
            s_ref, g_ref, c_ref = aggregate_reference(p, radius)
            assert np.array_equal(s_fast, s_ref) and np.array_equal(g_fast, g_ref)
            assert c_fast <= c_ref


class TestInvariants:
    def test_partition_and_radius_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 150))
            d = int(rng.integers(1, 6))
            p = prepare(rng.normal(0.0, 2.0, size=(n, d)))
            r = float(rng.uniform(0.05, 3.0))
            starts, group_of, dist_count = aggregate(p, r)
            assert group_of.shape == (n,)
            assert np.all((group_of >= 0) & (group_of < starts.size))
            for g, start in enumerate(starts):
                rows = np.nonzero(group_of == g)[0]
                diff = p.centered[rows] - p.centered[start]
                assert np.all(np.einsum("ij,ij->i", diff, diff) <= r * r + 1e-9)
                assert start == rows.min()
            # distinct starting points always exceed the radius
            spts = p.centered[starts]
            for a in range(len(starts)):
                for b in range(a + 1, len(starts)):
                    assert np.linalg.norm(spts[a] - spts[b]) > r
            # every non-starting member required at least one evaluation
            assert dist_count >= n - starts.size

    def test_matches_independent_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(size=(n, d)))
            r = float(rng.uniform(0.1, 2.5))
            _, group_of, _ = aggregate(p, r)
            assert members(group_of) == brute_force_groups(p.centered, p.scores, r)

    def test_determinism(self):
        rng = np.random.default_rng(50)
        data = rng.normal(size=(120, 4))
        p = prepare(data)
        s1, g1, c1 = aggregate(p, 0.8)
        s2, g2, c2 = aggregate(p, 0.8)
        assert np.array_equal(s1, s2) and np.array_equal(g1, g2)
        assert c1 == c2


def check_sweep(p, r):
    """aggregate against its direct reference and the plain-loop window count."""
    starts, group_of, dist_count = aggregate(p, r)
    starts_ref, group_of_ref, _ = aggregate_reference(p, r)
    assert np.array_equal(starts, starts_ref)
    assert np.array_equal(group_of, group_of_ref)
    oracle = windowed_dist_count(p.centered, p.scores, r, window_pad(p.centered, r))
    assert (starts.tolist(), group_of.tolist(), dist_count) == oracle
    return starts, group_of, dist_count


class TestBlockedSweep:
    @pytest.mark.parametrize("block", [7, 16, 61, 400, 1 << 15, aggregation._BLOCK])
    def test_block_sizes_match_the_reference_and_the_window_count(self, block, monkeypatch):
        monkeypatch.setattr(aggregation, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for d in (1, 2, 5):
            p = prepare(rng.normal(size=(250, d)))
            for radius in (0.05, 0.2, 0.6):
                check_sweep(p, radius * p.mext)

    def test_candidate_claimed_by_an_earlier_start_of_its_block(self):
        # all six rows are candidates of one block; rows 1 and 3 are claimed
        # by the starts 0 and 2 of that block, and row 2 lies within r of the
        # claimed row 1 but starts a group
        p = prepared_1d([0.0, 0.5, 0.9, 1.2, 1.6, 2.0])
        starts, group_of, dist_count = check_sweep(p, 0.6)
        assert starts.tolist() == [0, 2, 4]
        assert group_of.tolist() == [0, 0, 1, 1, 2, 2]
        assert dist_count == 3

    def test_rows_claimed_before_a_later_start_leave_its_window(self, monkeypatch):
        # start 0 claims row 2 but not row 1, which starts the next group:
        # row 2 lies in the window of row 1 and must not count for it
        p = prepared_raw([[0.0, 0.0], [0.5, 0.9], [0.6, 0.0], [0.7, 0.95]], [1.0, 0.0])
        for block in (7, aggregation._BLOCK):
            monkeypatch.setattr(aggregation, "_BLOCK", block)
            starts, group_of, dist_count = check_sweep(p, 0.7)
            assert starts.tolist() == [0, 1]
            assert group_of.tolist() == [0, 1, 0, 1]
            assert dist_count == 4

    def test_window_split_across_column_chunks(self, monkeypatch):
        # windows of about 30 rows against a budget of 7 entries: every start
        # goes alone, its window in column chunks
        budget(monkeypatch, 7)
        values = np.arange(200) * 0.05
        values[::7] += 0.01
        starts, group_of, _ = check_sweep(prepared_1d(values), 1.5)
        assert starts.size > 3
        rng = np.random.default_rng(9)
        p = prepare(rng.normal(size=(150, 3)))
        check_sweep(p, 0.9 * p.mext)


def recorded_compactions(monkeypatch) -> list[tuple[int, int]]:
    """(free rows, rows) of the zone of each compaction `aggregate` makes."""
    zones = []
    real = aggregation._compact

    def recording(layout, free, lo, hi):
        zones.append((int(np.count_nonzero(free[lo:hi])), hi - lo))
        return real(layout, free, lo, hi)

    monkeypatch.setattr(aggregation, "_compact", recording)
    return zones


def moves_fewer_than_it_drops(zones) -> bool:
    """Whether each compaction moved fewer (free) rows than it dropped."""
    return all(2 * free < size for free, size in zones)


def budget(monkeypatch, block: int) -> None:
    """Set the budget of the sweep's blocks and of the kernel's products."""
    monkeypatch.setattr(aggregation, "_BLOCK", block)
    monkeypatch.setattr(kernel, "_BLOCK", block)


def recorded_columns(monkeypatch) -> list[tuple[int, int]]:
    """(rows, columns) of each product the kernel makes, one per column chunk."""
    shapes = []
    real = kernel._within_chunk

    def recording(out, *rest):
        shapes.append(out.shape)
        return real(out, *rest)

    monkeypatch.setattr(kernel, "_within_chunk", recording)
    return shapes


def multiplied_dtypes(monkeypatch, call) -> set:
    """The dtypes of every np.matmul the kernel makes in `call`."""
    dtypes, real = set(), np.matmul

    def matmul(a, b, out=None):
        dtypes.update((a.dtype, b.dtype))
        return real(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(kernel.np, "matmul", matmul)
        call()
    return dtypes


def wide_groups(seed, n, d, k):
    """n points in k unit blobs: a start claims much of its window, and the
    rows it leaves start groups inside the windows of earlier starts."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(k, d))
    return centres[rng.integers(k, size=n)] + rng.normal(size=(n, d))


def strip(seed, n=600, scale=1.0):
    """Points 0.02 apart along x, spread over 3 in y, in score order along
    x: with r = scale, every window holds about 50 rows, of which a start
    claims some and leaves the rest."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack((np.arange(n) * 0.02, rng.uniform(0.0, 3.0, n)))
    return prepared_raw(scale * pts, [1.0, 0.0])


class TestCompactedSweep:
    @pytest.mark.parametrize("block", [7, 400, aggregation._BLOCK])
    def test_few_wide_groups_compact_and_match(self, block, monkeypatch):
        budget(monkeypatch, block)
        zones = recorded_compactions(monkeypatch)
        for seed in range(3):
            for d, k, radius in ((2, 3, 0.3), (3, 2, 0.5)):
                p = prepare(wide_groups(seed, 800, d, k))
                check_sweep(p, radius * p.mext)
        # the default budget puts up to 364 candidates in one block, which
        # leaves fewer zones behind
        assert len(zones) >= (5 if block == aggregation._BLOCK else 20)
        assert moves_fewer_than_it_drops(zones)

    def test_products_skip_the_dropped_rows(self, monkeypatch):
        # each window (about 50 rows) is one column chunk and too wide to
        # share a block at a budget of 60 entries: without compaction the
        # products would cover the windows exactly
        budget(monkeypatch, 60)
        zones = recorded_compactions(monkeypatch)
        shapes = recorded_columns(monkeypatch)
        r = 1.0
        for seed in (0, 3):
            p = strip(seed)
            del shapes[:]
            starts, _, _ = check_sweep(p, r)
            ends = np.searchsorted(p.scores, p.scores + (r + window_pad(p.centered, r)),
                                   side="right")
            assert sum(k for _, k in shapes) < int((ends[starts] - starts - 1).sum())
        assert len(zones) >= 4 and moves_fewer_than_it_drops(zones)

    def test_windows_split_into_column_chunks(self, monkeypatch):
        # windows of about 50 rows against a budget of 7 entries: every
        # start goes alone, its compacted window in chunks of 7 columns
        budget(monkeypatch, 7)
        zones = recorded_compactions(monkeypatch)
        shapes = recorded_columns(monkeypatch)
        for seed in range(3):
            check_sweep(strip(seed), 1.0)
        assert len(zones) >= 6 and moves_fewer_than_it_drops(zones)
        assert all(m == 1 and k <= 7 for m, k in shapes)

    @pytest.mark.parametrize("block", [7, 400])
    def test_equal_scores_and_duplicate_rows(self, block, monkeypatch):
        # points of a coarse lattice: most rows have duplicates, and whole
        # columns of the lattice share one score
        budget(monkeypatch, block)
        zones = recorded_compactions(monkeypatch)
        rng = np.random.default_rng(block)
        for _ in range(3):
            pts = 0.25 * rng.integers(0, 12, size=(500, 2)).astype(np.float64)
            pts = pts[np.argsort(pts[:, 0], kind="stable")]
            p = prepared_raw(pts, [1.0, 0.0])
            for r in (0.3, 0.8):
                check_sweep(p, r)
        assert zones and moves_fewer_than_it_drops(zones)

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("block", [7, 400, aggregation._BLOCK])
    def test_scores_on_the_window_ends_of_earlier_rows(self, d, block, monkeypatch):
        # half the rows have a copy whose score is exactly score + reach, the
        # key of the row's window end: the copy is the last row of that
        # window, which the row counts if it is still free at its turn. In
        # 5-D, a fifth of the rows lie 1 to 3 off the score axis, so a start
        # leaves them in its window and the sweep compacts with small blocks.
        budget(monkeypatch, block)
        zones = recorded_compactions(monkeypatch)
        rng = np.random.default_rng(d + block)
        r, n = 0.3, 400
        pts = np.zeros((n, d))
        pts[:, 0] = rng.uniform(0.0, 3.0, n)
        if d > 1:
            off = rng.random(n) < 0.2
            pts[off, 1] = rng.uniform(1.0, 3.0, np.count_nonzero(off))
        # the largest coordinate, which sets the pad, is not copied
        pts[0, 0] = 4.0
        reach = r + window_pad(pts, r)
        copies = pts[1:n // 2].copy()
        copies[:, 0] += reach
        pts = np.vstack([pts, copies])
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        p = prepared_raw(pts, np.eye(d)[0])
        assert r + window_pad(p.centered, r) == reach
        ends = np.searchsorted(p.scores, p.scores + reach, side="right")
        assert np.count_nonzero(p.scores[ends - 1] == p.scores + reach) >= n // 2 - 1
        starts, group_of, dist_count = check_sweep(p, r)
        assert dist_count <= aggregate_reference(p, r)[2]
        # at the default budget, one block resolves the starts of many windows
        assert zones or d == 1 or block == aggregation._BLOCK
        assert moves_fewer_than_it_drops(zones)

    @pytest.mark.parametrize("scale", [1e-30, 1e40, 1e154])
    def test_scales_beyond_the_float32_range_are_screened(self, scale, monkeypatch):
        # s in data units lies below 2^-100 (1e-30) or above 2^100 (1e40),
        # and at 1e154 |x|^2 overflows: there the direct formula decides
        # every block, and in prepare's frame every block is screened in
        # float32, in chunks of the budget
        monkeypatch.setattr(kernel, "_BLOCK", 7)
        for block in (7, 60):
            monkeypatch.setattr(aggregation, "_BLOCK", block)
            zones = recorded_compactions(monkeypatch)
            for seed in range(2):
                p = strip(seed, scale=scale)
                s = kernel.half_sq_norms(p.centered) + 0.5 * scale * scale
                assert s.max() < kernel._SINGLE_LOW or s.min() >= kernel._SINGLE_HIGH
                # at 1e154 the window count's squares overflow to inf, as the
                # direct formula's do
                with np.errstate(over="ignore"):
                    dtypes = multiplied_dtypes(monkeypatch, lambda: check_sweep(p, scale))
                assert dtypes == set()
                framed = prepare(p.centered)
                r = math.ldexp(scale, -framed.e)
                dtypes = multiplied_dtypes(monkeypatch, lambda: check_sweep(framed, r))
                assert dtypes == {np.dtype(np.float32)}
            assert zones and moves_fewer_than_it_drops(zones)


class TestStartDecisions:
    """A block decides its starts on the candidates' own columns before its
    product, or from the pairs of its one product, as the last block
    predicts; either way the groups are the reference's."""

    @pytest.mark.parametrize("first", [False, True])
    def test_either_path_matches_the_reference(self, first, monkeypatch):
        real = aggregation._sweep_block
        monkeypatch.setattr(aggregation, "_sweep_block", lambda *args: real(*args[:-1], first))
        for d in (1, 2, 5):
            p = prepare(wide_groups(40 + d, 600, d, 3))
            for radius in (0.05, 0.2, 0.6):
                check_sweep(p, radius * p.mext)
        p = prepared_1d([0.0, 0.5, 0.9, 1.2, 1.6, 2.0])
        assert check_sweep(p, 0.6)[0].tolist() == [0, 2, 4]
        check_sweep(strip(4), 1.0)


def test_products_stay_near_the_evaluations_on_few_groups(monkeypatch):
    # the benchmark's few-groups training rows: with the claimed rows
    # dropped, the sweep multiplies at most 1.5 entries per evaluation
    # (2.8 when every window was multiplied whole)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import harness
    workload = harness.WORKLOADS["few-groups"]
    p = prepare(harness.make_inputs(workload, 3).train)
    shapes = recorded_columns(monkeypatch)
    _, _, dist_count = aggregate(p, workload.radius * p.mext)
    assert sum(m * k for m, k in shapes) <= 1.5 * dist_count


def test_group_ids_past_the_range_of_the_claim_weights():
    # 40,000 pairs of rows 0.5 apart, 3 apart from pair to pair: blocks of
    # many starts, each claiming its partner, with group ids past 2^15
    values = (3.0 * np.arange(40_000)[:, None] + [0.0, 0.5]).ravel()
    starts, group_of, dist_count = aggregate(prepared_1d(values), 1.0)
    assert np.array_equal(starts, np.arange(0, values.size, 2))
    assert np.array_equal(group_of, np.arange(values.size) // 2)
    assert dist_count == 40_000
