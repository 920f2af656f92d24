import numpy as np
import pytest

from sortclust import aggregation
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
        monkeypatch.setattr(aggregation, "_BLOCK", 7)
        values = np.arange(200) * 0.05
        values[::7] += 0.01
        starts, group_of, _ = check_sweep(prepared_1d(values), 1.5)
        assert starts.size > 3
        rng = np.random.default_rng(9)
        p = prepare(rng.normal(size=(150, 3)))
        check_sweep(p, 0.9 * p.mext)
