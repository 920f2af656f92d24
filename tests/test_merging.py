import math

import numpy as np
import pytest

from sortclust import kernel, merging
from sortclust.aggregation import aggregate
from sortclust.merging import (connected_components, density_merge, distance_merge,
                               relabel_by_size)
from sortclust.postprocess import fit
from sortclust.prep import prepare

from _oracles import (brute_force_components, brute_force_density_edges,
                      brute_force_distance_edges, density_pair_test, direct_density_pairs,
                      direct_sq_matrix)

from test_aggregation import BAD_RADII, prepared_1d, prepared_raw, value_error


def edge_set(edges):
    return set(map(tuple, edges.tolist()))


def pairwise_density_edges(points, starting_points, r, d):
    """The density criterion decided one pair at a time, from direct counts."""
    return {(i, j) for i, j, union, inter, dsq in direct_density_pairs(points, starting_points, r)
            if density_pair_test(union, inter, math.sqrt(dsq), r, d)}


def check_density(p, starts, r, brute_force=True):
    """density_merge's edges, checked to be sorted and to equal both oracles.

    After a single window search, its one overlap_fraction call must take
    the direct pairs' distances in order, and each pair it keeps or drops
    must be the scalar pair test's decision on the direct counts."""
    calls, searches = [], []
    fraction, search = merging.overlap_fraction, merging._window_hits

    def overlap(*args):
        calls.append(args)
        return fraction(*args)

    def window_hits(*args):
        searches.append(args)
        return search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merging, "overlap_fraction", overlap)
        mp.setattr(merging, "_window_hits", window_hits)
        edges = density_merge(starts, p, r)
    assert len(searches) == 1 and len(calls) == 1
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    assert np.array_equal(edges, np.unique(edges, axis=0))
    pts, found = p.centered[starts], set(map(tuple, edges.tolist()))
    dist, radius, d = calls[0]
    assert (radius, d) == (r, p.d)
    assert dist.tolist() == [math.sqrt(dsq) for *_, dsq in direct_density_pairs(p.centered, pts, r)]
    assert found == pairwise_density_edges(p.centered, pts, r, p.d)
    if brute_force:
        assert found == brute_force_density_edges(p.centered, pts, r, p.d)
    return edges


class TestDistanceMerge:
    def test_one_dimensional_hand_check(self):
        edges = distance_merge(np.array([0.0, 1.2, 5.0]),
                               np.array([[0.0], [1.2], [5.0]]), 1.0, 1.5)
        assert edges.tolist() == [[0, 1]]

    def test_single_group(self):
        edges = distance_merge(np.array([0.0]), np.array([[0.0]]), 1.0, 1.5)
        assert edges.shape == (0, 2)

    def test_boundary_distance_is_an_edge(self):
        edges = distance_merge(np.array([0.0, 1.5]), np.array([[0.0], [1.5]]), 1.0, 1.5)
        assert edges.tolist() == [[0, 1]]

    def test_pair_at_threshold_past_the_unpadded_window(self):
        # the pair is within 1.5 r by the direct formula, but s_0 + 1.5 r
        # rounds below the second score: only the padded window keeps it
        pts = np.array([[-7.116807745607325], [-2.840182650560313]])
        r = 2.8510833966980074
        edges = distance_merge(pts[:, 0], pts, r, 1.5)
        assert edge_set(edges) == brute_force_distance_edges(pts, r, 1.5) == {(0, 1)}

    def test_radius_follows_the_rule_of_fit(self):
        sc = np.array([0.0, 0.4, 1.0])
        pts = sc[:, None]
        for bad in BAD_RADII:
            assert value_error(distance_merge, sc, pts, bad) == value_error(fit, pts, radius=bad)
        assert np.array_equal(distance_merge(sc, pts, np.float32(0.3)),
                              distance_merge(sc, pts, float(np.float32(0.3))))

    def test_scale_validation(self):
        sc = np.array([0.0, 1.0])
        pts = np.array([[0.0], [1.0]])
        for bad in (0.99, 2.01, -1.0):
            with pytest.raises(ValueError):
                distance_merge(sc, pts, 1.0, bad)

    def test_scale_follows_the_rule_of_fit(self):
        # a float32 scale ran in float32: 1.5 * 0.1 rounds to 0.15 there,
        # below the float64 product, and joined a pair just beyond it
        r = 0.1
        sc = np.array([0.0, np.nextafter(1.5 * r, 1.0)])
        pts = sc[:, None]
        assert distance_merge(sc, pts, r, np.float32(1.5)).shape == (0, 2)
        for bad in (True, 0.99, 2.01, float("nan"), "1.5"):
            assert value_error(distance_merge, sc, pts, r, bad) == value_error(
                fit, pts, scale=bad)

    def test_pruned_equals_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(size=(n, d)))
            r = float(rng.uniform(0.1, 2.0))
            scale = float(rng.uniform(1.0, 2.0))
            starts, _, _ = aggregate(p, r)
            edges = distance_merge(p.scores[starts], p.centered[starts], r, scale)
            assert edge_set(edges) == brute_force_distance_edges(
                p.centered[starts], r, scale)


class TestDensityMerge:
    def test_radius_follows_the_rule_of_fit(self):
        p = prepared_1d([0.0, 0.2, 0.3, 0.5, 0.7, 1.5])
        starts, _, _ = aggregate(p, 0.25)
        for bad in BAD_RADII:
            assert value_error(density_merge, starts, p, bad) == value_error(
                fit, p.centered, radius=bad, merge_mode="density")
        assert np.array_equal(density_merge(starts, p, np.float32(0.3)),
                              density_merge(starts, p, float(np.float32(0.3))))

    def test_one_dimensional_hand_computation(self):
        # union [-1, 2.5] holds 5 points over length 3.5; the lens [0.5, 1.0]
        # holds 3 points over length 0.5: 5/3.5 <= 6 merges the pair
        p = prepared_1d([0.0, 0.6, 0.7, 0.9, 1.5])
        starts, _, _ = aggregate(p, 1.0)
        assert starts.tolist() == [0, 4]
        edges = density_merge(starts, p, 1.0)
        assert edges.tolist() == [[0, 1]]

    def test_empty_lens_count_blocks_edge(self):
        p = prepared_1d([0.0, 0.0, 0.0, 1.5, 1.5])
        starts, _, _ = aggregate(p, 1.0)
        edges = density_merge(starts, p, 1.0)
        assert edges.shape == (0, 2)

    def test_pair_just_inside_2r_past_the_unpadded_window(self):
        # centres 2r - 1e-10 apart along v1, far from the origin, with one
        # point at their midpoint: s_0 + 2r rounds below the second score,
        # so only the padded window keeps the pair
        v1 = [-0.11715588880748919, 0.9931135371737349]
        pts = [[-233801.1563799971, -947511.3585303554],
               [-233801.2559951701, -947510.514106931],
               [-233801.35561034307, -947509.6696835067]]
        r = 0.8502788379788304
        p = prepared_raw(pts, v1)
        starts = np.array([0, 2])
        assert p.scores[2] > p.scores[0] + 2.0 * r
        edges = density_merge(starts, p, r)
        assert edge_set(edges) == brute_force_density_edges(
            p.centered, p.centered[starts], r, 2) == {(0, 1)}

    @pytest.mark.parametrize("d, rows, starts, tested, untested", [
        (2, [-0.5, 0.0, 1.5, 2.0, 2.3, 10.0, 10.5], [1, 2, 5, 6], [(2, 3, 2, 2)], (5, 1.5)),
        (10_000, [-0.6, -0.3, 0.0, *[0.95] * 5, 1.9, 2.5, 10.0, 10.1,
                  19.6, 19.7, 19.8, 19.9, 20.0, 21.9, 22.0, 22.1, 22.2, 22.3],
         [2, 8, 10, 11, 16, 17], [(0, 1, 10, 5), (2, 3, 2, 2)], (10, 1.9)),
    ])
    def test_pair_counts_decided_as_the_scalar_test(self, d, rows, starts, tested, untested):
        # rows on the first axis, r = 1, and (i, j, union, inter) of each
        # tested pair: at d = 10,000 the raw ball volumes underflow, and the
        # cancelled form still decides; its pair (0, 1) holds a populated
        # lens of overlap fraction 0.0, which merges. One pair of each
        # layout, (0, 1) at d = 2 and (4, 5) at d = 10,000, shares no row, so
        # it is never tested; `untested` holds its union count and distance,
        # on which the scalar test rejects it
        pts = np.zeros((len(rows), d))
        pts[:, 0] = rows
        p, r = prepared_raw(pts, np.eye(1, d)[0]), 1.0
        starts = np.array(starts)
        assert [pair[:4] for pair in direct_density_pairs(p.centered, p.centered[starts], r)] \
            == tested
        assert density_pair_test(untested[0], 0, untested[1], r, d) is False
        edges = check_density(p, starts, r, brute_force=d == 2)
        assert edges.tolist() == [list(pair[:2]) for pair in tested]

    def test_pruned_equals_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(size=(n, d)))
            r = float(rng.uniform(0.2, 1.5))
            starts, _, _ = aggregate(p, r)
            edges = density_merge(starts, p, r)
            assert edge_set(edges) == brute_force_density_edges(
                p.centered, p.centered[starts], r, p.d)

    @pytest.mark.parametrize("block", [7, 300, 1 << 15, kernel._BLOCK])
    def test_blocks_and_column_chunks_give_the_oracle_edges(self, block, monkeypatch):
        # at 7 and 300 entries the ball windows split across column chunks
        # and single-centre blocks, and the shared-row keys across chunks
        monkeypatch.setattr(kernel, "_BLOCK", block)
        monkeypatch.setattr(merging, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for d, r in ((1, 0.3), (2, 0.5), (3, 0.8)):
            p = prepare(rng.normal(size=(400, d)))
            starts, _, _ = aggregate(p, r)
            assert 1 < starts.size < 400
            assert check_density(p, starts, r).size > 0

    def test_many_groups_with_rows_in_many_balls(self):
        # 1,000 centres on a quarter-unit lattice, so rows sit exactly on
        # ball boundaries and centres exactly 2r apart; each row lies in
        # up to dozens of balls
        rng = np.random.default_rng(21)
        p = prepare(0.25 * rng.integers(0, 60, size=(2000, 2)))
        starts, r = np.arange(0, 2000, 2), 1.0
        in_ball = direct_sq_matrix(p.centered[starts], p.centered) <= r * r
        assert np.count_nonzero(in_ball, axis=0).max() > 20
        check_density(p, starts, r)

    def test_centres_exactly_2r_apart_sharing_a_boundary_row(self):
        # rows 1-3 are in the balls of both 0 and 4, which are 2r apart: the
        # pair (0, 4) shares rows but is not tested, and (4, 5), which is,
        # takes only its own counts, which do not merge it
        p = prepared_1d([0.0, 1.0, 1.0, 1.0, 2.0, 2.6])
        starts = np.array([0, 4, 5])
        assert check_density(p, starts, 1.0).shape == (0, 2)

    def test_subnormal_four_r_squared(self):
        # centres x apart with a row at x / 2, scaled near 1e-160: r * r is
        # subnormal, so 4.0 * (r * r) and (2r)^2 differ and x^2 can fall
        # between them; the 2r test is dsq < 4.0 * (r * r) exactly
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(400):
            r = float(rng.uniform(1.0, 4.0)) * 1e-161
            x = float(rng.uniform(1.99, 2.01)) * r
            p = prepared_1d([0.0, x / 2.0, x])
            edges = check_density(p, np.array([0, 2]), r, brute_force=False)
            if (2.0 * r) ** 2 <= x * x < 4.0 * (r * r):
                seen.add(("below", edges.shape[0]))
            elif 4.0 * (r * r) <= x * x < (2.0 * r) ** 2 and (x / 2.0) ** 2 <= r * r:
                seen.add(("above", edges.shape[0]))
        assert {("below", 1), ("above", 0)} <= seen

    def test_lattice_scaled_to_subnormal_squares(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = prepare(1e-160 * rng.integers(0, 12, size=(150, 2)))
            r = float(rng.uniform(1.0, 3.0)) * 1e-160
            starts, _, _ = aggregate(p, r)
            check_density(p, starts, r, brute_force=False)


class TestConnectedComponents:
    def test_chain(self):
        cmap = connected_components(4, np.array([[0, 1], [1, 2]]))
        assert cmap.k == 2
        assert cmap.cluster_of_group.tolist() == [0, 0, 0, 1]
        assert cmap.sizes.tolist() == [3, 1]

    def test_no_edges(self):
        cmap = connected_components(3, np.empty((0, 2), dtype=np.int64))
        assert cmap.k == 3
        assert cmap.cluster_of_group.tolist() == [0, 1, 2]

    def test_spanning_chain(self):
        cmap = connected_components(5, np.array([[i, i + 1] for i in range(4)]))
        assert cmap.k == 1
        assert cmap.sizes.tolist() == [5]

    def test_ids_ordered_by_point_count(self):
        # second component holds more points, so it takes id 0
        cmap = connected_components(4, np.array([[0, 1], [2, 3]]),
                                    group_sizes=[1, 1, 5, 5])
        assert cmap.cluster_of_group.tolist() == [1, 1, 0, 0]
        assert cmap.sizes.tolist() == [10, 2]

    def test_tie_broken_by_smallest_group_index(self):
        cmap = connected_components(4, np.array([[0, 3], [1, 2]]),
                                    group_sizes=[2, 2, 2, 2])
        assert cmap.cluster_of_group.tolist() == [0, 1, 1, 0]

    def test_relabel_passes_outliers_through(self):
        ids, sizes = relabel_by_size([5, -1, 5, 7], [1, 4, 2, 9])
        assert ids.tolist() == [1, -1, 1, 0]
        assert sizes.tolist() == [9, 3]

    def test_matches_breadth_first_oracle(self):
        # random sparse graphs, many isolated groups, sizes with ties
        rng = np.random.default_rng(12)
        for _ in range(60):
            l = int(rng.integers(1, 200))
            pairs = rng.integers(0, l, size=(int(rng.integers(0, l + 1)), 2))
            pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
            sizes = rng.integers(1, 4, size=l)
            cmap = connected_components(l, pairs.reshape(-1, 2), sizes)
            expected, expected_sizes = brute_force_components(l, pairs.tolist(), sizes.tolist())
            assert cmap.cluster_of_group.tolist() == expected
            assert cmap.sizes.tolist() == expected_sizes
            assert cmap.k == len(expected_sizes)
