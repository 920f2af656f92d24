import numpy as np
import pytest

from sortclust.aggregation import aggregate
from sortclust.merging import (MergeGraph, connected_components, density_merge,
                               density_pair_test, distance_merge, relabel_by_size)
from sortclust.prep import prepare

from _oracles import (brute_force_components, brute_force_density_edges,
                      brute_force_distance_edges)

from test_aggregation import prepared_1d, prepared_raw


def edge_set(graph):
    return set(map(tuple, graph.edges.tolist()))


class TestDistanceMerge:
    def test_one_dimensional_hand_check(self):
        g = distance_merge(np.array([0.0, 1.2, 5.0]),
                           np.array([[0.0], [1.2], [5.0]]), 1.0, 1.5)
        assert g.edges.tolist() == [[0, 1]]

    def test_single_group(self):
        g = distance_merge(np.array([0.0]), np.array([[0.0]]), 1.0, 1.5)
        assert g.edges.shape == (0, 2) and g.num_groups == 1

    def test_boundary_distance_is_an_edge(self):
        g = distance_merge(np.array([0.0, 1.5]), np.array([[0.0], [1.5]]), 1.0, 1.5)
        assert g.edges.tolist() == [[0, 1]]

    def test_pair_at_threshold_past_the_unpadded_window(self):
        # the pair is within 1.5 r by the direct formula, but s_0 + 1.5 r
        # rounds below the second score: only the padded window keeps it
        pts = np.array([[-7.116807745607325], [-2.840182650560313]])
        r = 2.8510833966980074
        graph = distance_merge(pts[:, 0], pts, r, 1.5)
        assert edge_set(graph) == brute_force_distance_edges(pts, r, 1.5) == {(0, 1)}

    def test_scale_validation(self):
        sc = np.array([0.0, 1.0])
        pts = np.array([[0.0], [1.0]])
        for bad in (0.99, 2.01, -1.0):
            with pytest.raises(ValueError):
                distance_merge(sc, pts, 1.0, bad)

    def test_pruned_equals_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(size=(n, d)))
            r = float(rng.uniform(0.1, 2.0))
            scale = float(rng.uniform(1.0, 2.0))
            starts, _, _ = aggregate(p, r)
            graph = distance_merge(p.scores[starts], p.centered[starts], r, scale)
            assert edge_set(graph) == brute_force_distance_edges(
                p.centered[starts], r, scale)


class TestDensityMerge:
    def test_one_dimensional_hand_computation(self):
        # union [-1, 2.5] holds 5 points over length 3.5; the lens [0.5, 1.0]
        # holds 3 points over length 0.5: 5/3.5 <= 6 merges the pair
        p = prepared_1d([0.0, 0.6, 0.7, 0.9, 1.5])
        starts, _, _ = aggregate(p, 1.0)
        assert starts.tolist() == [0, 4]
        graph = density_merge(starts, p, 1.0)
        assert graph.edges.tolist() == [[0, 1]]

    def test_empty_lens_count_blocks_edge(self):
        p = prepared_1d([0.0, 0.0, 0.0, 1.5, 1.5])
        starts, _, _ = aggregate(p, 1.0)
        graph = density_merge(starts, p, 1.0)
        assert graph.edges.shape == (0, 2)

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
        graph = density_merge(starts, p, r)
        assert edge_set(graph) == brute_force_density_edges(
            p.centered, p.centered[starts], r, 2) == {(0, 1)}

    def test_pair_test_zero_intersection_count(self):
        assert density_pair_test(5, 0, 1.5, 1.0, 2) is False
        assert density_pair_test(2, 2, 0.5, 1.0, 2) is True

    def test_pair_test_survives_extreme_dimension(self):
        # raw ball volumes underflow far below d=10000; the cancelled form
        # still decides: a populated lens at tiny overlap fraction wins, an
        # empty one never does
        assert density_pair_test(10, 5, 1.9, 1.0, 10_000) is True
        assert density_pair_test(10, 0, 1.9, 1.0, 10_000) is False
        assert density_pair_test(2, 2, 0.1, 1.0, 10_000) is True

    def test_pruned_equals_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 5))
            p = prepare(rng.normal(size=(n, d)))
            r = float(rng.uniform(0.2, 1.5))
            starts, _, _ = aggregate(p, r)
            graph = density_merge(starts, p, r)
            assert edge_set(graph) == brute_force_density_edges(
                p.centered, p.centered[starts], r, p.d)


class TestConnectedComponents:
    def test_chain(self):
        cmap = connected_components(MergeGraph(4, np.array([[0, 1], [1, 2]])))
        assert cmap.k == 2
        assert cmap.cluster_of_group.tolist() == [0, 0, 0, 1]
        assert cmap.sizes.tolist() == [3, 1]

    def test_no_edges(self):
        cmap = connected_components(MergeGraph(3, np.empty((0, 2), dtype=np.int64)))
        assert cmap.k == 3
        assert cmap.cluster_of_group.tolist() == [0, 1, 2]

    def test_spanning_chain(self):
        cmap = connected_components(MergeGraph(5, np.array([[i, i + 1] for i in range(4)])))
        assert cmap.k == 1
        assert cmap.sizes.tolist() == [5]

    def test_ids_ordered_by_point_count(self):
        # second component holds more points, so it takes id 0
        cmap = connected_components(MergeGraph(4, np.array([[0, 1], [2, 3]])),
                                    group_sizes=[1, 1, 5, 5])
        assert cmap.cluster_of_group.tolist() == [1, 1, 0, 0]
        assert cmap.sizes.tolist() == [10, 2]

    def test_tie_broken_by_smallest_group_index(self):
        cmap = connected_components(MergeGraph(4, np.array([[0, 3], [1, 2]])),
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
            cmap = connected_components(MergeGraph(l, pairs.reshape(-1, 2)), sizes)
            expected, expected_sizes = brute_force_components(l, pairs.tolist(), sizes.tolist())
            assert cmap.cluster_of_group.tolist() == expected
            assert cmap.sizes.tolist() == expected_sizes
            assert cmap.k == len(expected_sizes)
