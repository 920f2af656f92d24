import dataclasses
import heapq
import itertools
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import sortclust.explain
from sortclust.evaluation import make_blobs
from sortclust.explain import (_round2, _shortest_group_path, explain_pair, explain_point,
                               explain_summary, fit_stats_text)
from sortclust.postprocess import ClusterModel, fit, from_json, save_model, to_json

import _oracles
from _oracles import brute_force_group_path, summary_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import harness  # noqa: E402


def chain_model():
    """Three one-point groups merged into one cluster along a score chain:
    adjacent gaps 1.2 pass scale*R = 1.248, the outer pair (2.4) does not."""
    return fit([[0.0], [1.2], [2.4]], radius=0.8, scale=1.3)


class TestSummary:
    def test_toy_counts(self):
        m = fit([[0.0], [0.1], [5.0], [5.1]], radius=0.3)
        report = explain_summary(m)
        assert report.kind == "summary"
        p = report.structured
        assert p["n"] == 4 and p["num_groups"] == 2 and p["num_clusters"] == 2
        assert sum(p["cluster_sizes"]) == 4
        assert "2 groups were subsequently merged into 2 clusters" in report.text
        assert "A clustering of 4 data points with 1 features" in report.text

    def test_single_point(self):
        report = explain_summary(fit([[3.0, 1.0]]))
        p = report.structured
        assert p["num_groups"] == 1 and p["num_clusters"] == 1
        assert p["cluster_sizes"] == [1]

    def test_group_table_rows(self):
        data, _ = make_blobs(60, 3, 2, 0.3, 4)
        m = fit(data, radius=0.4)
        p = explain_summary(m).structured
        assert len(p["groups"]) == m.num_groups
        for row in p["groups"]:
            assert len(row["coordinates"]) == 2  # min(d, 2)
            assert 0 <= row["cluster"] < m.num_clusters
        # the table prints raw coordinates, not centered ones
        raw0 = (m.starting_points[0] + m.mean)[:2]
        assert p["groups"][0]["coordinates"] == [round(float(c), 2) for c in raw0]

    def test_text_is_deterministic(self):
        m = chain_model()
        assert explain_summary(m).text == explain_summary(m).text

    def test_scale_factor_sentence(self):
        m = chain_model()
        text = explain_summary(m).text
        assert f"scaled by a factor of 1/{m.mext:.2f}" in text
        assert f"R={m.config.radius:.2f}*{m.mext:.2f}={m.r:.2f}" in text

    def test_outlier_line_in_separate_mode(self):
        data = [[0.0], [0.1], [0.2], [9.0]]
        m = fit(data, radius=0.2, minpts=2, outlier_mode="separate")
        report = explain_summary(m)
        assert report.structured["outlier_points"] == 1
        assert "* outliers : 1" in report.text


class TestPoint:
    def test_reports_group_and_cluster(self):
        m = chain_model()
        report = explain_point(m, 1)
        assert report.structured == {"kind": "point", "text_version": 1,
                                     "index": 1, "group": 1, "cluster": 0}
        assert report.text == ("The data point 1 is in group 1, which has been "
                               "merged into cluster #0.")

    def test_agrees_with_labels_on_random_fits(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, 4))
            data = rng.normal(0.0, 2.0, size=(n, d))
            m = fit(data, radius=0.4, minpts=int(rng.integers(0, 4)))
            for i in range(n):
                assert explain_point(m, i).structured["cluster"] == m.labels[i]

    def test_bounds(self):
        m = chain_model()
        with pytest.raises(ValueError):
            explain_point(m, 3)
        with pytest.raises(ValueError):
            explain_point(m, -1)

    @pytest.mark.parametrize("index", [True, False, None, 1.5, float("nan"), float("inf"), "1"])
    def test_non_integral_indices_raise_value_error(self, index):
        # a boolean is no row index, though True == 1
        m = chain_model()
        with pytest.raises(ValueError):
            explain_point(m, index)
        with pytest.raises(ValueError):
            explain_pair(m, 0, index)
        with pytest.raises(ValueError):
            explain_pair(m, index, 0)

    def test_integral_reals_are_indices(self):
        m = chain_model()
        assert explain_point(m, np.int64(1)).structured == explain_point(m, 1).structured
        assert explain_point(m, 2.0).structured["index"] == 2
        assert explain_pair(m, np.float64(0.0), 2).structured == explain_pair(m, 0, 2).structured

    def test_outlier_wording(self):
        data = [[0.0], [0.1], [0.2], [9.0]]
        m = fit(data, radius=0.2, minpts=2, outlier_mode="separate")
        report = explain_point(m, 3)
        assert report.structured["cluster"] == -1
        assert "outliers" in report.text


class TestPair:
    def test_chain_path(self):
        m = chain_model()
        report = explain_pair(m, 0, 2)
        assert report.structured["path"] == [0, 1, 2]
        assert report.structured["path_text"] == "0 <-> 1 <-> 2"
        assert "connected via groups 0 <-> 1 <-> 2" in report.text

    def test_same_group(self):
        m = fit([[0.0], [0.05], [10.0]], radius=0.5)
        assert m.point_group[0] == m.point_group[1]
        report = explain_pair(m, 0, 1)
        assert report.structured["path"] == [0]

    def test_different_clusters(self):
        m = fit([[0.0], [9.0]], radius=0.2)
        report = explain_pair(m, 0, 1)
        assert report.structured["same_cluster"] is False
        assert report.structured["path"] is None
        assert "no connection" in report.text

    def test_minpts_reassignment_has_no_path(self):
        # the point at 9 forms its own merged cluster; minPts folds it into
        # cluster #0, so no chain of merge edges joins the two groups
        m = fit([[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]], radius=0.5, minpts=2)
        report = explain_pair(m, 0, 5)
        assert report.structured["same_cluster"] is True
        assert report.structured["path"] is None
        assert "None" not in report.text
        assert "No chain of merged groups connects these two groups" in report.text
        assert "minPts rule moved" in report.text

    def test_path_survives_model_round_trip(self):
        m = from_json(to_json(chain_model()))
        assert explain_pair(m, 0, 2).structured["path_text"] == "0 <-> 1 <-> 2"

    def test_four_group_chain(self):
        # unit-spaced singleton groups, merge threshold 1.05: only adjacent
        # groups connect, so the end-to-end path walks the whole chain
        # (the median row norm is 1, so r = 0.7)
        data = [[0.0], [1.0], [2.0], [3.0]]
        m = fit(data, radius=0.7, scale=1.5)
        assert m.r == 0.7 and m.num_groups == 4 and m.num_clusters == 1
        report = explain_pair(m, 0, 3)
        assert report.structured["path"] == [0, 1, 2, 3]

    def test_adjacency_is_built_once_per_model(self, monkeypatch):
        adjacency = ClusterModel.__dict__["_merge_adjacency"]
        build, built = adjacency.func, []
        monkeypatch.setattr(adjacency, "func", lambda model: built.append(model) or build(model))
        m = fit([[0.0], [1.0], [2.0], [3.0]], radius=0.7, scale=1.5)
        first, second = explain_pair(m, 0, 3), explain_pair(m, 0, 3)
        assert first.structured["path"] == [0, 1, 2, 3]
        assert (first.structured, first.text) == (second.structured, second.text)
        assert explain_pair(m, 1, 3).structured["path"] == [1, 2, 3]
        assert built == [m]
        reloaded = from_json(to_json(m))
        assert explain_pair(reloaded, 0, 3).structured == first.structured
        assert built == [m, reloaded]

    def test_path_stays_inside_cluster(self):
        rng = np.random.default_rng(23)
        data = rng.normal(0.0, 2.0, size=(90, 2))
        m = fit(data, radius=0.5)
        for _ in range(30):
            i, j = rng.integers(0, 90, size=2)
            rep = explain_pair(m, int(i), int(j)).structured
            if rep["same_cluster"]:
                cluster = rep["first_cluster"]
                assert rep["path"][0] == rep["first_group"]
                assert rep["path"][-1] == rep["second_group"]
                for g in rep["path"]:
                    assert m.group_cluster[g] == cluster
                # consecutive path nodes are actual merge edges
                edges = set(map(tuple, m.merge_edges.tolist()))
                for a, b in zip(rep["path"], rep["path"][1:]):
                    assert (min(a, b), max(a, b)) in edges

    def test_index_validation(self):
        m = chain_model()
        with pytest.raises(ValueError):
            explain_pair(m, 0, 7)


class TestFitStatsText:
    def test_mentions_counts(self):
        m = chain_model()
        text = fit_stats_text(m)
        assert "The 3 data points with 1 features were aggregated into 3 groups." in text
        assert f"In total {m.dist_count} comparisons were required" in text
        assert "* cluster 0 : 3" in text


def lattice_model():
    """A 9 x 5 integer grid, one group per point, merged along the grid
    lines only (threshold 1.2): every merge weight is exactly 1, so most
    group pairs are joined by many paths of equal weight. The median row
    norm is sqrt(8), so r = 0.6."""
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(5.0), indexing="ij"),
                    axis=-1).reshape(-1, 2)
    m = fit(grid, radius=0.6 / math.sqrt(8.0), scale=2.0)
    assert m.r == 0.6
    assert m.num_groups == 45 and len(m.merge_edges) == 76 and m.num_clusters == 1
    return m


def assert_summary_matches(model):
    report = explain_summary(model)
    payload, text = summary_reference(model)
    # json.dumps tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert json.dumps(report.structured) == json.dumps(payload)
    assert report.text == text


def assert_paths_match(model, pairs):
    for a, b in pairs:
        assert _shortest_group_path(model, a, b) == brute_force_group_path(model, a, b)


def same_cluster_pairs(model, rng, count):
    """`count` random pairs of groups in one cluster (a group may pair with itself)."""
    pairs = []
    for a in rng.integers(0, model.num_groups, size=count).tolist():
        mates = np.nonzero(model.group_cluster == model.group_cluster[a])[0]
        pairs.append((a, int(rng.choice(mates))))
    return pairs


class TestAgainstReference:
    """The array summary and path search equal the per-row Python oracles
    bit for bit."""

    def test_random_fits(self):
        rng = np.random.default_rng(31)
        for trial in range(24):
            n = int(rng.integers(5, 150))
            d = 1 + trial % 4
            m = fit(rng.normal(0.0, 2.0, size=(n, d)), radius=float(rng.uniform(0.2, 0.6)),
                    minpts=int(rng.integers(0, 4)),
                    merge_mode=("distance", "density")[trial % 2])
            assert_summary_matches(m)
            assert_paths_match(m, rng.integers(0, m.num_groups, size=(40, 2)).tolist())

    def test_bench_many_groups_fit(self):
        w = harness.WORKLOADS["many-groups"]
        m = harness.fit_workload(w, harness.make_inputs(w, 11).train)
        assert_summary_matches(m)
        pairs = same_cluster_pairs(m, np.random.default_rng(5), 6)
        assert_paths_match(m, pairs + [(0, m.num_groups - 1)])

    def test_lattice_ties_between_equal_weight_paths(self):
        m = lattice_model()
        assert_paths_match(m, [(a, b) for a in range(45) for b in range(45)])
        # corner to corner, the path is the lexicographically smallest of the
        # C(12, 4) = 495 monotone paths of weight 12
        group_at = {tuple(p): g for g, p in enumerate(m.starting_points.tolist())}
        paths = []
        for x_steps in itertools.combinations(range(12), 8):
            x, y = -4.0, -2.0
            path = [group_at[x, y]]
            for step in range(12):
                x, y = (x + 1.0, y) if step in x_steps else (x, y + 1.0)
                path.append(group_at[x, y])
            paths.append(path)
        assert (paths[0][0], paths[0][-1]) == (0, 44)
        assert _shortest_group_path(m, 0, 44) == min(paths)
        assert_summary_matches(m)

    def test_reloaded_model(self):
        data, _ = make_blobs(300, 3, 3, 0.6, 2)
        for mode in ("distance", "density"):
            m = from_json(to_json(fit(data, radius=0.3, minpts=3, merge_mode=mode)))
            assert_summary_matches(m)
            assert_paths_match(m, same_cluster_pairs(m, np.random.default_rng(3), 30))

    def test_model_without_merge_edges(self):
        m = fit([[0.0], [5.0], [10.0], [10.05]], radius=0.05, minpts=2)
        assert m.merge_edges.shape == (0, 2) and m.num_clusters == 1
        for model in (m, from_json(to_json(m))):
            assert_summary_matches(model)
            assert_paths_match(model, [(0, 2), (1, 2), (1, 1)])
            assert _shortest_group_path(model, 0, 2) is None

    def test_rounding_edge_coordinates(self):
        values = [2.675, 1.005, 0.125, -0.125, -0.0, 1e300, 5e-324, 2.5e15,
                  -2.675, -1.005, 0.285, 1.7e308, -2.5e15 - 0.5, 0.0, 1.115]
        m = lattice_model()
        pts = np.resize(np.array(values), 2 * m.num_groups).reshape(-1, 2)
        # raw coordinates are starting points plus the mean; -0.0 + -0.0 keeps
        # the sign of zero that + 0.0 would drop
        m = dataclasses.replace(m, starting_points=pts, mean=np.full(2, -0.0))
        assert_summary_matches(m)
        assert explain_summary(m).structured["groups"][0]["coordinates"] == [2.67, 1.0]

    def test_round2_equals_round(self):
        rng = np.random.default_rng(17)
        halfway = (rng.integers(-10**7, 10**7, size=100_000) + 0.5) / 100.0
        spread = rng.uniform(-1.0, 1.0, size=100_000) * 10.0 ** rng.integers(-6, 18, size=100_000)
        edge = np.array([2.675, 1.005, 0.125, -0.125, -0.0, 0.0, 1e300, 5e-324, -5e-324,
                         2.5e15, 1.7e308, -1.7e308, np.inf, -np.inf])
        x = np.concatenate((halfway, spread, edge))
        got = _round2(x)
        expected = np.array([round(v, 2) for v in x.tolist()])
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def graph_model(points, edges):
    """A one-cluster model whose groups start at `points`, one point each,
    merged along `edges` only."""
    points = np.asarray(points, dtype=np.float64)
    l, d = points.shape
    return dataclasses.replace(
        fit(points[:1]), mean=np.zeros(d), v1=np.eye(d)[0], starting_points=points,
        starting_scores=np.zeros(l), group_cluster=np.zeros(l, dtype=np.int64),
        cluster_sizes=np.array([l]), point_group=np.arange(l),
        merge_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def counted_pops(monkeypatch, module, search, *args):
    """The result of `search(*args)` and the heappop calls it made through `module.heapq`."""
    pops = []
    counting = types.SimpleNamespace(
        heappush=heapq.heappush, heappop=lambda heap: pops.append(None) or heapq.heappop(heap))
    with monkeypatch.context() as patch:
        patch.setattr(module, "heapq", counting)
        return search(*args), len(pops)


class TestBoundedSearch:
    """The search bounded by the straight line returns the oracle's paths."""

    def test_collinear_chains(self):
        # on a line the bound equals the rest of the path exactly, so only
        # the rounding band keeps the answer's prefixes in the search: an
        # unbanded bound exceeds the rounded path length on some of them.
        # With the skip edges i -> i + 2 every path has the same exact
        # length, and rounding alone tells them apart.
        rng = np.random.default_rng(41)
        cut = 0
        for skip in (False, True):
            for _ in range(4):
                steps = np.cumsum(rng.uniform(0.05, 1.0, size=60))
                direction = rng.normal(size=3)
                m = graph_model(steps[:, None] * (direction / np.linalg.norm(direction)),
                                [(i, i + 1) for i in range(59)]
                                + [(i, i + 2) for i in range(58) if skip])
                pairs = [(0, g) for g in range(60)] + [(g, 0) for g in range(60)]
                assert_paths_match(m, pairs)
                pts = m.starting_points
                for start, goal in pairs[1:60]:
                    path = brute_force_group_path(m, start, goal)
                    lengths = np.concatenate(([0.0], np.cumsum(np.linalg.norm(
                        np.diff(pts[path], axis=0), axis=1))))    # sequential sums
                    straight = np.linalg.norm(pts[path] - pts[goal], axis=1)
                    cut += bool(np.any(lengths + straight > lengths[-1]))
        assert cut > 100    # of 472

    def test_pairs_on_small_fits_of_the_bench_shapes(self):
        multi = 0
        for seed, name in enumerate(harness.WORKLOADS):
            rows = harness.make_inputs(harness.WORKLOADS[name], seed).train[:2000]
            for mode, radius in (("distance", 0.1), ("density", 0.2)):
                m = fit(rows, radius=radius, minpts=harness.MINPTS, merge_mode=mode)
                pairs = same_cluster_pairs(m, np.random.default_rng(seed), 25)
                assert_paths_match(m, pairs)
                multi += sum(len(brute_force_group_path(m, a, b) or ()) > 2 for a, b in pairs)
        assert multi > 50

    def test_pairs_joined_only_by_minpts_have_no_path(self):
        w = harness.WORKLOADS["many-groups"]
        m = fit(harness.make_inputs(w, 2).train[:2000], radius=0.1, minpts=harness.MINPTS)
        pairs = [(a, b) for a, b in same_cluster_pairs(m, np.random.default_rng(8), 60)
                 if brute_force_group_path(m, a, b) is None]
        assert len(pairs) >= 10
        for a, b in pairs:
            assert _shortest_group_path(m, a, b) is None
            assert _shortest_group_path(m, b, a) is None

    def test_far_pair_pops_a_tenth_of_the_unbounded_search(self, monkeypatch):
        # the unbounded search is the oracle's, which pops the same entries
        w = harness.WORKLOADS["many-groups"]
        inputs = harness.make_inputs(w, 11)
        m = harness.fit_workload(w, inputs.train)
        first, second = harness.far_pair(m, inputs.train, inputs.train_truth)
        groups = int(m.point_group[first]), int(m.point_group[second])
        path, pops = counted_pops(monkeypatch, sortclust.explain, _shortest_group_path, m, *groups)
        expected, unbounded = counted_pops(monkeypatch, _oracles, brute_force_group_path,
                                           m, *groups)
        assert path == expected and len(path) > 2
        assert pops <= 0.1 * unbounded


class TestScaleInvariance:
    """Group paths are those of scale 1 at power-of-two scales whose squared
    distances overflow or underflow float64."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_blobs(3000, 4, 3, 1.0, 2)[0]

    def test_paths_equal_scale_one(self, data):
        base = fit(data, radius=0.15, minpts=3)
        pairs = np.random.default_rng(19).integers(0, 3000, size=(200, 2)).tolist()
        paths = [explain_pair(base, i, j).structured["path"] for i, j in pairs]
        assert sum(len(p or ()) > 1 for p in paths) > 50
        text = explain_pair(base, 923, 122).structured["path_text"]
        assert text == "413 <-> 386 <-> 368 <-> 320"
        for k in (530, -530, -560):
            m = fit(np.ldexp(data, k), radius=0.15, minpts=3)
            assert np.array_equal(m.point_group, base.point_group)
            assert np.array_equal(m.merge_edges, base.merge_edges)
            assert [explain_pair(m, i, j).structured["path"] for i, j in pairs] == paths

    def test_cli_explain_is_silent_on_a_scaled_model(self, data, tmp_path):
        save_model(fit(np.ldexp(data, 530), radius=0.15, minpts=3), tmp_path / "model.json")
        done = harness.run_cli(["explain", "--model", "model.json", "--index", "923",
                                "--index2", "122"], tmp_path)
        assert done.stderr == ""
        assert "via groups 413 <-> 386 <-> 368 <-> 320." in done.stdout
