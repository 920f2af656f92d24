import numpy as np
import pytest

from sortclust.evaluation import make_blobs
from sortclust.explain import (explain_pair, explain_point, explain_summary,
                               fit_stats_text)
from sortclust.postprocess import fit, from_json, to_json


def chain_model():
    """Three one-point groups merged into one cluster along a score chain:
    adjacent gaps 1.2 pass scale*R = 1.248, the outer pair (2.4) does not."""
    return fit([[0.0], [1.2], [2.4]], radius=0.8, scale=1.3, extent="scores")


class TestSummary:
    def test_toy_counts(self):
        m = fit([[0.0], [0.1], [5.0], [5.1]], radius=0.3, extent="scores")
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
        m = fit(data, radius=0.2, minpts=2, outlier_mode="separate", extent="scores")
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

    def test_outlier_wording(self):
        data = [[0.0], [0.1], [0.2], [9.0]]
        m = fit(data, radius=0.2, minpts=2, outlier_mode="separate", extent="scores")
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
        m = fit([[0.0], [0.05], [10.0]], radius=0.5, extent="scores")
        assert m.point_group[0] == m.point_group[1]
        report = explain_pair(m, 0, 1)
        assert report.structured["path"] == [0]

    def test_different_clusters(self):
        m = fit([[0.0], [9.0]], radius=0.2, extent="scores")
        report = explain_pair(m, 0, 1)
        assert report.structured["same_cluster"] is False
        assert report.structured["path"] is None
        assert "no connection" in report.text

    def test_minpts_reassignment_has_no_path(self):
        # the point at 9 forms its own merged cluster; minPts folds it into
        # cluster #0, so no chain of merge edges joins the two groups
        m = fit([[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]], radius=0.5, minpts=2,
                extent="scores")
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
        data = [[0.0], [1.0], [2.0], [3.0]]
        m = fit(data, radius=1.4, scale=1.5, extent="scores")
        assert m.num_groups == 4 and m.num_clusters == 1
        report = explain_pair(m, 0, 3)
        assert report.structured["path"] == [0, 1, 2, 3]

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
