import base64
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sortclust import kernel, postprocess
from sortclust.aggregation import aggregate
from sortclust.evaluation import make_blobs
from sortclust.explain import explain_pair, explain_point, explain_summary
from sortclust.merging import connected_components, distance_merge
from sortclust.postprocess import (ClusterModel, apply_minpts, fit, from_json, load_model,
                                   predict, save_model, to_json)
from sortclust.prep import prepare

from _oracles import (direct_nearest, direct_sq_matrix, format1_doc, format2_doc,
                      to_json_format1)


class TestFit:
    def test_reassign_hand_trace(self):
        # R isolates the point at 9; minpts folds its singleton cluster back
        data = [[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]]
        model = fit(data, radius=0.5, minpts=2)
        assert model.labels.tolist() == [0, 0, 0, 0, 0, 0]
        assert model.cluster_sizes.tolist() == [6]

    def test_minpts_zero_and_one_are_no_ops(self):
        data = [[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]]
        base = fit(data, radius=0.5)
        assert base.labels.tolist() == [0, 0, 0, 0, 0, 1]
        for minpts in (0, 1):
            m = fit(data, radius=0.5, minpts=minpts)
            assert m.labels.tolist() == base.labels.tolist()

    def test_all_clusters_small_stays_unchanged(self):
        data = [[0.0], [5.0], [10.0]]
        m = fit(data, radius=0.1, minpts=10, outlier_mode="reassign")
        assert sorted(m.labels.tolist()) == [0, 1, 2]
        assert not np.any(m.labels == -1)

    def test_separate_mode_marks_outliers(self):
        data = [[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]]
        m = fit(data, radius=0.5, minpts=2, outlier_mode="separate")
        assert m.labels.tolist() == [0, 0, 0, 0, 0, -1]
        assert m.cluster_sizes.tolist() == [5]
        assert m.num_clusters == 1

    def test_labels_consistent_with_groups(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(80, 3))
        m = fit(data, radius=0.4)
        for g, members in enumerate(m.group_members):
            assert np.all(m.point_group[members] == g)
            assert np.all(m.labels[members] == m.group_cluster[g])

    def test_parameter_validation(self):
        data = [[0.0], [1.0]]
        with pytest.raises(ValueError):
            fit(data, radius=0.0)
        with pytest.raises(ValueError):
            fit(data, minpts=-1)
        with pytest.raises(ValueError):
            fit(data, scale=2.5)
        with pytest.raises(ValueError):
            fit(data, merge_mode="magic")
        with pytest.raises(ValueError):
            fit(data, outlier_mode="drop")

    def test_radius_whose_effective_radius_overflows(self):
        # 1e308 is a valid radius, but times the median row norm it passes
        # float64: the error names the radius given, not the inf it became
        data = make_blobs(300, 3, 3, 1.0, 0)[0]
        with pytest.raises(ValueError, match=r"radius 1e\+308 is too large: the radius "
                                             r"times the data's median row norm overflows"):
            fit(data, radius=1e308)
        assert fit(data, radius=1e300).num_groups == 1

    def test_radius_limit_is_taken_in_the_input_units(self):
        # radius * mext overflows in the input's units at 2^40 as at scale 1,
        # though not in prepare's frame; at 2^-40 it stays finite there
        data = make_blobs(300, 3, 3, 1.0, 0)[0]
        with pytest.raises(ValueError, match=r"radius 1e\+308 is too large: the radius "
                                             r"times the data's median row norm overflows"):
            fit(data * 2.0 ** 40, radius=1e308)
        small = fit(data * 2.0 ** -40, radius=1e308)
        assert small.num_groups == 1 and math.isfinite(small.r)

    def test_numbers_beyond_float64_are_no_overflow(self):
        # integers past float64's range raise ValueError, not the
        # OverflowError of converting them to a float
        data = [[0.0], [0.1], [5.0]]
        for name in ("radius", "minpts", "scale"):
            with pytest.raises(ValueError, match=f"^{name} must"):
                fit(data, **{name: 10 ** 400})
        with pytest.raises(ValueError):
            explain_point(fit(data, radius=0.2), 10 ** 400)

    @pytest.mark.parametrize("stage", ["fit", "prepare", "predict"])
    @pytest.mark.parametrize("rows, message", [
        pytest.param(np.array([[1.0 + 2.0j, 0.0], [3.0, 4.0]]), "complex", id="complex-array"),
        pytest.param([[1.0 + 2.0j, 0.0], [3.0, 4.0]], "complex", id="complex-list"),
        pytest.param([[10 ** 400, 0.0], [3.0, 4.0]], "does not convert", id="int-past-float")])
    def test_input_that_is_not_real_numbers(self, stage, rows, message):
        # numpy would drop the imaginary parts with a warning, or raise
        # TypeError or OverflowError
        run = {"fit": fit, "prepare": prepare,
               "predict": lambda q: predict(fit([[0.0, 0.0], [5.0, 5.0]]), q)}[stage]
        with pytest.raises(ValueError, match=message):
            run(rows)

    @pytest.mark.parametrize("minpts", [2.7, float("inf"), float("nan"), "3"])
    def test_minpts_is_validated_before_it_is_cast(self, minpts):
        # int() would run 2.7 as 2 and raise OverflowError on inf
        with pytest.raises(ValueError, match="minpts"):
            fit([[0.0], [1.0]], minpts=minpts)

    @pytest.mark.parametrize("name, value", [
        ("radius", "0.3"), ("radius", True), ("scale", "1.5"), ("scale", True),
        ("minpts", True), pytest.param("scale", [1.5], id="scale-list")])
    def test_arguments_are_validated_before_they_are_cast(self, name, value):
        # float() would run "0.3" as 0.3 and True as 1.0, int() True as 1
        with pytest.raises(ValueError, match=name):
            fit([[0.0], [1.0]], **{name: value})

    def test_numpy_scalars_are_accepted_and_cast(self):
        m = fit([[0.0], [0.1], [9.0]], radius=np.float32(0.5), minpts=np.int64(2),
                scale=np.float32(1.5))
        assert (type(m.config.radius), type(m.config.minpts), type(m.config.scale)) == (
            float, int, float)
        assert m.config.radius == float(np.float32(0.5)) and m.config.scale == 1.5

    def test_integral_float_minpts_is_stored_as_an_integer(self):
        m = fit([[0.0], [0.1], [9.0]], radius=0.5, minpts=2.0)
        assert type(m.config.minpts) is int and m.config.minpts == 2
        assert from_json(to_json(m)).config.minpts == 2

    def test_single_point(self):
        m = fit([[4.0, 4.0]])
        assert m.labels.tolist() == [0]
        assert m.num_groups == 1 and m.num_clusters == 1

    def test_determinism(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(100, 4))
        a = fit(data, radius=0.3, minpts=3)
        b = fit(data, radius=0.3, minpts=3)
        assert a.labels.tolist() == b.labels.tolist()
        assert a.dist_count == b.dist_count


class TestDegenerateData:
    def test_all_duplicate_points(self):
        m = fit([[2.0, 3.0]] * 7, radius=0.5, minpts=2)
        assert m.labels.tolist() == [0] * 7
        assert m.num_groups == 1 and m.num_clusters == 1
        assert m.mext == 0.0 and m.r == 0.5

    def test_colinear_data(self):
        # points on a line through varying offsets: sigma2 ~ 0, the score
        # order is the spatial order, and every window hit is a group member
        t = np.linspace(0.0, 9.0, 40)
        data = np.stack([2.0 * t + 1.0, -t + 4.0], axis=1)
        m = fit(data, radius=0.3)
        groups_sorted = [np.sort(g) for g in m.group_members]
        for g in groups_sorted:
            assert np.array_equal(g, np.arange(g[0], g[-1] + 1))

    def test_two_identical_clusters_of_duplicates(self):
        data = [[0.0]] * 5 + [[10.0]] * 5
        m = fit(data, radius=0.4)
        assert m.num_clusters == 2
        assert m.labels.tolist() == [0] * 5 + [1] * 5

    @pytest.mark.parametrize("k", [33, 40, 66, -40, -660])
    def test_absolute_radius_of_rescaled_degenerate_data(self, k):
        # more than half the centered rows are zero, so mext = 0 and the
        # radius is absolute, in the input's units: rows and radius rescaled
        # by 2^k give scale 1's labels
        base = np.array([[0.0], [0.0], [0.0], [-1.0], [1.0]])
        assert fit(base, radius=0.5).labels.tolist() == [0, 0, 0, 1, 2]
        m = fit(base * 2.0 ** k, radius=0.5 * 2.0 ** k)
        assert m.mext == 0.0 and m.r == 0.5 * 2.0 ** k
        assert m.labels.tolist() == [0, 0, 0, 1, 2]

    def test_absolute_radius_far_beyond_the_data(self):
        # radii whose frame value would overflow or underflow float64
        base = np.array([[0.0], [0.0], [0.0], [-1.0], [1.0]])
        assert fit(base * 1e-300, radius=1e10).labels.tolist() == [0] * 5
        assert fit(base * 1e300, radius=1e-300).labels.tolist() == [0, 0, 0, 1, 2]

    def test_median_norm_that_underflows_in_the_input_units(self):
        # in the frame 2^-1073 the median centered norm is 1/6, so the radius
        # is relative there, though the model's mext (1/6 of 2^-1073) reads 0;
        # the rows times 2^1000 give the same two groups
        base = np.array([[0.0], [5e-324], [5e-324]])
        for k in (0, 1000):
            m = fit(base * 2.0 ** k, radius=0.5)
            assert m.labels.tolist() == [1, 0, 0], k
        assert m.mext > 0.0 and fit(base, radius=0.5).mext == 0.0


def multiplied_in(monkeypatch, call):
    """The result of `call`, and the dtypes of every np.matmul it makes."""
    dtypes, real = set(), np.matmul

    def matmul(a, b, out=None):
        dtypes.update((a.dtype, b.dtype))
        return real(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(kernel.np, "matmul", matmul)
        got = call()
    return got, dtypes


class TestApplyMinpts:
    def test_reassign_eliminates_small_clusters(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            n = int(rng.integers(10, 150))
            d = int(rng.integers(1, 4))
            data = rng.normal(0.0, 2.0, size=(n, d))
            m = fit(data, radius=0.25, minpts=0)
            minpts = int(rng.integers(2, 8))
            m2 = fit(data, radius=0.25, minpts=minpts)
            counts = np.bincount(m2.labels)
            if np.any(m.cluster_sizes >= minpts):
                # one pass removes every undersized cluster
                assert np.all(counts[counts > 0] >= minpts)
            else:
                assert m2.labels.tolist() == m.labels.tolist()

    def test_reassignment_uses_pre_pass_sizes(self):
        # 1-D layout: cluster A of 4 points, cluster B of 2, cluster C of 1.
        # With minpts=3 only A is eligible: B and C must both land in A even
        # though B would reach the threshold if C joined it first.
        from sortclust.prep import PreparedData

        pts = np.array([[0.0], [0.1], [0.2], [0.3], [8.0], [8.1], [10.0]])
        p = PreparedData(centered=pts, mean=np.zeros(1), v1=np.ones(1),
                         scores=pts[:, 0], perm=np.arange(7),
                         sigma1=1.0, sigma2=0.0, mext=1.0)
        starts, group_of, _ = aggregate(p, 0.35)
        from sortclust.merging import distance_merge
        edges = distance_merge(p.scores[starts], p.centered[starts], 0.35, 1.5)
        sizes = np.bincount(group_of)
        cmap = connected_components(starts.size, edges, sizes)
        new_map = apply_minpts(cmap, sizes, p.centered[starts], p.scores[starts], 3,
                               "reassign")
        assert new_map.k == 1
        assert new_map.cluster_of_group[group_of].tolist() == [0] * 7

    @staticmethod
    def small_clusters(scale=1.0):
        """A distance-merged grouping with many clusters under minpts = 10:
        at scale 1, 781 of its 1,198 groups move, into 417 eligible starts.
        Also returns prepare's frame exponent."""
        data = scale * np.random.default_rng(4).normal(size=(2000, 2))
        p = prepare(data)
        r = 0.05 * p.mext
        starts, group_of, _ = aggregate(p, r)
        pts, scores = p.centered[starts], p.scores[starts]
        sizes = np.bincount(group_of)
        cmap = connected_components(starts.size, distance_merge(scores, pts, r), sizes)
        return data, (cmap, sizes, pts, scores, 10), p.e

    def test_both_searches_reassign_alike(self, monkeypatch):
        _, args, _ = self.small_clusters()
        cmap, minpts = args[0], args[-1]
        small = cmap.sizes < minpts
        assert small[cmap.cluster_of_group].sum() == 781 and (~small).sum() > 0
        calls, results = [], []

        def choosing(windows):
            def choose(queries, starts):
                calls.append((queries, windows))
                return windows
            return choose

        for windows in (True, False):
            monkeypatch.setattr(kernel, "_by_score", choosing(windows))
            results.append(apply_minpts(*args))
        assert calls == [(781, True), (781, False)]
        assert np.array_equal(results[0].cluster_of_group, results[1].cluster_of_group)
        assert np.array_equal(results[0].sizes, results[1].sizes)

    @pytest.mark.parametrize("path", ["dense", "windows"], indirect=True)
    @pytest.mark.parametrize("scale", [1e-60, 1e-30, 1.0, 1e30, 1e60])
    def test_reassigns_to_the_nearest_eligible_start_at_any_scale(self, path, scale,
                                                                 monkeypatch):
        # the searches against the direct formula's nearest eligible start,
        # on the starts in prepare's frame, where both screen in float32 at
        # every scale, and in the input's units, where they screen only
        # near scale 1
        _, (cmap, sizes, pts, scores, minpts), e = self.small_clusters(scale)
        for (a, b), screened in [((pts, scores), True),
                                 ((np.ldexp(pts, e), np.ldexp(scores, e)), scale == 1.0)]:
            args = (cmap, sizes, a, b, minpts)
            got, dtypes = multiplied_in(monkeypatch, lambda: apply_minpts(*args))
            with monkeypatch.context() as patch:
                patch.setattr(postprocess, "nearest", lambda A, B, *rest: direct_nearest(A, B))
                expected = apply_minpts(*args)
            assert np.array_equal(got.cluster_of_group, expected.cluster_of_group)
            assert np.array_equal(got.sizes, expected.sizes)
            assert dtypes == ({np.dtype(np.float32)} if screened else set())

    def test_fewer_than_2048_eligible_starts_are_searched_densely(self, monkeypatch):
        # one product search of the moved groups against every eligible
        # start, and no score windows
        data, (cmap, *_, minpts), _ = self.small_clusters()
        eligible = int((cmap.sizes[cmap.cluster_of_group] >= minpts).sum())
        assert eligible < 2048
        calls, choices = [], []
        real, real_choice = kernel._nearest, kernel._by_score

        def recording(A, half_a, B, b32, b64):
            calls.append((A.shape[0], B.shape[0]))
            return real(A, half_a, B, b32, b64)

        def choosing(queries, starts):
            choices.append(real_choice(queries, starts))
            return choices[-1]

        monkeypatch.setattr(kernel, "_nearest", recording)
        monkeypatch.setattr(kernel, "_by_score", choosing)
        m = fit(data, radius=0.05, minpts=minpts)
        assert choices == [False]
        assert calls == [(781, eligible)]
        assert np.all(m.cluster_sizes >= minpts)

    def test_separate_renumbers_survivors(self):
        data = [[0.0], [0.1], [5.0], [5.1], [5.2], [9.0]]
        m = fit(data, radius=0.2, minpts=2, outlier_mode="separate")
        # survivors: the size-3 cluster gets id 0, the size-2 cluster id 1
        assert m.labels.tolist() == [1, 1, 0, 0, 0, -1]

    def test_mode_validation(self):
        from sortclust.prep import prepare

        data = [[0.0], [1.0]]
        m = fit(data)
        starts, group_of, _ = aggregate(prepare(data), m.r)
        sizes = np.bincount(group_of)
        cmap = connected_components(starts.size, np.empty((0, 2), dtype=np.int64), sizes)
        with pytest.raises(ValueError):
            apply_minpts(cmap, sizes, m.starting_points, m.starting_scores, 2, "purge")


class TestPredict:
    def test_starting_point_maps_to_own_cluster(self):
        data, _ = make_blobs(300, 3, 3, 0.4, 11)
        m = fit(data, radius=0.4)
        # a query equal to a starting point lands in that group's cluster
        raw_starts = m.starting_points + m.mean
        pred = predict(m, raw_starts)
        assert pred.tolist() == m.group_cluster.tolist()

    def test_eligible_starts_are_prepared_once_per_model(self, monkeypatch):
        # by the first predict call, not by the fit or a load
        eligible = ClusterModel.__dict__["_eligible"]
        build, built = eligible.func, []
        monkeypatch.setattr(eligible, "func", lambda model: built.append(model) or build(model))
        data, _ = make_blobs(300, 3, 3, 0.4, 11)
        m = fit(data, radius=0.4)
        reloaded = from_json(to_json(m))
        assert built == []
        first = predict(m, data[:20])
        assert np.array_equal(predict(m, data[:20]), first)
        assert built == [m]
        assert np.array_equal(predict(reloaded, data[:20]), first)
        assert built == [m, reloaded]

    def test_queries_whose_centering_overflows_are_silent(self):
        # means near -1.45e308 (a framed model) and 1e308 (an unframed one:
        # its starts differ in the second column only): q - mean overflows to
        # inf with no numpy warning (warnings are errors here), and the inf
        # query ties with every start, so the first eligible start's cluster wins
        framed = fit([[-1.5e308, 1.0], [-1.4e308, 1.0], [-1.45e308, 2.0]], radius=0.3)
        assert framed._eligible[5] != 0
        assert predict(framed, [[1.7e308, 0.0]]).tolist() == [framed.group_cluster[0]]
        flat = fit([[1e308, 0.0], [1e308, 1.0], [1e308, 2.0]], radius=0.3)
        eligible, pts, *_, e, wide = flat._eligible
        assert e == 0 and wide and np.abs(pts).max() == 1.0
        queries = [[1e308, 0.9], [-1e308, 0.0], [1e308, 2.2], [-1.7e308, 5.0]]
        assert predict(flat, queries).tolist() == [1, 0, 2, 0]
        assert flat.labels.tolist() == [0, 1, 2]
        # with every entry of the mean below 2^970 (about 1e292) nothing can
        # overflow, and predict takes no errstate
        below = fit([[2.0 ** 969, 0.0], [2.0 ** 969, 1.0], [2.0 ** 969, 2.0]], radius=0.3)
        assert below._eligible[-2:] == (0, False)

    def test_one_dimensional_nearest(self):
        data = [[0.0], [0.2], [5.0], [5.2]]
        m = fit(data, radius=0.3)
        assert m.num_clusters == 2
        cluster_of_high = m.labels[2]
        pred = predict(m, [[4.0]])
        assert pred.tolist() == [cluster_of_high]

    def test_dimension_mismatch(self):
        m = fit([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            predict(m, [[1.0]])
        with pytest.raises(ValueError):
            predict(m, [1.0, 2.0])

    def test_never_outlier_with_surviving_clusters(self):
        data = [[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]]
        m = fit(data, radius=0.5, minpts=2, outlier_mode="separate")
        pred = predict(m, [[9.0], [100.0], [0.0]])
        assert np.all(pred >= 0)

    def test_degenerate_all_outlier_model(self):
        m = fit([[0.0], [5.0]], radius=0.1, minpts=5, outlier_mode="separate")
        assert predict(m, [[1.0]]).tolist() == [-1]

    def test_training_points_recover_labels(self):
        data, _ = make_blobs(500, 4, 4, 0.5, 2)
        m = fit(data, radius=0.3, minpts=3)
        assert np.array_equal(predict(m, data), m.labels)

    @staticmethod
    def nearest_clusters(m, queries):
        """The cluster of each query's nearest eligible start, by the direct formula."""
        eligible = np.nonzero(m.group_cluster >= 0)[0]
        near = direct_nearest(np.asarray(queries) - m.mean, m.starting_points[eligible])
        return m.group_cluster[eligible[near]]

    @pytest.mark.parametrize("block_rows", [1, 7, 1000])
    def test_blocks_give_the_nearest_start(self, monkeypatch, block_rows):
        # several row blocks, a partial last one, and a single block
        data, _ = make_blobs(600, 3, 4, 0.5, 9)
        m = fit(data, radius=0.1)
        queries = np.random.default_rng(4).normal(0.0, 3.0, size=(100, 3))
        monkeypatch.setattr(kernel, "_BLOCK", m.num_groups * block_rows)
        assert np.array_equal(predict(m, queries), self.nearest_clusters(m, queries))

    @pytest.mark.parametrize("block", [1, 2, 20])
    def test_column_chunks_give_the_nearest_start(self, monkeypatch, block):
        # a budget below the group count splits the starts into column chunks
        data, _ = make_blobs(600, 3, 4, 0.5, 9)
        m = fit(data, radius=0.1)
        assert m.num_groups > 2 * block
        queries = np.random.default_rng(5).normal(0.0, 3.0, size=(60, 3))
        monkeypatch.setattr(kernel, "_BLOCK", block)
        assert np.array_equal(predict(m, queries), self.nearest_clusters(m, queries))

    def test_own_rows_far_from_the_origin(self):
        # each row is its own group; unit gaps 1e9 from the origin are far
        # below the rounding of the expanded form there
        data = [[-1e9], [-1e9 + 1], [1e9], [1e9 + 1]]
        m = fit(data, radius=1e-10)
        assert m.labels.tolist() == [0, 1, 2, 3]
        assert predict(m, data).tolist() == [0, 1, 2, 3]

    def test_far_from_the_origin_equals_the_direct_formula(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            centre = rng.normal(size=d)
            centre *= 10.0 ** rng.uniform(6, 10) / np.linalg.norm(centre)
            data = np.vstack([centre + rng.normal(size=(30, d)),
                              -centre + rng.normal(size=(30, d))])
            m = fit(data, radius=1e-10)
            queries = np.vstack([data, centre + rng.normal(size=(20, d))])
            assert np.array_equal(predict(m, queries), self.nearest_clusters(m, queries))

    def test_exact_ties_far_from_the_origin_skip_outliers(self):
        # groups A and B (3 rows each) are exactly 5 from the query, the
        # outlier group O (2 rows, below minpts) lies between them in score
        # order and 1 from the query; the data is mirrored, so the mean is 0.
        # At this centre the expanded form ranks the larger tied index first.
        centre = np.array([105594974.0, -153161677.0])
        half = np.array([(5.0, 0.0)] * 3 + [(-5.0, 0.0)] * 3 + [(-1.0, 0.0)] * 2) + centre
        m = fit(np.vstack([half, -half]), radius=1e-10, minpts=3, outlier_mode="separate")
        query = centre[None, :]
        sq = direct_sq_matrix(query - m.mean, m.starting_points)[0]
        tied = np.nonzero(sq == 25.0)[0]
        outlier = np.nonzero(sq == 1.0)[0]
        assert tied.size == 2 and outlier.size == 1 and tied[0] < outlier[0] < tied[1]
        assert m.group_cluster[outlier[0]] == -1
        assert m.group_cluster[tied[0]] != m.group_cluster[tied[1]]
        assert predict(m, query).tolist() == [m.group_cluster[tied[0]]]

    def test_no_query_rows(self):
        m = fit([[0.0, 0.0], [1.0, 1.0]])
        out = predict(m, np.empty((0, 2)))
        assert out.dtype == np.int64 and out.shape == (0,)


PATHS = ["dense", "windows"]


@pytest.fixture
def path(request, monkeypatch):
    """Send every predict call of the test down one search."""
    monkeypatch.setattr(kernel, "_by_score", lambda queries, starts: request.param == "windows")
    return request.param


class TestPredictPaths:
    """Both searches of predict give the direct formula's nearest eligible start."""

    def test_rule_on_the_benchmark_shapes(self):
        # many-groups: 16-row calls stay dense, the 1k query rows take the
        # windows; few-groups (395 starts) stays dense at 10k query rows
        assert not kernel._by_score(16, 12_151)
        assert kernel._by_score(1_000, 12_151)
        assert not kernel._by_score(10_000, 395)
        assert not kernel._by_score(0, 12_151)

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_exact_ties_far_from_the_origin(self, path):
        # every start lies exactly 5 from one of the queries, in all
        # directions of the ring, 1e8 from the origin; mirrored, so the mean
        # is 0 and each row is its own group
        centre = np.array([105594974.0, -153161677.0])
        ring = np.array([(3.0, 4.0), (-4.0, 3.0), (5.0, 0.0), (0.0, -5.0), (-3.0, -4.0),
                         (4.0, -3.0), (-5.0, 0.0), (0.0, 5.0)])
        half = centre + ring
        m = fit(np.vstack([half, -half]), radius=1e-10)
        assert m.num_groups == 16 and not m.mean.any()
        queries = np.array([centre, -centre, centre + (1.0, 0.0), -centre - (0.0, 1.0)])
        sq = direct_sq_matrix(queries, m.starting_points)
        assert (sq[:2] == 25.0).sum() == 16
        expected = TestPredict.nearest_clusters(m, queries)
        assert np.array_equal(predict(m, queries), expected)
        assert np.array_equal(predict(m, np.repeat(queries, 50, axis=0)),
                              np.repeat(expected, 50))

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_starts_are_prepared_once_per_model(self, path, monkeypatch):
        # the eligible starts' screens and window pad come with the model
        # (from fit or from_json, made once); a call computes those of its
        # queries only
        data, _ = make_blobs(400, 3, 4, 1.0, 2)
        fitted = fit(data, radius=0.1, minpts=4, merge_mode="density", outlier_mode="separate")
        models, queries, rows = (fitted, from_json(to_json(fitted))), data[:16] + 0.01, []
        for m in models:
            m._eligible

        def recording(fn):
            def wrapped(points, *rest):
                rows.append(points.shape[0])
                return fn(points, *rest)
            return wrapped

        monkeypatch.setattr(kernel, "half_sq_norms", recording(kernel.half_sq_norms))
        monkeypatch.setattr(kernel, "window_pad", recording(kernel.window_pad))
        monkeypatch.setattr(kernel, "screen", recording(kernel.screen))
        for m in models:
            assert np.array_equal(predict(m, queries), TestPredict.nearest_clusters(m, queries))
        assert rows and max(rows) == queries.shape[0]

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_queries_are_scored_only_for_the_windows(self, path, monkeypatch):
        # predict hands kernel.nearest a function that scores the queries;
        # the dense search never reads the scores, so it never calls it
        data, _ = make_blobs(400, 3, 4, 1.0, 2)
        m = fit(data, radius=0.1)
        queries, scored, real = data[:40] + 0.01, [], kernel.nearest

        def spying(A, B, score_a, *rest):
            def scoring(points):
                scored.append(points.shape[0])
                return score_a(points)
            return real(A, B, scoring, *rest)

        monkeypatch.setattr(postprocess, "nearest", spying)
        assert np.array_equal(predict(m, queries), TestPredict.nearest_clusters(m, queries))
        assert scored == ([] if path == "dense" else [queries.shape[0]])

    def test_windows_score_the_queries_as_before(self, monkeypatch):
        # the windows' labels are those of the queries' scores computed up
        # front, (q - mean) @ v1 / |v1|, with v1 as far off unit length as a
        # model may be
        monkeypatch.setattr(kernel, "_by_score", lambda queries, starts: True)
        data, _ = make_blobs(600, 3, 4, 1.0, 6)
        doc = format1_doc(json.loads(to_json(fit(data, radius=0.05))))
        for key in ("v1", "starting_scores"):
            doc[key] = [(1.0 + 5e-7) * x for x in doc[key]]
        m = from_json(json.dumps(format2_doc(doc)))
        eligible, pts, screened, norm, scores, e, wide = m._eligible
        assert norm != 1.0 and e == 0 and not wide
        queries = np.random.default_rng(34).normal(0.0, 3.0, size=(200, 3))
        q = queries - m.mean
        near = kernel.nearest(q, pts, (q @ m.v1) / norm, scores, screened)
        assert np.array_equal(predict(m, queries), m.group_cluster[eligible[near]])

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_random_fits_with_outlier_groups(self, path):
        # density merging leaves small clusters, which "separate" mode drops,
        # so the eligible starts are a strict subset of the starts
        rng = np.random.default_rng(31)
        for seed in range(4):
            data, _ = make_blobs(300, 3, 4, 1.0, seed)
            m = fit(data, radius=0.1, minpts=4, merge_mode="density", outlier_mode="separate")
            assert 0 < np.count_nonzero(m.group_cluster < 0) < m.num_groups
            queries = np.vstack([data[::3], rng.normal(0.0, 4.0, size=(60, 3))])
            assert np.array_equal(predict(m, queries), TestPredict.nearest_clusters(m, queries))

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    @pytest.mark.parametrize("scale", [1e-60, 1e-30, 1.0, 1e30, 1e60])
    def test_float32_screen_at_every_scale(self, path, scale, monkeypatch):
        # 2,440 starts against 400 queries: in the frame of the starts, the
        # screen multiplies in float32 at every scale, where s in data units
        # would lie outside [2^-100, 2^100) at 1e-30 and beyond
        data, _ = make_blobs(3400, 3, 4, 1.0, 9)
        m = fit(scale * data[:3000], radius=0.02)
        assert m.num_groups == 2440
        queries = scale * np.vstack([data[3000:], data[:3000:300] + 0.01])
        labels, dtypes = multiplied_in(monkeypatch, lambda: predict(m, queries))
        assert np.array_equal(labels, TestPredict.nearest_clusters(m, queries))
        assert dtypes == {np.dtype(np.float32)}

    @pytest.mark.parametrize("far", [1e60, 1e200])
    def test_a_query_far_outside_an_in_range_model(self, far, monkeypatch):
        # 16 queries against 2,440 starts make one screened block; a query
        # far outside the starts' frame (1e60 or 1e200) sends its block to
        # the direct formula, with no product
        data, _ = make_blobs(3400, 3, 4, 1.0, 9)
        m = fit(data[:3000], radius=0.02)
        queries = data[3000:3016].copy()
        labels, dtypes = multiplied_in(monkeypatch, lambda: predict(m, queries))
        assert np.array_equal(labels, TestPredict.nearest_clusters(m, queries))
        assert dtypes == {np.dtype(np.float32)}
        queries[5] = far * np.array([0.6, -0.8, 0.0])
        labels, dtypes = multiplied_in(monkeypatch, lambda: predict(m, queries))
        assert np.array_equal(labels, TestPredict.nearest_clusters(m, queries))
        assert dtypes == set()

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_a_query_past_float64_in_the_frame_of_a_tiny_model(self, path):
        # starts near 1e-300 frame the queries by about 2^997: a query at
        # 1e300 overflows to inf there, with no numpy warning, and ties with
        # every start at inf, as in the input's units, so the first eligible
        # start's cluster wins (9 here); the queries beside it keep theirs
        x = np.random.default_rng(0).normal(size=(50, 3))
        m = fit(1e-300 * x, radius=0.3)
        first = int(m.group_cluster[np.flatnonzero(m.group_cluster >= 0)[0]])
        near = 1e-300 * x[:5]
        far = [[1e300, 1e300, 1e300], [1e300, -1e300, 0.0]]
        got = predict(m, np.vstack([far, near]))
        assert got.tolist() == [first, first] + predict(m, near).tolist()
        assert first == 9

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_queries_far_outside_the_data(self, path):
        # the score windows of such queries cover every start
        data, _ = make_blobs(400, 4, 4, 0.5, 7)
        m = fit(data, radius=0.1)
        rng = np.random.default_rng(32)
        directions = rng.normal(size=(40, 4))
        queries = directions * (10.0 ** rng.uniform(2, 8, size=(40, 1)))
        assert np.array_equal(predict(m, queries), TestPredict.nearest_clusters(m, queries))

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_v1_off_unit_length_as_far_as_a_model_may_be(self, path):
        # from_json admits |v1| within 1e-6 of 1; in 1-D each score gap is
        # then |v1| times the distance, beyond the rounding the windows allow
        doc = format1_doc(json.loads(to_json(fit([[0.0], [10.0], [20.0], [30.0]],
                                                 radius=1e-3))))
        stretch = 1.0 + 5e-7
        doc["v1"] = [stretch * x for x in doc["v1"]]
        doc["starting_scores"] = [stretch * x for x in doc["starting_scores"]]
        m = from_json(json.dumps(format2_doc(doc)))
        assert m.num_groups == 4
        queries = np.array([[4.9], [14.9], [25.1], [-3.0], [33.0]])
        expected = TestPredict.nearest_clusters(m, queries)
        assert expected.tolist() == m.group_cluster[[0, 1, 3, 0, 3]].tolist()
        assert np.array_equal(predict(m, queries), expected)
        # alone, a query's window is not widened by the others'
        assert [predict(m, row[None])[0] for row in queries] == expected.tolist()

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_one_start(self, path):
        data, _ = make_blobs(100, 3, 2, 0.5, 8)
        m = fit(data, radius=100.0)
        assert m.num_groups == 1
        queries = np.random.default_rng(33).normal(0.0, 5.0, size=(30, 3))
        assert predict(m, queries).tolist() == [0] * 30

    @pytest.mark.parametrize("path", PATHS, indirect=True)
    def test_no_query_rows(self, path):
        data, _ = make_blobs(100, 3, 2, 0.5, 8)
        out = predict(fit(data, radius=0.1), np.empty((0, 3)))
        assert out.dtype == np.int64 and out.shape == (0,)


class TestConcurrentUse:
    def test_predict_and_explain_share_a_model(self):
        from concurrent.futures import ThreadPoolExecutor

        from sortclust.explain import explain_point

        data, _ = make_blobs(400, 3, 4, 0.5, 6)
        m = fit(data, radius=0.3, minpts=3)
        chunks = [data[i::8] for i in range(8)]
        serial = [predict(m, c).tolist() for c in chunks]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda c: predict(m, c).tolist(), chunks))
            points = list(pool.map(lambda i: explain_point(m, i).structured["cluster"],
                                   range(100)))
        assert parallel == serial
        assert points == m.labels[:100].tolist()


# A model document in format 1, written by the package's format-1 writer
# (now `_oracles.to_json_format1`) from the fit of `format1_fixture_fit`.
FORMAT1_FIXTURE = Path(__file__).parent / "data" / "model_format1.json"


def format1_fixture_fit():
    data, _ = make_blobs(60, 2, 3, 0.6, 3)
    return data, fit(data, radius=0.15, minpts=4, outlier_mode="separate")


class TestSerialization:
    @pytest.mark.parametrize("num_groups", [1, 200, 300, 70_000])
    def test_member_lists_for_every_id_width(self, num_groups):
        # group ids fit uint8, uint16 or uint32; some groups are empty
        rng = np.random.default_rng(num_groups)
        point_group = rng.integers(0, num_groups, size=5_000)
        m = dataclasses.replace(fit(rng.normal(size=(5_000, 2)), radius=0.5),
                                point_group=point_group,
                                starting_scores=np.zeros(num_groups))
        expected = [[] for _ in range(num_groups)]
        for row, g in enumerate(point_group.tolist()):
            expected[g].append(row)
        assert format1_doc(json.loads(to_json(m)))["group_members"] == expected
        assert [members.tolist() for members in m.group_members] == expected

    def test_round_trip_exact(self, tmp_path):
        data, _ = make_blobs(200, 3, 3, 0.6, 5)
        m = fit(data, radius=0.37, minpts=4, scale=1.25, merge_mode="density",
                outlier_mode="separate")
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        assert m2.config == m.config
        assert m2.mean.tolist() == m.mean.tolist()
        assert m2.v1.tolist() == m.v1.tolist()
        assert m2.mext == m.mext
        assert m2.starting_points.tolist() == m.starting_points.tolist()
        assert m2.starting_scores.tolist() == m.starting_scores.tolist()
        assert all(a.tolist() == b.tolist()
                   for a, b in zip(m2.group_members, m.group_members))
        assert m2.group_cluster.tolist() == m.group_cluster.tolist()
        assert m2.cluster_sizes.tolist() == m.cluster_sizes.tolist()
        assert np.array_equal(m2.merge_edges, m.merge_edges)
        assert m2.labels.tolist() == m.labels.tolist()
        assert (m2.dist_count, m2.n, m2.d) == (m.dist_count, m.n, m.d)

    def test_format2_is_format1_in_base64(self):
        # each array of the format-1 document, as base64 of its little-endian values
        data, _ = make_blobs(200, 3, 3, 0.6, 5)
        m = fit(data, radius=0.37, minpts=4, merge_mode="density", outlier_mode="separate")
        assert m.merge_edges.size > 0
        doc, doc1 = json.loads(to_json(m)), json.loads(to_json_format1(m))
        assert doc["version"] == 2 and doc == format2_doc(doc1)
        assert format1_doc(doc) == doc1

    def test_format1_fixture_loads_to_its_fit(self):
        text = FORMAT1_FIXTURE.read_text(encoding="utf-8")
        data, fitted = format1_fixture_fit()
        assert text == to_json_format1(fitted) + "\n"
        assert fitted.merge_edges.size > 0 and (fitted.labels == -1).any()
        m = load_model(FORMAT1_FIXTURE)
        assert (m.config, m.mext, m.dist_count) == (fitted.config, fitted.mext, fitted.dist_count)
        for name in ("mean", "v1", "starting_points", "starting_scores", "group_cluster",
                     "cluster_sizes", "merge_edges", "point_group", "labels"):
            a, b = getattr(m, name), getattr(fitted, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        assert to_json(m) == to_json(fitted)
        queries = np.random.default_rng(12).normal(0.0, 4.0, size=(200, 2)) + fitted.mean
        assert predict(m, queries).tolist() == predict(fitted, queries).tolist()
        assert explain_summary(m).text == explain_summary(fitted).text
        for i in range(m.n):
            assert explain_point(m, i).text == explain_point(fitted, i).text
            for j in range(0, m.n, 7):
                assert explain_pair(m, i, j).text == explain_pair(fitted, i, j).text

    def test_schema_fields(self):
        m = fit([[0.0], [0.5], [9.0]], radius=0.4)
        doc = json.loads(to_json(m))
        assert set(doc) == {"version", "config", "mean", "v1", "mext",
                            "starting_points", "starting_scores", "group_members",
                            "group_cluster", "cluster_sizes", "merge_edges", "stats"}
        assert set(doc["config"]) == {"radius", "minPts", "scale", "merge_mode",
                                      "outlier_mode"}
        assert set(doc["stats"]) == {"dist_count", "n", "d"}

    def test_predictions_survive_round_trip(self):
        data, _ = make_blobs(300, 3, 3, 0.5, 9)
        m = fit(data, radius=0.35)
        m2 = from_json(to_json(m))
        queries = data[::7]
        assert predict(m2, queries).tolist() == predict(m, queries).tolist()

    def test_version_check(self):
        m = fit([[0.0], [1.0]])
        doc = json.loads(to_json(m))
        doc["version"] = 99
        with pytest.raises(ValueError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_a_json_integer(self, version):
        # true and 1.0 equal 1 in Python, but the version is a JSON integer
        doc = json.loads(to_json(fit([[0.0], [1.0]])))
        doc["version"] = version
        with pytest.raises(ValueError, match="unsupported model version"):
            from_json(json.dumps(doc))


def _replace_member(doc, source_group, target_group):
    """Swap the first member of target_group for the first of source_group:
    one row then sits in two groups and another in none."""
    doc["group_members"][target_group][0] = doc["group_members"][source_group][0]


def _shift(values, index, by):
    values[index] += by


def _negative_cluster_size(doc):
    """The last cluster's size -1, the rows it loses given to cluster 0, so
    the sizes still add up to n."""
    sizes = doc["cluster_sizes"]
    sizes[0] += sizes[-1] + 1
    sizes[-1] = -1


def _empty_group(doc):
    """Group 0's rows moved into group 1: the rows are still partitioned,
    but group 0 holds none, not even its starting row."""
    members = doc["group_members"]
    members[1] += members[0]
    members[0] = []


def strip_rows(doc):
    """A model of no rows: every group empty, n and every cluster size 0."""
    doc["group_members"] = [[] for _ in doc["group_members"]]
    doc["cluster_sizes"] = [0] * len(doc["cluster_sizes"])
    doc["stats"]["n"] = 0


def _unsort_scores(doc):
    """Swap two starting points with different scores, and their scores:
    each score still belongs to its point, but they are out of order."""
    scores, points = doc["starting_scores"], doc["starting_points"]
    i = next(i for i in range(len(scores) - 1) if scores[i] < scores[i + 1])
    scores[i], scores[i + 1] = scores[i + 1], scores[i]
    points[i], points[i + 1] = points[i + 1], points[i]


def _scale_v1(doc):
    """v1 and the scores 0.1% longer: the scores are still the points' own."""
    doc["v1"] = [1.001 * x for x in doc["v1"]]
    doc["starting_scores"] = [1.001 * s for s in doc["starting_scores"]]


# Faults in a document's structure, which both formats must reject: keys,
# shapes, ids and rows out of range, non-finite floats, scalars, and what the
# score windows of predict trust. Format 2 takes them decoded to lists,
# changed and encoded again.
CORRUPTIONS = [
    pytest.param(lambda doc: doc.pop("config"), id="missing-config"),
    pytest.param(lambda doc: doc["config"].pop("radius"), id="missing-config-key"),
    pytest.param(lambda doc: doc["stats"].pop("n"), id="missing-stats-key"),
    pytest.param(lambda doc: doc.pop("group_members"), id="missing-members"),
    pytest.param(lambda doc: doc.update(config=[]), id="config-not-object"),
    pytest.param(lambda doc: doc.update(mean=doc["mean"][:-1]), id="short-mean"),
    pytest.param(lambda doc: doc.update(v1=doc["v1"] + [0.0]), id="long-v1"),
    pytest.param(lambda doc: doc.update(starting_points=doc["starting_points"][:-1]),
                 id="missing-starting-point"),
    pytest.param(lambda doc: doc.update(
        starting_points=[p[:-1] for p in doc["starting_points"]]), id="narrow-starting-points"),
    pytest.param(lambda doc: doc.update(starting_scores=doc["starting_scores"][:-1]),
                 id="short-starting-scores"),
    pytest.param(lambda doc: doc.update(group_cluster=doc["group_cluster"][:-1]),
                 id="short-group-cluster"),
    pytest.param(lambda doc: doc["group_members"][0].pop(), id="dropped-member"),
    pytest.param(lambda doc: _replace_member(doc, 0, 1), id="duplicated-member"),
    pytest.param(lambda doc: doc["group_members"][0].append(doc["stats"]["n"]),
                 id="member-out-of-range"),
    pytest.param(lambda doc: doc["group_cluster"].__setitem__(0, len(doc["cluster_sizes"])),
                 id="cluster-id-too-large"),
    pytest.param(lambda doc: doc["group_cluster"].__setitem__(0, -2), id="cluster-id-below-minus-one"),
    # explain_summary would report a negative outlier count
    pytest.param(lambda doc: _shift(doc["cluster_sizes"], 0, 1), id="cluster-size-off-by-one"),
    pytest.param(_negative_cluster_size, id="negative-cluster-size"),
    pytest.param(lambda doc: doc["merge_edges"].append([0, len(doc["group_cluster"])]),
                 id="edge-endpoint-too-large"),
    pytest.param(lambda doc: doc["merge_edges"].append([-1, 0]), id="edge-endpoint-negative"),
    pytest.param(lambda doc: doc.update(merge_edges=[[0, 1, 2]]), id="edge-not-a-pair"),
    # non-integral counts would otherwise be truncated, booleans cast to 0 or 1
    pytest.param(lambda doc: doc["config"].update(minPts=2.7), id="fractional-minpts"),
    pytest.param(lambda doc: doc["config"].update(minPts=True), id="boolean-minpts"),
    pytest.param(lambda doc: _shift(doc["stats"], "dist_count", 0.9), id="fractional-dist-count"),
    pytest.param(lambda doc: _shift(doc["stats"], "n", 0.5), id="fractional-n"),
    pytest.param(lambda doc: _shift(doc["stats"], "d", 0.5), id="fractional-d"),
    pytest.param(lambda doc: doc["stats"].update(dist_count=-1), id="negative-dist-count"),
    # float fields must be finite JSON numbers; float() would cast strings
    # and booleans, and a NaN or infinity would load
    pytest.param(lambda doc: doc.update(mext=-3.0), id="negative-mext"),
    pytest.param(lambda doc: doc.update(mext=float("nan")), id="nan-mext"),
    pytest.param(lambda doc: doc.update(mext="2.5"), id="string-mext"),
    pytest.param(lambda doc: doc.update(mext=[doc["mext"]]), id="list-mext"),
    pytest.param(lambda doc: doc["starting_points"][0].__setitem__(0, float("nan")),
                 id="nan-starting-point"),
    pytest.param(lambda doc: doc["starting_scores"].__setitem__(0, float("inf")),
                 id="infinite-starting-score"),
    pytest.param(lambda doc: doc["config"].update(radius="0.2"), id="string-radius"),
    pytest.param(lambda doc: doc["config"].update(scale=True), id="boolean-scale"),
    # the score windows of predict would miss the nearest start
    pytest.param(_unsort_scores, id="unsorted-starting-scores"),
    pytest.param(lambda doc: doc.update(starting_scores=[s + 1e-6 for s in doc["starting_scores"]]),
                 id="scores-off-the-points"),
    pytest.param(_scale_v1, id="non-unit-v1"),
]

# Faults in format 1's number lists, which format 2's bytes cannot hold.
LIST_CORRUPTIONS = [
    pytest.param(lambda doc: doc["group_members"].__setitem__(0, 3), id="member-list-not-list"),
    # non-integral ids would otherwise be truncated to a valid id
    pytest.param(lambda doc: _shift(doc["group_members"][0], 0, 0.7), id="fractional-member"),
    pytest.param(lambda doc: _shift(doc["group_cluster"], 0, 0.5), id="fractional-cluster-id"),
    pytest.param(lambda doc: _shift(doc["cluster_sizes"], 0, 0.5), id="fractional-cluster-size"),
    pytest.param(lambda doc: _shift(doc["merge_edges"][0], 1, 0.5), id="fractional-edge-endpoint"),
    pytest.param(lambda doc: doc["group_cluster"].__setitem__(0, True), id="boolean-cluster-id"),
    pytest.param(lambda doc: doc["group_members"][0].__setitem__(0, False),
                 id="boolean-member"),
    pytest.param(lambda doc: doc["cluster_sizes"].__setitem__(0, True), id="boolean-cluster-size"),
    pytest.param(lambda doc: doc["merge_edges"][0].__setitem__(1, True),
                 id="boolean-edge-endpoint"),
    pytest.param(lambda doc: doc["mean"].__setitem__(0, str(doc["mean"][0])),
                 id="string-mean-coordinate"),
    pytest.param(lambda doc: doc["v1"].__setitem__(0, True), id="boolean-v1-coordinate"),
    pytest.param(lambda doc: doc["starting_points"][0].__setitem__(0, "0.5"),
                 id="string-starting-point"),
]


def _edit_bytes(doc, key, edit):
    """Replace the bytes of format-2 field `key` by `edit` of them."""
    doc[key] = base64.b64encode(edit(base64.b64decode(doc[key]))).decode("ascii")


def _edit_values(doc, key, dtype, edit):
    """Apply `edit` to the values of format-2 field `key`, in place."""
    def edited(raw):
        values = np.frombuffer(raw, dtype=dtype).copy()
        edit(values)
        return values.tobytes()
    _edit_bytes(doc, key, edited)


def _set_end(doc, group, value):
    """Set the end of `group` in format 2's `group_members`."""
    n = doc["stats"]["n"]
    _edit_values(doc, "group_members", "<i8", lambda v: v[n:].__setitem__(group, value))


# Faults in format 2's encoding, and the start of the message each raises.
NOT_FINITE = "mean, v1, starting_points and starting_scores must be finite"
ENCODING_FAULTS = [
    pytest.param(lambda doc: doc.update(mean="*" + doc["mean"][1:]),
                 "mean must be a base64 string", id="character-outside-the-alphabet"),
    pytest.param(lambda doc: doc.update(v1="\u00e9" + doc["v1"][1:]),
                 "v1 must be a base64 string", id="non-ascii-character"),
    pytest.param(lambda doc: doc.update(mean=doc["mean"][:4] + "\n" + doc["mean"][4:]),
                 "mean must be a base64 string", id="line-break"),
    pytest.param(lambda doc: doc.update(starting_scores=doc["starting_scores"][:-1]),
                 "starting_scores must be a base64 string", id="incomplete-base64"),
    pytest.param(lambda doc: _edit_bytes(doc, "starting_scores", lambda raw: raw + bytes(4)),
                 "starting_scores must hold 6 values", id="bytes-not-a-multiple-of-8"),
    pytest.param(lambda doc: _edit_bytes(doc, "starting_points", lambda raw: raw[:-8]),
                 "starting_points must hold 12 values", id="bytes-off-the-shape"),
    pytest.param(lambda doc: _edit_bytes(doc, "merge_edges", lambda raw: raw + bytes(8)),
                 "merge_edges must hold a multiple of 2 values", id="half-an-edge"),
    pytest.param(lambda doc: _edit_bytes(doc, "group_members", lambda raw: raw[:80]),
                 "group_members must hold 200 rows", id="fewer-members-than-rows"),
    pytest.param(lambda doc: _edit_values(doc, "v1", "<f8", lambda v: v.__setitem__(0, np.nan)),
                 NOT_FINITE, id="nan-bytes"),
    pytest.param(lambda doc: _edit_values(doc, "mean", "<f8", lambda v: v.__setitem__(1, np.inf)),
                 NOT_FINITE, id="infinite-bytes"),
    pytest.param(lambda doc: _edit_values(doc, "starting_points", "<f8",
                                          lambda v: v.__setitem__(-1, -np.inf)),
                 NOT_FINITE, id="negative-infinite-bytes"),
    pytest.param(lambda doc: _edit_values(doc, "v1", "<f8", lambda v: v.__setitem__(0, 1e300)),
                 "v1 must have unit norm", id="v1-whose-norm-overflows"),
    pytest.param(lambda doc: _edit_values(doc, "starting_points", "<f8",
                                          lambda v: v.__setitem__(slice(0, 2), (1.7e308,
                                                                                -1.7e308))),
                 "starting_points must have norms within", id="starting-point-past-float64"),
    pytest.param(lambda doc: _edit_values(doc, "starting_points", "<f8",
                                          lambda v: v.__setitem__(slice(0, 2), 1.7e308)),
                 "starting_points must have norms within", id="score-past-float64"),
    pytest.param(lambda doc: _set_end(doc, 0, -1),
                 "group_members must partition", id="negative-group-end"),
    pytest.param(lambda doc: _set_end(doc, 0, doc["stats"]["n"]),
                 "group_members must partition", id="decreasing-group-ends"),
    pytest.param(lambda doc: _set_end(doc, -1, 2 ** 62),
                 "group_members must partition", id="group-end-beyond-n"),
    pytest.param(lambda doc: doc.update(mean=format1_doc(doc)["mean"]),
                 "mean must be a base64 string", id="list-for-a-string"),
    pytest.param(lambda doc: doc.update(merge_edges=0),
                 "merge_edges must be a base64 string", id="number-for-a-string"),
    pytest.param(lambda doc: doc.update(group_members=None),
                 "group_members must be a base64 string", id="null-for-a-string"),
    pytest.param(lambda doc: doc.update(format1_doc(doc), version=2),
                 "group_members must be a base64 string", id="version-2-with-format-1-lists"),
    pytest.param(lambda doc: doc.update(version=1),
                 "group_members must be a list", id="version-1-with-format-2-strings"),
]


class TestModelValidation:
    @pytest.fixture(scope="class")
    def model(self):
        data, _ = make_blobs(200, 2, 2, 0.5, 3)
        m = fit(data, radius=0.2, minpts=3)
        assert m.num_groups > 2 and m.merge_edges.shape[0] > 0
        return m

    @pytest.fixture(scope="class")
    def doc(self, model):
        return json.loads(to_json_format1(model))

    @pytest.fixture(scope="class")
    def doc2(self, model):
        return json.loads(to_json(model))

    def test_valid_document_loads(self, doc, doc2):
        assert from_json(json.dumps(doc)).n == 200
        assert from_json(json.dumps(doc2)).n == 200
        assert from_json(json.dumps(format2_doc(format1_doc(doc2)))).n == 200

    @pytest.mark.parametrize("corrupt", CORRUPTIONS + LIST_CORRUPTIONS)
    def test_malformed_document_raises_value_error(self, doc, corrupt):
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        with pytest.raises(ValueError, match="malformed model"):
            from_json(json.dumps(bad))

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_malformed_format2_document_raises_value_error(self, doc2, corrupt):
        bad = format1_doc(doc2)
        corrupt(bad)
        with pytest.raises(ValueError, match="malformed model"):
            from_json(json.dumps(format2_doc(bad)))

    @pytest.mark.parametrize("corrupt", [_empty_group, strip_rows], ids=["empty-group", "no-rows"])
    def test_group_without_rows_raises_value_error(self, doc, corrupt):
        # every fitted group holds its starting row; explain would divide by
        # the row count of an empty group or model
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        for text in (json.dumps(bad), json.dumps(format2_doc(bad))):
            with pytest.raises(ValueError,
                               match="^malformed model: group_members must partition"):
                from_json(text)

    @pytest.mark.parametrize("corrupt, message", ENCODING_FAULTS)
    def test_format2_encoding_fault_raises_value_error(self, doc2, corrupt, message):
        assert from_json(json.dumps(doc2)).num_groups == 6
        bad = json.loads(json.dumps(doc2))
        corrupt(bad)
        with pytest.raises(ValueError, match=f"^malformed model: {message}"):
            from_json(json.dumps(bad))

    def test_non_object_document(self):
        with pytest.raises(ValueError):
            from_json("[1]")

    @pytest.mark.parametrize("text", ["", "not json", '{"version": 2,'])
    def test_text_that_is_not_json(self, text):
        with pytest.raises(ValueError, match="^malformed model: Expecting"):
            from_json(text)

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a": ' * 100_000 + "1" + "}" * 100_000])
    def test_nesting_past_the_recursion_limit(self, text):
        with pytest.raises(ValueError, match="^malformed model: maximum recursion depth"):
            from_json(text)


class TestEndToEndInvariance:
    def test_affine_rescaling_keeps_labels(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            n = int(rng.integers(20, 120))
            d = int(rng.integers(1, 5))
            data = rng.normal(0.0, 2.0, size=(n, d))
            base = fit(data, radius=0.35, minpts=3)
            for c in (0.1, 3.7):
                t = rng.uniform(-50.0, 50.0, size=d)
                other = fit(c * data + t, radius=0.35, minpts=3)
                assert other.labels.tolist() == base.labels.tolist()
