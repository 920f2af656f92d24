"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Fixture seeds are pinned. Where a criterion leaves the dataset open, the
construction is stated in the test body.
"""

import time

import numpy as np
import pytest

from sortclust.aggregation import aggregate
from sortclust.evaluation import (GaussianModelParams, ami, ari, make_blobs,
                                  model_p2, model_ratio)
from sortclust.explain import explain_pair, explain_point
from sortclust.geometry import intersection_volume, reg_inc_beta
from sortclust.merging import density_merge, distance_merge
from sortclust.postprocess import fit, predict
from sortclust.prep import prepare

from _oracles import (aggregate_reference, brute_force_density_edges,
                      brute_force_distance_edges, interval_overlap_1d, lens_area_2d,
                      line_blobs, mc_lens_volume, mc_window_hit_rate)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_pruning_exactness():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(200):
        n = int(rng.integers(5, 501))
        d = int(rng.integers(1, 9))
        data = rng.normal(0.0, 2.0, size=(n, d))
        p = prepare(data)
        r = float(rng.uniform(0.1, 2.5))
        starts, group_of, _ = aggregate(p, r)
        starts_ref, group_of_ref, _ = aggregate_reference(p, r)
        assert np.array_equal(starts, starts_ref)
        assert np.array_equal(group_of, group_of_ref)
        scale = float(rng.uniform(1.0, 2.0))
        dist_edges = distance_merge(p.scores[starts], p.centered[starts], r, scale)
        assert set(map(tuple, dist_edges.tolist())) == brute_force_distance_edges(
            p.centered[starts], r, scale)
        dens_edges = density_merge(starts, p, r)
        assert set(map(tuple, dens_edges.tolist())) == brute_force_density_edges(
            p.centered, p.centered[starts], r, p.d)
    elapsed = time.time() - start
    report(1, elapsed < 60.0,
           f"200 random datasets, pruned == brute force everywhere, {elapsed:.1f}s")


def test_c02_projection_bounds():
    rng = np.random.default_rng(102)
    worst_gap, worst_upper = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(5, 301))
        d = int(rng.integers(1, 7))
        p = prepare(rng.normal(0.0, 1.5, size=(n, d)))
        diff = p.centered[:, None, :] - p.centered[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        gap = np.abs(p.scores[:, None] - p.scores[None, :])
        worst_gap = max(worst_gap, float(np.max(gap - dist)))
        worst_upper = max(worst_upper, float(
            np.max(dist ** 2 - gap ** 2 - 2.0 * p.sigma2 ** 2)))
    ok = worst_gap <= 1e-9 and worst_upper <= 1e-6
    report(2, ok, f"score gap <= dist (slack {worst_gap:.2e} <= 1e-9), "
                  f"dist^2 <= gap^2 + 2*sigma2^2 (slack {worst_upper:.2e} <= 1e-6)")


def test_c03_blob_quality():
    seeds = (0, 1, 3, 4, 5)
    worst = 1.0
    for seed in seeds:
        data, truth = make_blobs(10_000, 10, 10, 1.0, seed)
        for mode in ("distance", "density"):
            t0 = time.time()
            model = fit(data, radius=0.3, minpts=5, merge_mode=mode)
            elapsed = time.time() - t0
            a = ari(truth, model.labels)
            am = ami(truth, model.labels)
            worst = min(worst, a, am)
            assert elapsed < 10.0, f"fit took {elapsed:.1f}s (seed {seed}, {mode})"
            assert a >= 0.95 and am >= 0.95, \
                f"seed {seed} {mode}: ARI {a:.3f} AMI {am:.3f}"
    report(3, True, f"5 seeds x 2 merge modes, worst score {worst:.3f} >= 0.95")


def test_c04_bounded_comparisons():
    # blob chain along one axis with a fixed per-blob population, so the
    # dataset grows in extent; the absolute radius is held fixed
    r = 5.0
    pruned, reference = [], []
    for n in (5_000, 10_000, 20_000, 40_000):
        data, _ = line_blobs(n, 10, 500, 10.0, 1.0, 42)
        p = prepare(data)
        pruned.append(aggregate(p, r)[2] / n)
        reference.append(aggregate_reference(p, r)[2] / n)
    bounded = max(pruned) < 40.0
    flat = pruned[-1] / pruned[0] < 2.0
    steep = reference[-1] / reference[0] > 4.0
    report(4, bounded and flat and steep,
           f"pruned {pruned[0]:.1f}->{pruned[-1]:.1f} "
           f"(x{pruned[-1] / pruned[0]:.2f} < 2, max < 40), reference "
           f"{reference[0]:.1f}->{reference[-1]:.1f} "
           f"(x{reference[-1] / reference[0]:.2f} > 4)")


def test_c05_radius_robustness():
    data, truth = make_blobs(3_000, 10, 10, 1.0, 1)
    worst = 1.0
    for radius in (0.2, 0.3, 0.4, 0.5, 0.6):
        for mode in ("distance", "density"):
            model = fit(data, radius=radius, minpts=5, merge_mode=mode)
            a = ari(truth, model.labels)
            worst = min(worst, a)
            assert a >= 0.90, f"radius {radius} {mode}: ARI {a:.3f}"
    report(5, True, f"radius 0.2..0.6, both merge modes, worst ARI {worst:.3f} >= 0.90")


def test_c06_geometry_oracles():
    # analytic overlap in one and two dimensions, 1e-10 relative
    for dist in (0.0, 0.3, 1.0, 1.7, 1.999):
        expected = interval_overlap_1d(dist, 1.0)
        got = intersection_volume(dist, 1.0, 1)
        assert got == pytest.approx(expected, rel=1e-10)
    for dist in (0.2, 0.7, 1.0, 1.5, 1.9):
        assert intersection_volume(dist, 1.0, 2) == pytest.approx(
            lens_area_2d(dist, 1.0), rel=1e-10)
    # Monte Carlo for d in {3, 5}, a million samples, three standard errors
    for d in (3, 5):
        for dist in (0.3, 1.0, 1.7):
            est, se = mc_lens_volume(dist, 1.0, d, samples=1_000_000,
                                     seed=1000 + 10 * d + int(10 * dist))
            assert abs(intersection_volume(dist, 1.0, d) - est) <= 3.0 * se
    # closed forms of the regularized incomplete beta, 1e-12 absolute
    assert reg_inc_beta(0.25, 1.0, 0.5) == pytest.approx(1.0 - 0.75 ** 0.5, abs=1e-12)
    for s in (0.0, 0.3, 0.5, 1.0):
        assert reg_inc_beta(s, 1.0, 1.0) == pytest.approx(s, abs=1e-12)
        for b in (0.5, 2.0):
            assert reg_inc_beta(s, 1.0, b) == pytest.approx(1.0 - (1.0 - s) ** b,
                                                            abs=1e-12)
    report(6, True, "lens volumes match 1-D/2-D analytic oracles (1e-10) and "
                    "Monte Carlo for d in {3,5} (3 SE); beta closed forms at 1e-12")


def test_c07_window_model():
    grid = [(0.6, 0.5, 0.3, 2), (0.0, 0.5, 0.3, 2), (0.6, 0.5, 0.3, 5),
            (0.0, 1.0, 0.5, 3), (1.0, 0.8, 0.2, 4), (0.3, 1.2, 0.7, 2)]
    for i, (c, r, s, d) in enumerate(grid):
        p2 = model_p2(GaussianModelParams(c=c, r=r, s=s, d=d))
        est, se, _ = mc_window_hit_rate(c, r, s, d, samples=1_000_000, seed=700 + i)
        assert abs(p2 - est) <= 3.0 * se, \
            f"grid point {(c, r, s, d)}: p2 {p2:.6f} vs MC {est:.6f} +- {se:.6f}"
    for s_fixed in (0.2, 0.6):
        ratios = [model_ratio(GaussianModelParams(c=0.0, r=0.5, s=s_fixed, d=d))
                  for d in (2, 5, 10, 50)]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    for d_fixed in (2, 10):
        ratios = [model_ratio(GaussianModelParams(c=0.0, r=0.5, s=s, d=d_fixed))
                  for s in (0.05, 0.1, 0.25, 0.5, 1.0)]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    saturated = model_ratio(GaussianModelParams(c=0.0, r=20.0, s=0.3, d=10))
    assert saturated >= 0.999
    report(7, True, f"6 Monte Carlo grid points within 3 SE; ratio monotone in "
                    f"d and s; ratio(R=20) = {saturated:.6f} >= 0.999")


def test_c08_metrics():
    assert ari([0, 1, 0, 1], [0, 0, 1, 1]) == -0.5
    assert ari([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0
    assert ami([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0
    rng = np.random.default_rng(108)
    truth = rng.integers(0, 6, size=80)
    pred = rng.integers(0, 5, size=80)
    base_ari, base_ami = ari(truth, pred), ami(truth, pred)
    for _ in range(100):
        mapping = rng.permutation(5)
        assert ari(truth, mapping[pred]) == base_ari
        assert ami(truth, mapping[pred]) == base_ami
    report(8, True, "ARI fixture exactly -0.5; self-comparisons exactly 1; "
                    "100 relabelings bit-identical")


def test_c09_invariance():
    rng = np.random.default_rng(109)
    for trial in range(20):
        n = int(rng.integers(20, 200))
        d = int(rng.integers(1, 6))
        data = rng.normal(0.0, 2.0, size=(n, d))
        base = fit(data, radius=0.35, minpts=3)
        for c in (0.1, 3.7):
            t = rng.uniform(-100.0, 100.0, size=d)
            other = fit(c * data + t, radius=0.35, minpts=3)
            assert other.labels.tolist() == base.labels.tolist(), \
                f"trial {trial}, c={c}"
    report(9, True, "fit(c*raw + t) label-identical for c in {0.1, 3.7}, "
                    "20 random datasets")


def test_c10_explain_goldens():
    chain = fit([[0.0], [1.2], [2.4]], radius=0.8, scale=1.3)
    pair = explain_pair(chain, 0, 2)
    assert pair.structured["path_text"] == "0 <-> 1 <-> 2"
    rng = np.random.default_rng(110)
    for _ in range(20):
        n = int(rng.integers(5, 150))
        d = int(rng.integers(1, 5))
        data = rng.normal(0.0, 2.0, size=(n, d))
        model = fit(data, radius=0.4, minpts=int(rng.integers(0, 4)))
        for i in range(n):
            assert explain_point(model, i).structured["cluster"] == model.labels[i]
    report(10, True, 'chain fixture renders "0 <-> 1 <-> 2"; explain_point '
                     "matches labels on 20 random fits")


def test_c11_out_of_sample():
    # training points keep their fitted labels
    data, truth = make_blobs(10_000, 10, 10, 1.0, 0)
    model = fit(data, radius=0.3, minpts=5)
    recovered = predict(model, data)
    agreement = float(np.mean(recovered == model.labels))
    assert agreement >= 0.99
    starts_raw = model.starting_points + model.mean
    assert np.array_equal(predict(model, starts_raw), model.group_cluster)

    # 90/10 split on a well-separated fixture: both splits perfect
    data, truth = make_blobs(2_000, 2, 4, 0.3, 0)
    rng = np.random.default_rng(111)
    order = rng.permutation(2_000)
    test_idx, train_idx = order[:200], order[200:]
    split_model = fit(data[train_idx], radius=0.3, minpts=5)
    ari_train = ari(truth[train_idx], split_model.labels)
    ari_test = ari(truth[test_idx], predict(split_model, data[test_idx]))
    assert ari_train == 1.0 and ari_test == 1.0
    report(11, True, f"train-set prediction agreement {agreement:.4f} >= 0.99 "
                     f"(starting points exact); 90/10 split ARI 1.0 / 1.0")
