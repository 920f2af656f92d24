"""Every fast path against the oracles of `tests/_oracles.py`, bit for bit,
on seeded adversarial inputs: exact ties, duplicate rows, one column, one
row, constant columns, magnitudes from 1e-300 to 1e150, and blobs at 1e-40
beside blobs at 1.

For each input the grouping (`starts`, `group_of`), the edges of both
merges, the minPts reassignment and the predictions of both searches are
compared with the direct-formula oracles; the nearest searches run once as
they are, with their small blocks screened in float64, once with every
block screened in float32, and once with every block screened in float64.
The predictions' oracle scales the queries and the starts by one power of
two first, which is exact: in the input's units, their squared distances
underflow to 0 at 1e-200 and overflow to inf at 1e150 and beyond.
"""

import math

import numpy as np
import pytest

from sortclust import kernel, postprocess
from sortclust.aggregation import aggregate
from sortclust.evaluation import make_blobs
from sortclust.merging import density_merge, distance_merge
from sortclust.postprocess import effective_radius, fit, predict
from sortclust.prep import prepare

from _oracles import (aggregate_reference, brute_force_distance_edges, density_pair_test,
                      direct_density_pairs, direct_nearest)

RADIUS, SCALE = 0.3, 1.5


def paired(rows):
    """`rows` each followed by its negation: the mean is then exactly 0, so
    centering leaves every row as it is."""
    return np.stack([rows, -rows], axis=1).reshape(-1, rows.shape[1])


def blobs(seed, n=120, d=3):
    return make_blobs(n, d, 4, 1.0, seed)[0]


def lattice(seed):
    """Integer points of the plane, some repeated: with r = 1 exactly, many
    pairs lie exactly r and 1.5 r apart."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(-5.0, 6.0), np.arange(-3.0, 4.0)), -1).reshape(-1, 2)
    return paired(grid[rng.choice(grid.shape[0], 60)])


def duplicates(seed):
    base = blobs(seed, 40)
    return np.repeat(base, np.random.default_rng(seed).integers(1, 4, base.shape[0]), axis=0)


def constant_columns(seed):
    data = blobs(seed, 100, 4)
    data[:, 1] = 7.25
    data[:, 3] = -1e-3
    return data


def wide_range(seed):
    """Blobs at scale 1 away from the origin, and a blob at 1e-40 about it."""
    rng = np.random.default_rng(seed)
    big = blobs(seed, 60) + 6.0
    return paired(np.vstack([big, 1e-40 * rng.normal(size=(30, 3))]))


# (input, absolute radius or None for RADIUS times mext)
CASES = {
    "ties": (lattice, 1.0),
    "duplicates": (duplicates, None),
    "d1": (lambda seed: blobs(seed, 150, 1), None),
    "n1": (lambda seed: np.array([[3.0, -1.0, 2.5]]), None),
    "constant-columns": (constant_columns, None),
    "wide-range": (wide_range, None),
    "wide-range-fine": (wide_range, 3e-41),
    **{f"scale-{c:g}": (lambda seed, c=c: c * blobs(seed), None)
       for c in (1e-300, 1e-200, 1e-150, 1e-60, 1e-20, 1.0, 1e20, 1e60, 1e100, 1e150, 1e200,
                 1e300)},
}


def density_edges(X, centers, r, d) -> list:
    """The density merge's edges by the direct formula and the scalar test."""
    return [[i, j] for i, j, union, inter, dsq in direct_density_pairs(X, centers, r)
            if density_pair_test(union, inter, math.sqrt(dsq), r, d)]


def nearest_clusters(m, queries):
    """The cluster of each query's nearest eligible start, by the direct
    formula, with queries and starts scaled by 2^-e for the binary exponent
    e of the starts' largest magnitude."""
    eligible = np.nonzero(m.group_cluster >= 0)[0]
    starts = m.starting_points[eligible]
    e = math.frexp(float(np.abs(starts).max()))[1]
    near = direct_nearest(np.ldexp(np.asarray(queries) - m.mean, -e), np.ldexp(starts, -e))
    return m.group_cluster[eligible[near]]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", list(CASES))
def test_fast_paths_equal_the_oracles(case, seed, monkeypatch):
    make, r = CASES[case]
    data = make(seed)
    p = prepare(data)
    r = effective_radius(RADIUS, p.mext) if r is None else r

    starts, group_of, _ = aggregate(p, r)
    ref_starts, ref_group_of, _ = aggregate_reference(p, r)
    assert np.array_equal(starts, ref_starts) and np.array_equal(group_of, ref_group_of)

    pts = p.centered[starts]
    edges = distance_merge(p.scores[starts], pts, r, SCALE)
    assert edges.tolist() == sorted(map(list, brute_force_distance_edges(pts, r, SCALE)))
    assert density_merge(starts, p, r).tolist() == density_edges(p.centered, pts, r, p.d)

    # the minPts rule, against its reassignment by the direct formula
    with monkeypatch.context() as patch:
        patch.setattr(postprocess, "nearest", lambda A, B, *rest: direct_nearest(A, B))
        expected = fit(data, radius=RADIUS, minpts=4)
    rng = np.random.default_rng(seed)
    spread = float(np.abs(data).max()) or 1.0
    # queries on the data, off it, and far from it
    queries = np.vstack([data[::3], data[::5] + 0.01 * spread * rng.normal(size=data[::5].shape),
                         1e3 * spread * rng.normal(size=(5, data.shape[1]))])
    want = nearest_clusters(expected, queries)
    # as they are, every block in float32, and every block in float64
    for entries in (kernel._SCREEN_ENTRIES, 1, kernel._BLOCK + 1):
        monkeypatch.setattr(kernel, "_SCREEN_ENTRIES", entries)
        model = fit(data, radius=RADIUS, minpts=4)
        assert np.array_equal(model.group_cluster, expected.group_cluster)
        assert np.array_equal(model.labels, expected.labels)
        for windows in (False, True):
            monkeypatch.setattr(kernel, "_by_score", lambda queries, starts: windows)
            assert np.array_equal(predict(model, queries), want)
