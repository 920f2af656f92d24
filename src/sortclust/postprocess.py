"""Cluster-level post-processing and the fitted model artifact.

`fit` runs the whole pipeline (prepare, aggregate, merge, minimum-cluster-size
rule) and returns an immutable :class:`ClusterModel`. The model supports
out-of-sample prediction, explanation queries, and JSON round-tripping.

The stages pass arrays: ``starts``/``group_of`` from aggregation, an (E, 2)
edge array, a cluster id per group. Labels are ``cluster_of_group[group_of]``;
the model keeps ``point_group`` and derives per-group member lists from it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import _finite_real, _radius, _scale, aggregate
from .kernel import (_BLOCK, _SCORE_NEIGHBOURS, half_sq_norms, nearest, nearest_by_score,
                     window_pad)
from .merging import (GroupClusterMap, connected_components, density_merge,
                      distance_merge, relabel_by_size)
from .prep import prepare

MODEL_FORMAT_VERSION = 1

MERGE_MODES = ("distance", "density")
OUTLIER_MODES = ("reassign", "separate")


@dataclass(frozen=True)
class FitConfig:
    """User-chosen parameters of a fit."""

    radius: float = 0.5
    minpts: int = 0
    scale: float = 1.5
    merge_mode: str = "distance"
    outlier_mode: str = "reassign"

    def validate(self) -> None:
        _radius(self.radius)
        if not (_finite_real(self.minpts) and int(self.minpts) == self.minpts >= 0):
            raise ValueError(f"minpts must be a nonnegative integer, got {self.minpts!r}")
        _scale(self.scale)
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(f"merge_mode must be one of {MERGE_MODES}")
        if self.outlier_mode not in OUTLIER_MODES:
            raise ValueError(f"outlier_mode must be one of {OUTLIER_MODES}")


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Everything a fit produced, frozen.

    Geometry is stored in centered coordinates; `mean` recovers raw space.
    `point_group` is the only record of group membership; `group_members`
    derives the original row indices per group (ascending) from it, and
    `labels` is the per-point cluster assignment in original row order, with
    -1 marking outliers in "separate" mode.
    """

    config: FitConfig
    mean: np.ndarray
    v1: np.ndarray
    mext: float
    starting_points: np.ndarray           # (l, d) centered coordinates
    starting_scores: np.ndarray           # (l,)
    group_cluster: np.ndarray             # (l,) cluster id per group, -1 = outlier
    cluster_sizes: np.ndarray             # (k,) point counts per cluster id
    merge_edges: np.ndarray               # (E, 2) merge graph edges, i < j
    point_group: np.ndarray               # (n,) original row -> group id
    dist_count: int
    # predict's eligible groups, their points, half norms and window_pad(points, 0)
    _eligible: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eligible = (self.group_cluster >= 0).nonzero()[0]
        pts = (self.starting_points if eligible.size == self.group_cluster.size
               else np.take(self.starting_points, eligible, axis=0))
        object.__setattr__(self, "_eligible",
                           (eligible, pts, half_sq_norms(pts), window_pad(pts, 0.0)))

    @property
    def r(self) -> float:    # effective aggregation radius
        return effective_radius(self.config.radius, self.mext)

    @property
    def n(self) -> int:
        return int(self.point_group.size)

    @property
    def d(self) -> int:
        return int(self.mean.size)

    @property
    def num_groups(self) -> int:
        return int(self.starting_scores.size)

    def _member_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices in group order (ascending within a group) and each group's end."""
        # on the narrowest type that holds the ids the stable sort is a radix sort
        ids = self.point_group.astype(np.min_scalar_type(self.num_groups))
        return (np.argsort(ids, kind="stable"),
                np.cumsum(np.bincount(self.point_group, minlength=self.num_groups)))

    @property
    def group_members(self) -> list[np.ndarray]:
        """Original row indices of each group, ascending."""
        order, ends = self._member_order()
        return np.split(order, ends[:-1])

    @property
    def num_clusters(self) -> int:
        return int(self.cluster_sizes.size)

    @property
    def labels(self) -> np.ndarray:
        return self.group_cluster[self.point_group]

    @property
    def avg_dist_pp(self) -> float:
        return self.dist_count / self.n


def effective_radius(radius: float, mext: float) -> float:
    """Absolute aggregation radius; falls back to the raw radius when the
    data is degenerate (mext = 0)."""
    return radius * mext if mext > 0.0 else radius


def apply_minpts(cluster_map: GroupClusterMap, group_sizes, starting_points,
                 starting_scores, minpts: int, mode: str = "reassign") -> GroupClusterMap:
    """Apply the minimum-cluster-size rule.

    reassign: every group in a cluster with fewer than `minpts` points moves
    to the cluster of the nearest starting point (ties: smallest group index)
    whose cluster has at least `minpts` points; eligibility uses the sizes
    before any reassignment. If no cluster is large enough, nothing changes.
    The nearest starting point is searched in a score window around each
    moved one (``kernel.nearest_by_score``), so `starting_scores` must be
    the nondecreasing scores of the starting points, as ``fit`` passes them.

    separate: points of too-small clusters are labelled -1 and surviving
    clusters are renumbered contiguously.

    `group_sizes` is the point count of each group. Returns the updated map;
    per-point labels are its `cluster_of_group` indexed by each point's group.
    """
    if mode not in OUTLIER_MODES:
        raise ValueError(f"mode must be one of {OUTLIER_MODES}")
    assignment = cluster_map.cluster_of_group
    small = cluster_map.sizes < minpts
    if minpts <= 1 or not small.any() or (mode == "reassign" and small.all()):
        return cluster_map

    raw = assignment.copy()
    if mode == "reassign":
        pts = np.asarray(starting_points, dtype=np.float64)
        scores = np.asarray(starting_scores, dtype=np.float64)
        eligible = np.nonzero(~small[assignment])[0]
        moved = np.nonzero(small[assignment])[0]
        near = nearest_by_score(np.take(pts, moved, axis=0), scores[moved],
                                np.take(pts, eligible, axis=0), scores[eligible])
        raw[moved] = assignment[eligible[near]]
    else:
        raw[small[assignment]] = -1
    new_ids, sizes = relabel_by_size(raw, group_sizes)
    return GroupClusterMap(cluster_of_group=new_ids, sizes=sizes)


def fit(data, radius: float = 0.5, minpts: int = 0, scale: float = 1.5,
        merge_mode: str = "distance", outlier_mode: str = "reassign") -> ClusterModel:
    """Cluster `data` (n x d matrix) and return the fitted model.

    `radius` is unit-free; the absolute grouping threshold is
    radius * the median row norm of the centered data.
    """
    config = FitConfig(radius=radius, minpts=minpts, scale=scale,
                       merge_mode=merge_mode, outlier_mode=outlier_mode)
    config.validate()
    config = replace(config, radius=float(radius), minpts=int(minpts), scale=float(scale))
    prepared = prepare(data)
    r = effective_radius(config.radius, prepared.mext)
    starts, group_of, dist_count = aggregate(prepared, r)
    starting_points = np.take(prepared.centered, starts, axis=0)
    starting_scores = prepared.scores[starts]

    if config.merge_mode == "distance":
        edges = distance_merge(starting_scores, starting_points, r, config.scale)
    else:
        edges = density_merge(starts, prepared, r)

    group_sizes = np.bincount(group_of, minlength=starts.size)
    merged = connected_components(starts.size, edges, group_sizes)
    final_map = apply_minpts(merged, group_sizes, starting_points, starting_scores,
                             config.minpts, config.outlier_mode)

    point_group = np.empty(prepared.n, dtype=np.int64)
    point_group[prepared.perm] = group_of
    return ClusterModel(
        config=config,
        mean=prepared.mean.copy(),
        v1=prepared.v1.copy(),
        mext=prepared.mext,
        starting_points=starting_points,
        starting_scores=starting_scores,
        group_cluster=final_map.cluster_of_group,
        cluster_sizes=final_map.sizes,
        merge_edges=edges,
        point_group=point_group,
        dist_count=dist_count,
    )


# The score-window search in predict: a bound-step distance costs about this
# many dense product entries (15 to 35 for d from 2 to 100, one BLAS thread).
_BOUND_COST = 32


def _by_score(queries: int, starts: int) -> bool:
    """Whether predict searches score windows rather than every start; see
    :func:`predict`."""
    return (starts >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST
            and queries * starts >= 4 * _BLOCK)


def predict(model: ClusterModel, new_points) -> np.ndarray:
    """Assign each query point the cluster of its nearest starting point.

    Queries are centered with the model's stored mean; no statistic is
    re-estimated. The nearest start is the direct formula's at any magnitude,
    exact ties going to the smallest group index. Outlier groups (separate
    mode) are skipped; if no cluster survives, -1 is returned.

    Either path gives the same labels, bit for bit; the choice is one of
    cost, made from the q query rows and the l eligible starts before any
    distance is computed:

    - dense (``kernel.nearest``): q * l product entries, about 2-3 ns each
      at d = 10 (one BLAS thread), plus a pass over the starts per call;
    - score windows (``kernel.nearest_by_score``): the queries are sorted
      by their score along v1 and each gets ``_SCORE_NEIGHBOURS`` direct
      distances to the starts nearest in score, about ``_BOUND_COST`` (32)
      product entries each, then the products over its window, whose width
      depends on the data (16-21% of the starts on the benchmark's
      workloads), plus about 0.2 ms per call.

    The windows are taken when l >= 2 * _SCORE_NEIGHBOURS * _BOUND_COST
    (2048) and q * l >= 4 * ``kernel._BLOCK`` (four blocks). Measured on
    blob data with 1,000 queries, the window path breaks even at about
    1,200 starts for d = 2, 2,500 for d = 10 and between 600 and 2,600 for
    d = 50; with 6k to 14k starts it breaks even at two to five blocks (16
    to 64 queries). The crossover does not grow with d, so d does not enter
    the rule.
    """
    q = np.asarray(new_points, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("query points must form a 2-D matrix")
    if q.shape[1] != model.d:
        raise ValueError(f"query dimension {q.shape[1]} != model dimension {model.d}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite values")
    eligible, pts, half, pad = model._eligible
    if eligible.size == 0:
        return np.full(q.shape[0], -1, dtype=np.int64)
    q = q - model.mean
    if not _by_score(q.shape[0], eligible.size):
        return model.group_cluster[eligible[nearest(q, pts, half)]]
    # scores along v1 / |v1|, which from_json admits within 1e-6 of a unit vector
    norm = float(np.linalg.norm(model.v1))
    scores = (q @ model.v1) / norm
    order = np.argsort(scores)
    near = np.empty(q.shape[0], dtype=np.int64)
    near[order] = nearest_by_score(np.take(q, order, axis=0), scores[order], pts,
                                   model.starting_scores[eligible] / norm, half, pad)
    return model.group_cluster[eligible[near]]


def to_json(model: ClusterModel) -> str:
    """Serialize the model to a single JSON document.

    Floats are written with full round-trip precision. `merge_edges` is an
    extension field beyond the minimum schema so that pair explanations work
    on reloaded density-merged models, where the graph cannot be recomputed
    without the training data.
    """
    order, ends = (a.tolist() for a in model._member_order())
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "config": {
            "radius": model.config.radius,
            "minPts": model.config.minpts,
            "scale": model.config.scale,
            "merge_mode": model.config.merge_mode,
            "outlier_mode": model.config.outlier_mode,
        },
        "mean": model.mean.tolist(),
        "v1": model.v1.tolist(),
        "mext": model.mext,
        "starting_points": model.starting_points.tolist(),
        "starting_scores": model.starting_scores.tolist(),
        "group_members": [order[a:b] for a, b in zip([0, *ends], ends)],
        "group_cluster": model.group_cluster.tolist(),
        "cluster_sizes": model.cluster_sizes.tolist(),
        "merge_edges": model.merge_edges.tolist(),
        "stats": {"dist_count": model.dist_count, "n": model.n, "d": model.d},
    }
    return json.dumps(doc)


# Keys a model document must have, at the top level and in two sub-objects.
_REQUIRED_KEYS = {
    "model": ("config", "mean", "v1", "mext", "starting_points", "starting_scores",
              "group_members", "group_cluster", "cluster_sizes", "merge_edges", "stats"),
    "config": ("radius", "minPts", "scale", "merge_mode", "outlier_mode"),
    "stats": ("dist_count", "n", "d"),
}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _numbers(values, name: str, dtype=np.int64) -> np.ndarray:
    """`values`, a list of JSON numbers or of lists of them, as `dtype`. A
    boolean or a string raises ValueError instead of being cast, as do a
    float where integers are due (even 1.0) and a NaN or an infinity."""
    arr = np.asarray(values)
    flat = itertools.chain.from_iterable(values) if arr.ndim > 1 else values
    _check((arr.size == 0 or arr.dtype.kind in "i" + np.dtype(dtype).kind)
           and bool not in set(map(type, flat)) and bool(np.isfinite(arr).all()),
           f"{name} must hold finite {np.dtype(dtype).name} numbers")
    return arr.astype(dtype)


def _scalar(value, name: str, types=(int,)):
    """`value`, which must be a nonnegative finite JSON number of one of
    `types` (not a boolean, a string or a float where an integer is due)."""
    _check(type(value) in types and math.isfinite(value) and value >= 0,
           f"{name} must be a nonnegative {' or '.join(t.__name__ for t in types)}")
    return value


def _model_from_doc(doc: dict) -> ClusterModel:
    for part, keys in _REQUIRED_KEYS.items():
        obj = doc if part == "model" else doc[part]
        _check(isinstance(obj, dict) and all(key in obj for key in keys),
               f"{part} must be an object with the keys {', '.join(keys)}")
    cfg, stats, members = doc["config"], doc["stats"], doc["group_members"]
    _check(isinstance(members, list), "group_members must be a list")
    config = FitConfig(radius=float(_scalar(cfg["radius"], "config.radius", (int, float))),
                       minpts=_scalar(cfg["minPts"], "config.minPts"),
                       scale=float(_scalar(cfg["scale"], "config.scale", (int, float))),
                       merge_mode=cfg["merge_mode"], outlier_mode=cfg["outlier_mode"])
    config.validate()
    n, d, l = _scalar(stats["n"], "stats.n"), _scalar(stats["d"], "stats.d"), len(members)
    mean, v1 = _numbers(doc["mean"], "mean", np.float64), _numbers(doc["v1"], "v1", np.float64)
    _check(mean.shape == v1.shape == (d,), f"mean and v1 must have length d={d}")
    starting_points = _numbers(doc["starting_points"], "starting_points", np.float64)
    starting_scores = _numbers(doc["starting_scores"], "starting_scores", np.float64)
    group_cluster = _numbers(doc["group_cluster"], "group_cluster")
    _check(starting_points.shape == (l, d), f"starting_points must have shape ({l}, {d})")
    _check(starting_scores.shape == group_cluster.shape == (l,),
           f"starting_scores and group_cluster must have length {l}")
    # predict's score windows rest on these three: a unit v1 (as prepare
    # requires it), scores in order, and each score within a quarter of the
    # window pad of its point's (twice the rounding of a score; the rest of
    # the pad covers the queries')
    _check(abs(float(np.linalg.norm(v1)) - 1.0) <= 1e-6, "v1 must have unit norm")
    _check(bool(np.all(starting_scores[1:] >= starting_scores[:-1])),
           "starting_scores must be nondecreasing")
    _check(bool(np.all(np.abs(starting_points @ v1 - starting_scores)
                       <= window_pad(starting_points, 0.0) / 4)),
           "starting_scores must be the scores of the starting points along v1")

    # group_members must partition 0..n-1: n rows in range, none left over.
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=l)
    rows = _numbers(list(itertools.chain.from_iterable(members)), "group_members")
    _check(rows.size == n and bool(np.all((rows >= 0) & (rows < n))),
           f"group_members must partition the rows 0..{n - 1}")
    point_group = np.full(n, -1, dtype=np.int64)
    point_group[rows] = np.repeat(np.arange(l), sizes)
    _check(bool(np.all(point_group >= 0)), f"group_members must partition the rows 0..{n - 1}")

    cluster_sizes = _numbers(doc["cluster_sizes"], "cluster_sizes")
    k = cluster_sizes.size
    _check(cluster_sizes.ndim == 1 and bool(np.all((group_cluster >= -1) & (group_cluster < k))),
           f"group_cluster ids must lie in [-1, {k})")
    edges = _numbers(doc["merge_edges"], "merge_edges")
    edges = edges.reshape(0, 2) if edges.shape == (0,) else edges
    _check(edges.ndim == 2 and edges.shape[1] == 2 and bool(np.all((edges >= 0) & (edges < l))),
           f"merge_edges must be pairs of group ids in [0, {l})")
    return ClusterModel(
        config=config,
        mean=mean,
        v1=v1,
        mext=float(_scalar(doc["mext"], "mext", (int, float))),
        starting_points=starting_points,
        starting_scores=starting_scores,
        group_cluster=group_cluster,
        cluster_sizes=cluster_sizes,
        merge_edges=edges,
        point_group=point_group,
        dist_count=_scalar(stats["dist_count"], "stats.dist_count"),
    )


def from_json(text: str) -> ClusterModel:
    """Rebuild a model from its JSON document.

    The document is checked first: keys, shapes, finite JSON numbers (no
    booleans or strings; integer ids and counts), `group_members`
    partitioning the rows 0..n-1, cluster ids in [-1, k) and edge endpoints
    in [0, l). The score windows of `predict` need three more: `v1` of unit
    norm to within 1e-6, nondecreasing `starting_scores`, and each within a
    quarter of ``kernel.window_pad`` of ``starting_points @ v1``. A
    malformed document raises ValueError.
    """
    doc = json.loads(text)
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model version {version!r}")
    try:
        return _model_from_doc(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model: {exc}") from None


def save_model(model: ClusterModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))
        fh.write("\n")


def load_model(path) -> ClusterModel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
