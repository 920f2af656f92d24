"""Cluster-level post-processing and the fitted model artifact.

`fit` runs the whole pipeline (prepare, aggregate, merge, minimum-cluster-size
rule) and returns an immutable :class:`ClusterModel`. The model supports
out-of-sample prediction, explanation queries, and JSON round-tripping.

The stages pass arrays: ``starts``/``group_of`` from aggregation, an (E, 2)
edge array, a cluster id per group. Labels are ``cluster_of_group[group_of]``;
the model keeps ``point_group`` and derives per-group member lists from it.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import _finite_real, _radius, _scale, aggregate
from .kernel import largest, nearest, screens, window_pad
from .merging import (GroupClusterMap, connected_components, density_merge,
                      distance_merge, relabel_by_size)
from .prep import framed, prepare, real_array

MODEL_FORMAT_VERSION = 2

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

    @functools.cached_property
    def _eligible(self) -> tuple:
        """predict's eligible groups, their points in their frame 2^-e (``prep.framed``),
        ``kernel.screens`` of them (float32 and float64 screens and window pad),
        |v1|, their scores along v1 / |v1| in the frame, e, and whether a query may
        overflow: in the frame, or as q - mean, only if some |mean_k| >= 2^970."""
        eligible = (self.group_cluster >= 0).nonzero()[0]
        pts = (self.starting_points if eligible.size == self.group_cluster.size
               else np.take(self.starting_points, eligible, axis=0))
        pts, e = framed(pts)
        norm = float(np.linalg.norm(self.v1))    # from_json admits v1 within 1e-6 of unit
        scores = np.ldexp(self.starting_scores[eligible] / norm, -e)
        wide = e != 0 or largest(self.mean) >= 2.0 ** 970
        return eligible, pts, screens(pts), norm, scores, e, wide

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

    @functools.cached_property
    def _merge_adjacency(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The merge graph in CSR form, built once per model: the neighbours
        of group g are ``nbr[offsets[g]:offsets[g + 1]]``, and the starting points,
        framed (``prep.framed``): a power-of-two scale of normal points keeps the
        paths. No weights: the search takes them per settled group (O(E) memory)."""
        edges = self.merge_edges
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        order = np.argsort(src.astype(np.min_scalar_type(self.num_groups)), kind="stable")
        nbr = np.take(np.concatenate((edges[:, 1], edges[:, 0])), order)
        offsets = [0, *np.cumsum(np.bincount(src, minlength=self.num_groups)).tolist()]
        return offsets, nbr, framed(self.starting_points)[0]

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
    """Absolute aggregation radius, in the input's units: radius * mext, or radius if mext = 0."""
    return radius * mext if mext > 0.0 else radius


def apply_minpts(cluster_map: GroupClusterMap, group_sizes, starting_points,
                 starting_scores, minpts: int, mode: str = "reassign") -> GroupClusterMap:
    """Apply the minimum-cluster-size rule.

    reassign: every group in a cluster with fewer than `minpts` points moves
    to the cluster of the nearest starting point (ties: smallest group index)
    whose cluster has at least `minpts` points; eligibility uses the sizes
    before any reassignment. If no cluster is large enough, nothing changes.
    The nearest starting point is found by ``kernel.nearest``, which may
    search score windows, so `starting_scores` must be the nondecreasing
    scores of the starting points, as ``fit`` passes them.

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
        near = nearest(np.take(pts, moved, axis=0), np.take(pts, eligible, axis=0),
                       scores[moved], scores[eligible])
        raw[moved] = assignment[eligible[near]]
    else:
        raw[small[assignment]] = -1
    new_ids, sizes = relabel_by_size(raw, group_sizes)
    return GroupClusterMap(cluster_of_group=new_ids, sizes=sizes)


def fit(data, radius: float = 0.5, minpts: int = 0, scale: float = 1.5,
        merge_mode: str = "distance", outlier_mode: str = "reassign") -> ClusterModel:
    """Cluster `data` (n x d matrix) and return the fitted model.

    `radius` is unit-free: the threshold is radius * the median centered row norm
    (a ValueError if not finite), or where that is 0 the radius in the input's units.
    The model is in those units, exact but for centered coordinates subnormal in them.
    """
    config = FitConfig(radius=radius, minpts=minpts, scale=scale,
                       merge_mode=merge_mode, outlier_mode=outlier_mode)
    config.validate()
    config = replace(config, radius=float(radius), minpts=int(minpts), scale=float(scale))
    prepared = prepare(data)
    mext = math.ldexp(prepared.mext, prepared.e)
    if not math.isfinite(config.radius * mext):
        raise ValueError(f"radius {config.radius!r} is too large: the radius times the "
                         f"data's median row norm overflows float64")
    # r in the frame 2^-e, at most 2^40 (norms there are under 2^33); ldexp raises past float64
    top = 40 - math.frexp(config.radius)[1]
    r = (min(config.radius * prepared.mext, 2.0 ** 40) if prepared.mext > 0.0
         else math.ldexp(config.radius, max(min(-prepared.e, top), top - 1113)))    # >= 2^-1074
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
        mean=np.ldexp(prepared.mean, prepared.e),
        v1=prepared.v1.copy(),
        mext=mext,
        starting_points=np.ldexp(starting_points, prepared.e),
        starting_scores=np.ldexp(starting_scores, prepared.e),
        group_cluster=final_map.cluster_of_group,
        cluster_sizes=final_map.sizes,
        merge_edges=edges,
        point_group=point_group,
        dist_count=dist_count,
    )


def predict(model: ClusterModel, new_points) -> np.ndarray:
    """Assign each query point the cluster of its nearest starting point.

    Queries are centered with the model's stored mean; no statistic is
    re-estimated. The nearest start is the direct formula's at any magnitude,
    exact ties going to the smallest group index. Outlier groups (separate
    mode) are skipped; if no cluster survives, -1 is returned.

    The search is ``kernel.nearest`` on the queries' scores along v1: it
    takes score windows or every start by the cost rule in its docstring,
    with the same labels either way.
    """
    q = real_array(new_points, "query")
    if q.ndim != 2:
        raise ValueError("query points must form a 2-D matrix")
    if q.shape[1] != model.d:
        raise ValueError(f"query dimension {q.shape[1]} != model dimension {model.d}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite values")
    eligible, pts, screened, norm, scores, e, wide = model._eligible
    if eligible.size == 0:
        return np.full(q.shape[0], -1, dtype=np.int64)
    q, score = (q if wide else q - model.mean), lambda a: (a @ model.v1) / norm
    if wide:    # only far from normal magnitudes: no errstate or pass over q otherwise
        with np.errstate(over="ignore"):    # inf past float64: it ties with every start
            q = np.ldexp(q - model.mean, -e)
        score = score if np.isfinite(q).all() else None    # inf scores nan: search densely
    near = nearest(q, pts, score, scores, screened)
    return model.group_cluster[eligible[near]]


def _encode(values: np.ndarray, dtype) -> str:
    """Format 2's encoding of an array: base64 (RFC 4648) of its values as
    little-endian `dtype` bytes, in C order."""
    raw = np.asarray(values, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
    return base64.b64encode(raw).decode("ascii")


def to_json(model: ClusterModel) -> str:
    """Serialize the model to a single JSON document, in format 2.

    Every array is one base64 string (RFC 4648) of its little-endian bytes
    in C order: float64 for `mean`, `v1`, `starting_points` (l x d) and
    `starting_scores`; int64 for `group_cluster`, `cluster_sizes`,
    `merge_edges` (E x 2) and `group_members`, which holds the n row
    indices in group order (ascending within a group) followed by the l
    group ends. Floats are thus stored exactly. Scalars, `config` and
    `stats` are JSON values. `merge_edges` is an extension field beyond the
    minimum schema so that pair explanations work on reloaded
    density-merged models, where the graph cannot be recomputed without
    the training data.
    """
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "config": {
            "radius": model.config.radius,
            "minPts": model.config.minpts,
            "scale": model.config.scale,
            "merge_mode": model.config.merge_mode,
            "outlier_mode": model.config.outlier_mode,
        },
        "mean": _encode(model.mean, np.float64),
        "v1": _encode(model.v1, np.float64),
        "mext": model.mext,
        "starting_points": _encode(model.starting_points, np.float64),
        "starting_scores": _encode(model.starting_scores, np.float64),
        "group_members": _encode(np.concatenate(model._member_order()), np.int64),
        "group_cluster": _encode(model.group_cluster, np.int64),
        "cluster_sizes": _encode(model.cluster_sizes, np.int64),
        "merge_edges": _encode(model.merge_edges, np.int64),
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
    boolean or a string raises ValueError instead of being cast, as does a
    float where integers are due (even 1.0)."""
    arr = np.asarray(values)
    flat = itertools.chain.from_iterable(values) if arr.ndim > 1 else values
    _check((arr.size == 0 or arr.dtype.kind in "i" + np.dtype(dtype).kind)
           and bool not in set(map(type, flat)),
           f"{name} must hold {np.dtype(dtype).name} numbers")
    return arr.astype(dtype)


def _scalar(value, name: str, types=(int,)):
    """`value`, which must be a nonnegative finite JSON number of one of
    `types` (not a boolean, a string or a float where an integer is due)."""
    _check(type(value) in types and math.isfinite(value) and value >= 0,
           f"{name} must be a nonnegative {' or '.join(t.__name__ for t in types)}")
    return value


def _format1_arrays(doc: dict, n: int, d: int) -> dict:
    """Format 1's arrays: JSON number lists, `starting_points` and
    `merge_edges` as lists of rows, `group_members` as one list per group."""
    members = doc["group_members"]
    _check(isinstance(members, list), "group_members must be a list")
    edges = _numbers(doc["merge_edges"], "merge_edges")
    return {
        "mean": _numbers(doc["mean"], "mean", np.float64),
        "v1": _numbers(doc["v1"], "v1", np.float64),
        "starting_points": _numbers(doc["starting_points"], "starting_points", np.float64),
        "starting_scores": _numbers(doc["starting_scores"], "starting_scores", np.float64),
        "order": _numbers(list(itertools.chain.from_iterable(members)), "group_members"),
        "ends": np.cumsum(np.fromiter(map(len, members), dtype=np.int64, count=len(members))),
        "group_cluster": _numbers(doc["group_cluster"], "group_cluster"),
        "cluster_sizes": _numbers(doc["cluster_sizes"], "cluster_sizes"),
        "merge_edges": edges.reshape(0, 2) if edges.shape == (0,) else edges,
    }


def _decode(value, name: str, dtype, shape: tuple) -> np.ndarray:
    """Format 2's array `name`: a base64 string of the little-endian bytes
    of `dtype` values (8 bytes each) in C order, as many as `shape` holds;
    its first entry may be -1, which any whole number of rows fills."""
    _check(type(value) is str, f"{name} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # a character outside the alphabet, or bad padding
        raise ValueError(f"{name} must be a base64 string") from None
    count, rest = divmod(len(raw), 8)
    row = math.prod(shape[1:])
    free = shape[0] == -1
    _check(rest == 0 and (count % row == 0 if free else count == shape[0] * row),
           f"{name} must hold {f'a multiple of {row}' if free else shape[0] * row} "
           f"values of 8 bytes, found {len(raw)} bytes")
    # astype: native byte order, in a writable copy
    return np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).astype(dtype).reshape(shape)


def _format2_arrays(doc: dict, n: int, d: int) -> dict:
    """Format 2's arrays: base64 strings, as :func:`to_json` writes them."""
    members = _decode(doc["group_members"], "group_members", np.int64, (-1,))
    _check(members.size >= n, f"group_members must hold {n} rows and the group ends")
    l = members.size - n
    return {
        "mean": _decode(doc["mean"], "mean", np.float64, (d,)),
        "v1": _decode(doc["v1"], "v1", np.float64, (d,)),
        "starting_points": _decode(doc["starting_points"], "starting_points", np.float64,
                                   (l, d)),
        "starting_scores": _decode(doc["starting_scores"], "starting_scores", np.float64,
                                   (l,)),
        "order": members[:n],
        "ends": members[n:],
        "group_cluster": _decode(doc["group_cluster"], "group_cluster", np.int64, (l,)),
        "cluster_sizes": _decode(doc["cluster_sizes"], "cluster_sizes", np.int64, (-1,)),
        "merge_edges": _decode(doc["merge_edges"], "merge_edges", np.int64, (-1, 2)),
    }


# The reader of each model format version: the document's arrays as numpy arrays.
_FORMATS = {1: _format1_arrays, 2: _format2_arrays}


def _model_from_doc(doc: dict, version: int) -> ClusterModel:
    for part, keys in _REQUIRED_KEYS.items():
        obj = doc if part == "model" else doc[part]
        _check(isinstance(obj, dict) and all(key in obj for key in keys),
               f"{part} must be an object with the keys {', '.join(keys)}")
    cfg, stats = doc["config"], doc["stats"]
    config = FitConfig(radius=float(_scalar(cfg["radius"], "config.radius", (int, float))),
                       minpts=_scalar(cfg["minPts"], "config.minPts"),
                       scale=float(_scalar(cfg["scale"], "config.scale", (int, float))),
                       merge_mode=cfg["merge_mode"], outlier_mode=cfg["outlier_mode"])
    config.validate()
    n, d = _scalar(stats["n"], "stats.n"), _scalar(stats["d"], "stats.d")
    a = _FORMATS[version](doc, n, d)
    mean, v1, starting_points, starting_scores = (
        a["mean"], a["v1"], a["starting_points"], a["starting_scores"])
    order, ends, group_cluster = a["order"], a["ends"], a["group_cluster"]
    l = ends.size
    _check(mean.shape == v1.shape == (d,), f"mean and v1 must have length d={d}")
    _check(starting_points.shape == (l, d), f"starting_points must have shape ({l}, {d})")
    _check(starting_scores.shape == group_cluster.shape == (l,),
           f"starting_scores and group_cluster must have length {l}")
    _check(all(bool(np.isfinite(x).all()) for x in (mean, v1, starting_points, starting_scores)),
           "mean, v1, starting_points and starting_scores must be finite")
    # predict's score windows rest on these three: a unit v1 (as prepare requires
    # it), scores in order, and each score within a quarter of the window pad of its
    # point's (twice the rounding of a score; the rest of the pad covers the queries').
    # Norms and pads past 2^32 are taken in the frame, as predict takes them (prep.framed)
    pts, e = framed(starting_points)
    with np.errstate(over="ignore", invalid="ignore"):    # a value past float64 fails its check
        norm, off = float(np.linalg.norm(v1)), np.abs(starting_points @ v1 - starting_scores)
    pad = (math.ldexp(window_pad(pts, 0.0), e) if e > 0 else window_pad(starting_points, 0.0)) / 4
    _check(abs(norm - 1.0) <= 1e-6, "v1 must have unit norm")
    _check(math.frexp(largest(np.linalg.norm(pts, axis=1)))[1] + e <= 1024,
           "starting_points must have norms within float64's range")
    _check(bool(np.all(starting_scores[1:] >= starting_scores[:-1])),
           "starting_scores must be nondecreasing")
    _check(bool(np.all(off <= pad)), "starting_scores must be the starting points' scores along v1")

    # group_members must partition 0..n-1: group ends that rise strictly from
    # 0 to n (each group holds its starting row), n rows in range, none left over.
    partition = f"group_members must partition the rows 0..{n - 1} into nonempty groups"
    _check(order.shape == (n,) and l > 0 and ends[0] > 0 and ends[-1] == n
           and bool(np.all(ends[1:] > ends[:-1])) and bool(np.all((order >= 0) & (order < n))),
           partition)
    group_sizes = np.diff(ends, prepend=0)
    point_group = np.full(n, -1, dtype=np.int64)
    point_group[order] = np.repeat(np.arange(l), group_sizes)
    _check(bool(np.all(point_group >= 0)), partition)

    cluster_sizes, edges = a["cluster_sizes"], a["merge_edges"]
    k = cluster_sizes.size
    _check(cluster_sizes.ndim == 1 and bool(np.all((group_cluster >= -1) & (group_cluster < k))),
           f"group_cluster ids must lie in [-1, {k})")
    # summed over groups, not rows: exact in float64, as n < 2^53
    kept = group_cluster >= 0
    _check(np.array_equal(cluster_sizes, np.bincount(group_cluster[kept], group_sizes[kept], k)),
           "cluster_sizes must count the rows of each cluster")
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
    """Rebuild a model from its JSON document, in format 2 (see
    :func:`to_json`) or format 1.

    Format 1, which earlier versions wrote, holds JSON number lists: the
    vectors and `starting_scores`, `group_cluster` and `cluster_sizes` as
    lists, `starting_points` and `merge_edges` as lists of rows, and
    `group_members` as one list of row indices per group. Its numbers must
    be JSON numbers (no booleans or strings), integers for ids and counts.
    Format 2's arrays must be base64 strings of a whole number of 8-byte
    values, as many as their shapes hold.

    Both formats then pass the same checks: keys, shapes, finite floats,
    `group_members` partitioning the rows 0..n-1 into nonempty groups,
    cluster ids in [-1, k), `cluster_sizes` counting the rows of each cluster,
    edge endpoints in [0, l) and starting points whose norms float64 holds. The
    score windows of `predict` need three more: `v1` of unit norm to within 1e-6,
    nondecreasing `starting_scores`, and each within a quarter of the points'
    ``kernel.window_pad`` of ``starting_points @ v1``. A malformed document raises ValueError.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:    # RecursionError: nested too deep
        raise ValueError(f"malformed model: {exc}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in _FORMATS:
        raise ValueError(f"unsupported model version {version!r}")
    try:
        return _model_from_doc(doc, version)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model: {exc}") from None


def save_model(model: ClusterModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))
        fh.write("\n")


def read_lines(path) -> list[str]:
    """The lines of UTF-8 file `path`, less a byte order mark; ValueError naming it if not."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def load_model(path) -> ClusterModel:
    return from_json("".join(read_lines(path)))
