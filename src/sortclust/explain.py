"""Textual explanations of a fitted clustering.

Three report kinds: a fit summary, the assignment of one point, and the
group path connecting two points. Each report carries a machine-readable
payload; the text is rendered from that payload alone, so identical payloads
always produce byte-identical text. Templates are versioned through
TEXT_VERSION.

The summary rounds coordinates as ``round(x, 2)`` does, for all rows at once,
by ``rint(100 x) / 100`` (`_round2`): 100 x errs by at most half an ulp, so
unless the exact 100 x lies that close to a half-way point, ``rint`` finds
the integer m nearest to it, and m / 100 is the double nearest m/100, which
is ``round``'s result. Entries within a few ulps of a half-way point, or with
|100 x| >= 2^49 or not finite, are decided again by ``round``.

The group path search pops the least (distance, path) entry of its heap, the
distance summed in path order over the weights of the CSR adjacency
(``ClusterModel._merge_adjacency``, once per model); equal entries are
indistinguishable, so the order of a node's neighbours cannot change the path.
A weight is a distance between starting points, so h(g) = |p_g - p_goal| bounds
the rest of any path from g (Hart, Nilsson and Raphael 1968). An A* pass, by
distance + h, finds the length L of some path; the search then runs again and
pushes only entries with distance + h <= L. That test grows with the distance
and the keys with each step, so Dijkstra's argument gives the least key among
the paths whose prefixes all pass, and the answer's do: each has distance plus
exact h at most its length. Rounding is banded (Higham, *Accuracy and Stability
of Numerical Algorithms*, 3.1): h is deflated by (d + 4) eps and 2 sqrt(d tiny)
(d squares off by tiny/2 each in underflow), L inflated by 2 (l + d + 4) eps
and 3 l sqrt(d tiny), as a path sums under l weights, each within (d + 3) eps/2.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .aggregation import _finite_real
from .kernel import _EPS, _TINY
from .postprocess import ClusterModel

TEXT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ExplainReport:
    kind: str          # "summary" | "point" | "pair"
    text: str
    structured: dict


def _check_index(model: ClusterModel, index: int, name: str = "index") -> int:
    if not (_finite_real(index) and int(index) == index and 0 <= index < model.n):
        raise ValueError(f"{name} must be an integer in [0, {model.n - 1}], got {index!r}")
    return int(index)


def _cluster_phrase(cluster: int) -> str:
    return f"cluster #{cluster}" if cluster >= 0 else "the outliers"


def _round2(x: np.ndarray) -> np.ndarray:
    """``round(v, 2)`` of each entry of the float64 array `x`."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = 100.0 * x
        out = np.rint(scaled) / 100.0
        # |scaled - 100 x| <= eps/2 |scaled|; the distance to the half-way
        # point adds at most eps. The band exceeds 1/2 from 2^49; inf gives nan.
        near = ~(np.abs(scaled - np.floor(scaled) - 0.5) > 4.0 * _EPS * (np.abs(scaled) + 1.0))
    out[near] = [round(v, 2) for v in x[near].tolist()]
    return out


def explain_summary(model: ClusterModel) -> ExplainReport:
    """Summary of the whole fit: parameters, work counters, groups, clusters."""
    coords = _round2(model.starting_points[:, :2] + model.mean[:2]).tolist()
    group_sizes = np.bincount(model.point_group, minlength=model.num_groups).tolist()
    group_rows = [{"group": g, "num_points": size, "cluster": cluster, "coordinates": xy}
                  for g, (size, cluster, xy) in enumerate(
                      zip(group_sizes, model.group_cluster.tolist(), coords))]
    outlier_points = int(model.n - model.cluster_sizes.sum())
    payload = {
        "kind": "summary",
        "text_version": TEXT_VERSION,
        "n": model.n,
        "d": model.d,
        "radius": model.config.radius,
        "minpts": model.config.minpts,
        "mext": model.mext,
        "r": model.r,
        "dist_count": model.dist_count,
        "avg_dist_pp": model.avg_dist_pp,
        "num_groups": model.num_groups,
        "num_clusters": model.num_clusters,
        "cluster_sizes": [int(s) for s in model.cluster_sizes],
        "outlier_points": outlier_points,
        "groups": group_rows,
    }
    return ExplainReport(kind="summary", text=_render_summary(payload),
                         structured=payload)


def _render_summary(p: dict) -> str:
    lines = [
        f"A clustering of {p['n']} data points with {p['d']} features has been performed.",
        f"The radius parameter was set to {p['radius']:.2f} and minPts was set to {p['minpts']}.",
    ]
    if p["mext"] > 0.0:
        lines.append(
            f"As the provided data has been scaled by a factor of 1/{p['mext']:.2f}, "
            f"data points within a radius of R={p['radius']:.2f}*{p['mext']:.2f}={p['r']:.2f} "
            f"were aggregated into groups."
        )
    else:
        lines.append(
            f"The data has no spread along its principal direction, so data points "
            f"within a radius of R={p['r']:.2f} were aggregated into groups."
        )
    lines += _work_lines(p["dist_count"], p["avg_dist_pp"], [
        f"This resulted in {p['num_groups']} groups, each uniquely associated "
        f"with a starting point.",
        f"These {p['num_groups']} groups were subsequently merged into "
        f"{p['num_clusters']} clusters with the following sizes:",
    ], p["cluster_sizes"], p["outlier_points"])
    lines.append("A list of all starting points is shown below.")
    lines.append("-----")
    lines.append(" Group  NrPts  Cluster  Coordinates")
    row_format = "%6d %6d %8d  " + " ".join(["%.2f"] * min(p["d"], 2))
    lines.extend(row_format % (row["group"], row["num_points"], row["cluster"],
                               *row["coordinates"]) for row in p["groups"])
    lines.append("-----")
    lines.append("In order to explain the clustering of individual data points, "
                 "use explain(index) or explain(index1, index2) with indices of "
                 "the data points.")
    return "\n".join(lines)


def explain_point(model: ClusterModel, index: int) -> ExplainReport:
    """Which group and cluster one data point belongs to."""
    index = _check_index(model, index)
    group = int(model.point_group[index])
    cluster = int(model.group_cluster[group])
    payload = {
        "kind": "point",
        "text_version": TEXT_VERSION,
        "index": index,
        "group": group,
        "cluster": cluster,
    }
    text = (f"The data point {index} is in group {group}, which has been merged "
            f"into {_cluster_phrase(cluster)}.")
    return ExplainReport(kind="point", text=text, structured=payload)


def _shortest_group_path(model: ClusterModel, start: int, goal: int):
    """Minimum-weight group path in the merge graph (weights = starting-point
    distances); among equal-weight paths the lexicographically smallest
    sequence of group ids wins. None when no path exists."""
    if start == goal:
        return [start]
    *graph, pts = model._merge_adjacency
    (l, d), diff = pts.shape, pts - pts[goal]
    tiny = math.sqrt(d * _TINY)
    h = (np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 - (d + 4) * _EPS) - 2.0 * tiny).tolist()
    length = _search(graph, start, goal, h, math.inf, by_bound=True)[0]    # -inf: no path
    limit = length * (1.0 + 2.0 * (l + d + 4) * _EPS) + 3.0 * l * tiny
    return _search(graph, start, goal, h, limit, by_bound=False)[1]


def _search(graph, start: int, goal: int, h: list, limit: float, by_bound: bool):
    """(Distance, path) at `goal` first popped by least (distance + h if `by_bound` else
    distance, distance, path), of entries with distance + h <= `limit`; else (-inf, None)."""
    offsets, nbr, nbr_weight = graph
    heap = [(0.0, 0.0, (start,))]
    settled: set[int] = set()
    while heap:
        _, dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == goal:
            return dist, list(path)
        if node in settled:
            continue
        settled.add(node)
        lo, hi = offsets[node], offsets[node + 1]
        for g, w in zip(nbr[lo:hi].tolist(), nbr_weight[lo:hi].tolist()):
            step = dist + w
            if g not in settled and (bound := step + h[g]) <= limit:
                heapq.heappush(heap, (bound if by_bound else step, step, path + (g,)))
    return -math.inf, None


def explain_pair(model: ClusterModel, first: int, second: int) -> ExplainReport:
    """Why two points share a cluster (via a group path) or do not."""
    first = _check_index(model, first, "first index")
    second = _check_index(model, second, "second index")
    g1 = int(model.point_group[first])
    g2 = int(model.point_group[second])
    c1 = int(model.group_cluster[g1])
    c2 = int(model.group_cluster[g2])
    same = c1 == c2 and c1 >= 0
    path = _shortest_group_path(model, g1, g2) if same else None
    path_text = " <-> ".join(str(g) for g in path) if path is not None else None
    payload = {
        "kind": "pair",
        "text_version": TEXT_VERSION,
        "first_index": first,
        "second_index": second,
        "first_group": g1,
        "second_group": g2,
        "first_cluster": c1,
        "second_cluster": c2,
        "same_cluster": same,
        "path": path,
        "path_text": path_text,
    }
    if same:
        text = (f"The data point {first} is in group {g1} and the data point "
                f"{second} is in group {g2}, both of which were merged into "
                f"cluster #{c1}.")
        if path is not None:
            text += f" These two groups are connected via groups {path_text}."
        else:
            # Only minPts reassignment puts groups without a merge path into
            # one cluster.
            text += (" No chain of merged groups connects these two groups; "
                     "the minPts rule moved at least one of them into this cluster.")
    else:
        text = (f"The data point {first} is in group {g1}, which belongs to "
                f"{_cluster_phrase(c1)}. The data point {second} is in group "
                f"{g2}, which belongs to {_cluster_phrase(c2)}. There is no "
                f"connection between them.")
    return ExplainReport(kind="pair", text=text, structured=payload)


def _work_lines(dist_count: int, avg_dist_pp: float, merged: list[str],
                cluster_sizes: list[int], outliers: int) -> list[str]:
    """The comparison count, the lines `merged`, then the cluster sizes."""
    lines = [f"In total {dist_count} comparisons were required "
             f"({avg_dist_pp:.2f} comparisons per data point).", *merged]
    lines += [f"* cluster {c} : {size}" for c, size in enumerate(cluster_sizes)]
    if outliers:
        lines.append(f"* outliers : {outliers}")
    return lines


def fit_stats_text(model: ClusterModel) -> str:
    """Short fit report: group and cluster counts plus the comparison counters."""
    return "\n".join([
        f"The {model.n} data points with {model.d} features were aggregated "
        f"into {model.num_groups} groups.",
        *_work_lines(model.dist_count, model.avg_dist_pp, [
            f"The {model.num_groups} groups were merged into {model.num_clusters} "
            f"clusters with the following sizes:",
        ], model.cluster_sizes.tolist(), int(model.n - model.cluster_sizes.sum())),
    ])
