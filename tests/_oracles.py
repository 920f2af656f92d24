"""Independent reference computations used across the test suite.

Everything here deliberately avoids the code paths it is used to check, and
imports nothing from the package: Jacobi rotations instead of LAPACK's
eigensolver, breadth-first search instead of vectorized component passes,
closed-form areas and lens volumes instead of the incomplete beta, the
incomplete beta one Python float at a time instead of on arrays, rejection
sampling instead of quadrature, plain-python hypergeometric sums instead of
log-factorial tables, all-pairs direct differences instead of score windows
and the expanded-norm kernel, a stable argsort instead of a tie repair, and
per-row Python (``round``, f-strings, list adjacency) instead of whole-array
explanations, and the model document of format 1 (JSON lists) written and
converted to format 2 (base64 strings) field by field.
"""

from __future__ import annotations

import base64
import copy
import heapq
import itertools
import json
import math
from collections import deque
from fractions import Fraction

import numpy as np


def jacobi_eigenvalues(sym, sweeps: int = 50, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending."""
    a = np.array(sym, dtype=np.float64)
    d = a.shape[0]
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(d)
    for _ in range(sweeps):
        off = math.sqrt(np.sum(a * a) - np.sum(np.diag(a) ** 2))
        if off <= tol * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def singular_values_oracle(matrix) -> np.ndarray:
    """Singular values of a matrix via Jacobi on its Gram matrix, descending."""
    x = np.asarray(matrix, dtype=np.float64)
    eig = jacobi_eigenvalues(x.T @ x)
    return np.sqrt(np.clip(eig, 0.0, None))


def erf_series(x: float) -> float:
    """Maclaurin series of erf, exactly-rounded summation; fine for |x| <= 3."""
    terms = []
    term = x
    k = 0
    while abs(term) > 1e-20:
        terms.append(term / (2 * k + 1))
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


def interval_overlap_1d(dist: float, radius: float) -> float:
    """Length of the overlap of two radius-r intervals with centers dist apart."""
    return max(0.0, 2.0 * radius - dist)


def lens_area_2d(dist: float, radius: float) -> float:
    """Area of the intersection of two equal circles (classic lens formula)."""
    if dist >= 2.0 * radius:
        return 0.0
    return (2.0 * radius * radius * math.acos(dist / (2.0 * radius))
            - 0.5 * dist * math.sqrt(4.0 * radius * radius - dist * dist))


def mc_lens_volume(dist: float, radius: float, d: int, samples: int,
                   seed: int) -> tuple[float, float]:
    """Rejection estimate of the two-ball intersection volume and its
    standard error. Samples a box around the first ball."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(samples, d))
    center2 = np.zeros(d)
    center2[0] = dist
    in_first = np.einsum("ij,ij->i", pts, pts) <= radius * radius
    diff = pts - center2
    in_second = np.einsum("ij,ij->i", diff, diff) <= radius * radius
    frac = np.count_nonzero(in_first & in_second) / samples
    box = (2.0 * radius) ** d
    return box * frac, box * math.sqrt(frac * (1.0 - frac) / samples)


def mc_window_hit_rate(c: float, r: float, s: float, d: int, samples: int,
                       seed: int) -> tuple[float, float, float]:
    """Monte Carlo mirror of the elongated-blob model.

    Returns (p2 estimate, standard error, conditional fraction). Samples are
    standard normal along axis 0 and N(0, s^2) elsewhere; p2 is the slab hit
    fraction that also lands in the ball, scaled by the exact slab mass.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(samples, d))
    x[:, 1:] *= s
    slab = np.abs(x[:, 0] - c) <= r
    m = int(np.count_nonzero(slab))
    center = np.zeros(d)
    center[0] = c
    diff = x[slab] - center
    hits = int(np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= r * r))
    frac = hits / m
    p1_exact = 0.5 * (math.erf((c + r) / math.sqrt(2.0))
                      - math.erf((c - r) / math.sqrt(2.0)))
    return p1_exact * frac, p1_exact * math.sqrt(frac * (1.0 - frac) / m), frac


def stable_score_sort(centered, v1) -> tuple[np.ndarray, np.ndarray]:
    """Rows ordered by score the plain way: numpy's stable argsort of the
    scores. Returns (sorted scores, perm), as ``score_and_sort`` does."""
    X = np.asarray(centered, dtype=np.float64)
    raw = X @ np.asarray(v1, dtype=np.float64)
    perm = np.argsort(raw, kind="stable")
    return raw[perm], perm


def brute_force_groups(points_sorted, scores, r: float) -> list[list[int]]:
    """Greedy aggregation without any pruning, written independently:
    plain nested loops over the sorted rows."""
    n = len(scores)
    r_sq = r * r
    assigned = [False] * n
    groups = []
    for i in range(n):
        if assigned[i]:
            continue
        assigned[i] = True
        members = [i]
        for j in range(i + 1, n):
            if assigned[j]:
                continue
            delta = points_sorted[j] - points_sorted[i]
            if float(delta @ delta) <= r_sq:
                assigned[j] = True
                members.append(j)
        groups.append(members)
    return groups


def windowed_dist_count(points_sorted, scores, r: float, pad: float) -> tuple[list, list, int]:
    """Greedy aggregation over the padded score windows
    ``scores[j] <= scores[i] + (r + pad)``, by plain loops: the starting rows,
    each row's group, and the number of unassigned rows the windows held, each
    start counted at its turn."""
    n = len(scores)
    r_sq, reach = r * r, r + pad
    group_of = [-1] * n
    starts = []
    count = 0
    for i in range(n):
        if group_of[i] >= 0:
            continue
        group_of[i] = len(starts)
        starts.append(i)
        j = i + 1
        while j < n and scores[j] <= scores[i] + reach:
            if group_of[j] < 0:
                count += 1
                delta = points_sorted[j] - points_sorted[i]
                if float(delta @ delta) <= r_sq:
                    group_of[j] = group_of[i]
            j += 1
    return starts, group_of, count


def aggregate_reference(prepared, r: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Same partition as ``aggregate`` on `prepared` (its sorted, centered
    rows), by the direct formula, scanning every remaining point.

    No early exit on the score gap, so dist_count is an upper bound for the
    pruned scan's count: it measures how much work the pruning saves.
    """
    X, n = prepared.centered, prepared.n
    r_sq = float(r) * float(r)
    assigned = np.zeros(n, dtype=bool)
    group_of = np.full(n, -1, dtype=np.int64)
    starts: list[int] = []
    dist_count = 0
    i = 0
    while i < n:
        gid = len(starts)
        starts.append(i)
        assigned[i] = True
        group_of[i] = gid
        cand = i + 1 + np.nonzero(~assigned[i + 1:])[0]
        if cand.size:
            diff = X[cand] - X[i]
            dist_sq = np.einsum("ij,ij->i", diff, diff)
            dist_count += int(cand.size)
            hit = cand[dist_sq <= r_sq]
            assigned[hit] = True
            group_of[hit] = gid
        i += 1
        while i < n and assigned[i]:
            i += 1
    return np.asarray(starts, dtype=np.int64), group_of, dist_count


def direct_sq_matrix(A, B) -> np.ndarray:
    """|B[j] - A[i]|^2 for every pair of rows, by the direct difference
    formula, one broadcast subtraction for all pairs."""
    a = np.asarray(A, dtype=np.float64)
    b = np.asarray(B, dtype=np.float64)
    diff = b[None, :, :] - a[:, None, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def direct_nearest(A, B) -> np.ndarray:
    """Index of the nearest row of B to each row of A by the direct formula,
    the smallest index among equal distances."""
    return np.argmin(direct_sq_matrix(A, B), axis=1)


def _upper_pairs(mask) -> set:
    i, j = np.nonzero(np.triu(mask, k=1))
    return set(zip(i.tolist(), j.tolist()))


def brute_force_distance_edges(starting_points, r: float, scale: float) -> set:
    """All-pairs evaluation of the starting-point distance criterion."""
    pts = np.asarray(starting_points, dtype=np.float64)
    return _upper_pairs(direct_sq_matrix(pts, pts) <= (scale * r) ** 2)


def brute_force_components(num_groups: int, edges, group_sizes) -> tuple[list, list]:
    """Connected components by breadth-first search over adjacency lists,
    numbered by descending point count, ties to the smallest group index.
    Returns (cluster id per group, point count per cluster id)."""
    adjacency = [[] for _ in range(num_groups)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    component = [-1] * num_groups
    members = []
    for seed in range(num_groups):
        if component[seed] != -1:
            continue
        component[seed] = len(members)
        found, queue = [seed], deque([seed])
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if component[nxt] == -1:
                    component[nxt] = component[seed]
                    found.append(nxt)
                    queue.append(nxt)
        members.append(found)
    totals = [sum(group_sizes[g] for g in found) for found in members]
    # components are discovered in order of their smallest group index
    order = sorted(range(len(members)), key=lambda c: (-totals[c], c))
    new_id = {c: rank for rank, c in enumerate(order)}
    return [new_id[c] for c in component], [totals[c] for c in order]


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def lens_volume(dist, radius: float, d: int) -> np.ndarray:
    """Volume of the intersection of two radius-r balls in d dimensions with
    centres `dist` apart (elementwise), for dist <= 2r.

    The lens is two caps. A cap is the integral of (d-1)-ball slices, which
    the substitution x = r cos(phi) turns into r^d V_{d-1} times the
    integral of sin^d from 0 to acos(dist / 2r), summed by the reduction
    formula J_k = ((k - 1) J_{k-2} - sin^{k-1} cos) / k.
    """
    theta = np.arccos(np.clip(np.asarray(dist, dtype=np.float64) / (2.0 * radius), 0.0, 1.0))
    sin, cos = np.sin(theta), np.cos(theta)
    if d % 2:
        k, integral = 1, 1.0 - cos
    else:
        k, integral = 2, (theta - sin * cos) / 2.0
    for k in range(k + 2, d + 1, 2):
        integral = ((k - 1) * integral - sin ** (k - 1) * cos) / k
    return 2.0 * _unit_ball_volume(d - 1) * radius ** d * integral


_EPS = 1e-15        # convergence threshold of the continued fraction
_FPMIN = 1e-300     # keeps the modified Lentz recurrence away from 0
_MAX_ITER = 500


def scalar_betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz),
    one Python float at a time: the reference for the array recurrence."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValueError(f"incomplete beta continued fraction failed to converge "
                     f"(a={a}, b={b}, x={x})")


def scalar_reg_inc_beta(s: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_s(a, b) for s in [0, 1], a > 0, b > 0,
    by `math` and Python floats."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta parameters must be positive")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    if s == 0.0:
        return 0.0
    if s == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(s) + b * math.log1p(-s))
    # Symmetry switch: the continued fraction converges fast only on one side.
    if s < (a + 1.0) / (a + b + 2.0):
        return front * scalar_betacf(a, b, s) / a
    return 1.0 - front * scalar_betacf(b, a, 1.0 - s) / b


def scalar_overlap_fraction(dist: float, radius: float, d: int) -> float:
    """Intersection volume of two equal d-balls over one ball's volume,
    I_s((d+1)/2, 1/2) with s = 1 - dist^2/(4 radius^2), for one distance."""
    if dist < 0.0:
        raise ValueError("dist must be nonnegative")
    if dist >= 2.0 * radius:
        return 0.0
    s = 1.0 - (dist * dist) / (4.0 * radius * radius)
    s = min(max(s, 0.0), 1.0)
    return scalar_reg_inc_beta(s, 0.5 * (d + 1.0), 0.5)


def density_pair_test(count_union: int, count_inter: int, dist: float,
                      r: float, d: int) -> bool:
    """Density criterion for one pair of groups: count_union / vol(union)
    <= count_inter / vol(intersection), with the common ball volume
    cancelled out. An empty intersection count never witnesses shared
    density."""
    if count_inter == 0:
        return False
    frac = scalar_overlap_fraction(dist, r, d)
    return count_union * frac <= count_inter * (2.0 - frac)


def brute_force_density_edges(points, starting_points, r: float, d: int) -> set:
    """All-pairs evaluation of the lens-density criterion with explicit
    linear-space volumes (valid for the small dimensions used in tests)."""
    centers = np.asarray(starting_points, dtype=np.float64)
    in_ball = (direct_sq_matrix(centers, points) <= r * r).astype(np.float64)
    count_inter = in_ball @ in_ball.T          # exact: integer counts far below 2^53
    sizes = in_ball.sum(axis=1)
    count_union = sizes[:, None] + sizes[None, :] - count_inter
    dist = np.sqrt(direct_sq_matrix(centers, centers))
    vol_inter = lens_volume(dist, r, d)
    vol_union = 2.0 * _unit_ball_volume(d) * r ** d - vol_inter
    merged = ((dist < 2.0 * r) & (count_inter > 0)
              & (count_union * vol_inter <= count_inter * vol_union))
    return _upper_pairs(merged)


def direct_density_pairs(points, starting_points, r: float) -> list[tuple]:
    """(i, j, count_union, count_inter, dsq) for every pair of centres i < j
    with a row in both balls and |c_j - c_i|^2 < 4.0 * (r * r), a ball being
    the rows with |p - c|^2 <= r * r: all rows and pairs by the direct
    formula, with no score window."""
    centers = np.asarray(starting_points, dtype=np.float64)
    in_ball = (direct_sq_matrix(centers, points) <= r * r).astype(np.float64)
    count_inter = in_ball @ in_ball.T          # exact: integer counts far below 2^53
    sizes = in_ball.sum(axis=1)
    dsq = direct_sq_matrix(centers, centers)
    i, j = np.nonzero(np.triu((dsq < 4.0 * (r * r)) & (count_inter > 0), 1))
    return [(a, b, int(sizes[a] + sizes[b] - count_inter[a, b]), int(count_inter[a, b]),
             float(dsq[a, b])) for a, b in zip(i.tolist(), j.tolist())]


def direct_expected_mi(row_sums, col_sums, n: int) -> float:
    """Expected mutual information by explicit hypergeometric summation with
    exact rational probabilities (small n only)."""
    total = 0.0
    for ai in row_sums:
        for bj in col_sums:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                prob = Fraction(math.comb(bj, nij) * math.comb(n - bj, ai - nij),
                                math.comb(n, ai))
                total += (nij / n) * math.log(n * nij / (ai * bj)) * float(prob)
    return total


def line_blobs(n: int, d: int, points_per_blob: int, spacing: float,
               std: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Blobs laid out along the first axis with fixed per-blob population, so
    the dataset's extent grows with n while the local geometry stays put."""
    k = n // points_per_blob
    rng = np.random.default_rng(seed)
    centers = np.zeros((k, d))
    centers[:, 0] = spacing * np.arange(k)
    centers[:, 1:] = rng.uniform(-2.0, 2.0, size=(k, d - 1))
    labels = np.repeat(np.arange(k), points_per_blob)
    return centers[labels] + rng.normal(0.0, std, size=(n, d)), labels


def summary_reference(model) -> tuple[dict, str]:
    """Payload and text of the fit summary (text version 1), built row by
    row with Python's ``round`` and rendered with one f-string per field."""
    raw_starts = model.starting_points + model.mean
    ncoord = min(model.d, 2)
    group_sizes = np.bincount(model.point_group, minlength=model.num_groups)
    group_rows = [{
        "group": g,
        "num_points": int(group_sizes[g]),
        "cluster": int(model.group_cluster[g]),
        "coordinates": [round(float(c), 2) for c in raw_starts[g, :ncoord]],
    } for g in range(model.num_groups)]
    p = {
        "kind": "summary",
        "text_version": 1,
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
        "outlier_points": int(model.n - model.cluster_sizes.sum()),
        "groups": group_rows,
    }
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
    lines.append(
        f"In total {p['dist_count']} comparisons were required "
        f"({p['avg_dist_pp']:.2f} comparisons per data point)."
    )
    lines.append(
        f"This resulted in {p['num_groups']} groups, each uniquely associated "
        f"with a starting point."
    )
    lines.append(
        f"These {p['num_groups']} groups were subsequently merged into "
        f"{p['num_clusters']} clusters with the following sizes:"
    )
    for c, size in enumerate(p["cluster_sizes"]):
        lines.append(f"* cluster {c} : {size}")
    if p["outlier_points"]:
        lines.append(f"* outliers : {p['outlier_points']}")
    lines.append("A list of all starting points is shown below.")
    lines.append("-----")
    lines.append(" Group  NrPts  Cluster  Coordinates")
    for row in p["groups"]:
        coords = " ".join(f"{c:.2f}" for c in row["coordinates"])
        lines.append(f"{row['group']:>6d} {row['num_points']:>6d} "
                     f"{row['cluster']:>8d}  {coords}")
    lines.append("-----")
    lines.append("In order to explain the clustering of individual data points, "
                 "use explain(index) or explain(index1, index2) with indices of "
                 "the data points.")
    return p, "\n".join(lines)


def brute_force_group_path(model, start: int, goal: int):
    """Minimum-weight group path over the merge edges by Dijkstra on Python
    adjacency lists in stable edge order; ties go to the lexicographically
    smallest group sequence. None when no path exists."""
    if start == goal:
        return [start]
    edges = model.merge_edges
    pts = model.starting_points
    weight = np.sqrt(np.sum((pts[edges[:, 0]] - pts[edges[:, 1]]) ** 2, axis=1))
    adjacency = [[] for _ in range(model.num_groups)]
    for (a, b), w in zip(edges.tolist(), weight.tolist()):
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    heap = [(0.0, (start,))]
    settled = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == goal:
            return list(path)
        if node in settled:
            continue
        settled.add(node)
        for nbr, w in adjacency[node]:
            if nbr not in settled:
                heapq.heappush(heap, (dist + w, path + (nbr,)))
    return None


def to_json_format1(model) -> str:
    """The model document in format 1, which ``to_json`` wrote before format
    2: every array as JSON number lists, `group_members` as one list of row
    indices per group."""
    members = [[] for _ in range(model.starting_scores.size)]
    for row, g in enumerate(model.point_group.tolist()):
        members[g].append(row)
    doc = {
        "version": 1,
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
        "group_members": members,
        "group_cluster": model.group_cluster.tolist(),
        "cluster_sizes": model.cluster_sizes.tolist(),
        "merge_edges": model.merge_edges.tolist(),
        "stats": {"dist_count": model.dist_count, "n": model.n, "d": model.d},
    }
    return json.dumps(doc)


# Format 2's array fields and the little-endian type of their values.
FORMAT2_ARRAYS = {"mean": "<f8", "v1": "<f8", "starting_points": "<f8",
                  "starting_scores": "<f8", "group_members": "<i8", "group_cluster": "<i8",
                  "cluster_sizes": "<i8", "merge_edges": "<i8"}


def _flat(values) -> list:
    return list(itertools.chain.from_iterable(values)) if values and isinstance(
        values[0], list) else values


def format2_doc(doc1: dict) -> dict:
    """A format-1 document (parsed JSON) in format 2: each array field
    present becomes base64 of its values in row order, `group_members` the
    rows group by group followed by each group's end."""
    doc = dict(copy.deepcopy(doc1), version=2)
    if "group_members" in doc:
        members = doc["group_members"]
        doc["group_members"] = [*_flat(members),
                                *itertools.accumulate(len(m) for m in members)]
    for key, dtype in FORMAT2_ARRAYS.items():
        if key in doc:
            raw = np.array(_flat(doc[key]), dtype=dtype).tobytes()
            doc[key] = base64.b64encode(raw).decode("ascii")
    return doc


def format1_doc(doc2: dict) -> dict:
    """A format-2 document (parsed JSON) decoded to format 1's lists."""
    doc = dict(copy.deepcopy(doc2), version=1)
    for key, dtype in FORMAT2_ARRAYS.items():
        doc[key] = np.frombuffer(base64.b64decode(doc[key]), dtype=dtype).tolist()
    n, d = doc["stats"]["n"], doc["stats"]["d"]
    rows, ends = doc["group_members"][:n], doc["group_members"][n:]
    doc["group_members"] = [rows[a:b] for a, b in zip([0, *ends], ends)]
    doc["starting_points"] = [doc["starting_points"][i:i + d]
                              for i in range(0, len(doc["starting_points"]), d)]
    edges = doc["merge_edges"]
    doc["merge_edges"] = [edges[i:i + 2] for i in range(0, len(edges), 2)]
    return doc
