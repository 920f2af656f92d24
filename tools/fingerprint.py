"""Exact fingerprints of the benchmark's fits, for comparing two source trees.

    python3 tools/fingerprint.py [--root DIR] [--workload NAME ...] [--seed N ...]
                                 [--scale S] [--offset C]

For each workload and seed, fits the training rows of `bench/harness.py`'s
workload with its parameters and predicts its query rows, both taken as
C + S times the rows (C = 0 and S = 1 by default, which leave them as they
are; C + S rows far from 1 in offset or spread test the frames). It then prints one
JSON line. The line holds the fit's counters and the sha256 digests of
`starts`, `group_of` (as `aggregate` returned them inside `fit`), the merge
edges, the labels, the predicted query labels (of one call on every query
row, and of the benchmark's streaming calls on 16 rows each, concatenated:
`predict` may take a different search for each), the `to_json` text, the
`explain_summary` text and `json.dumps` payload, the text and payload of
`explain_pair` on the benchmark's pair (`harness.far_pair`, ranked on the
unscaled rows, so the pair is scale 1's at any scale), and those of 64
pairs of rows drawn, seeded by the seed, from one cluster each (`pairs`), so
that group paths are compared on many pairs. Two trees that print the same
lines gave the same results bit for bit.

`--root` takes the sources (`src/` and `bench/`) from another checkout, so a
tree without this script can be fingerprinted too. The bench modules are
only imported, never modified. BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# BLAS reads its thread count once, when numpy is imported.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402


def digest(array) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cluster_pairs(model, seed: int) -> list[tuple[int, int]]:
    """64 pairs of rows in one cluster: a clustered row, then any row of its cluster."""
    rng = np.random.default_rng([seed, 2])
    labels = model.labels
    firsts = rng.choice(np.flatnonzero(labels >= 0), size=64).tolist()
    return [(i, int(rng.choice(np.flatnonzero(labels == labels[i])))) for i in firsts]


def fingerprint(workload, seed: int, scale: float = 1.0, offset: float = 0.0) -> dict:
    import harness
    import tracing
    from sortclust import explain_pair, explain_summary, predict, to_json

    inputs = harness.make_inputs(workload, seed)
    rows = inputs.train    # the benchmark's pair is ranked on these, at any scale
    inputs.train, inputs.query = inputs.train * scale, inputs.query * scale
    if offset:    # 0 + x would turn -0.0 into 0.0
        inputs.train, inputs.query = offset + inputs.train, offset + inputs.query
    tracer = tracing.Tracer()
    with tracer.instrument():
        model = harness.fit_workload(workload, inputs.train)
    starts, group_of, _ = tracer.results["aggregation.aggregate"]
    components = tracer.results["merging.components"]
    text = to_json(model)
    summary = explain_summary(model)
    pair = explain_pair(model, *harness.far_pair(model, rows, inputs.train_truth))
    pairs = [explain_pair(model, i, j) for i, j in cluster_pairs(model, seed)]
    small = components.sizes < harness.MINPTS
    # the query rows of the benchmark's streaming predict calls, as it slices them
    wrap = inputs.query.shape[0] - harness.SMALL_BATCH
    streamed = [predict(model, inputs.query[lo:lo + harness.SMALL_BATCH])
                for lo in (i * harness.SMALL_BATCH % wrap for i in range(harness.SMALL_CALLS))]
    return {
        "workload": workload.name,
        "seed": seed,
        "counters": {
            **harness.counters(model),
            **tracing.merge_counters(model, workload.merge_mode),
            "components": int(components.k),
            "groups_reassigned": int(np.count_nonzero(small[components.cluster_of_group])),
            "model_bytes": len(text.encode("utf-8")),
        },
        "sha256": {
            "starts": digest(starts),
            "group_of": digest(group_of),
            "edges": digest(model.merge_edges),
            "labels": digest(model.labels),
            "predict": digest(predict(model, inputs.query)),
            "predict_small": digest(np.concatenate(streamed)),
            "to_json": text_digest(text),
            "summary_text": text_digest(summary.text),
            "summary_payload": text_digest(json.dumps(summary.structured)),
            "pair": text_digest(json.dumps([pair.text, pair.structured])),
            "pairs": text_digest(json.dumps([[p.text, p.structured] for p in pairs])),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="checkout whose src/ and bench/ are used (default: this one)")
    p.add_argument("--workload", nargs="+", default=["few-groups", "many-groups", "density"])
    p.add_argument("--seed", type=int, nargs="+", default=[3, 7, 11])
    p.add_argument("--scale", type=float, default=1.0,
                   help="factor on the training and query rows (default: 1)")
    p.add_argument("--offset", type=float, default=0.0,
                   help="added to every entry of the scaled rows (default: 0)")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import harness
    unknown = [name for name in args.workload if name not in harness.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(harness.WORKLOADS)}")
    for name in args.workload:
        for seed in args.seed:
            print(json.dumps(fingerprint(harness.WORKLOADS[name], seed, args.scale, args.offset),
                             sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
