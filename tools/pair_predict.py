"""Interleaved predict or fit timings of two source trees, or their fits' peak memory.

    python3 tools/pair_predict.py --root DIR [--workload NAME ...] [--seed N]
                                  [--rounds N] [--fit [--rows N] | --rss]

Loads the `sortclust` of DIR and of this checkout into one process, as two
module sets, fits the training rows of `bench/harness.py`'s workload once,
and loads the model into both trees through `to_json`/`from_json`. Each
round times the benchmark's streaming predict calls on 16 rows each (sliced
as `harness.Session.round` slices them), then one call on every query row.
Every call runs in both trees back to back, the tree that goes first
alternating from round to round, and both must return the same labels.

Prints one JSON line per workload: for the 16-row calls (`predict_small_ms`)
and the full-query calls (`predict_ms`), each tree's p50 and p90 in ms and
the share of pairs of calls in which this checkout was faster (`wins`).

With `--fit`, each round instead fits the workload's training rows once in
each tree (with the benchmark's parameters), the tree that goes first
alternating, and both models must give the same `to_json` text; the line
then holds `fit_ms` in the same form. `--rows N` fits only the first N
training rows, as the benchmark's CLI commands do with 5,000 (the line
then holds `rows`): a fit of that size takes milliseconds, which the CLI's
process start-up hides.
Timing both trees in one process, call by call, resolves changes of a few
percent that separate benchmark runs cannot: their calls meet different
heap and cache states. BLAS runs on one thread, as in the benchmark.

With `--rss`, DIR's tree and then this checkout's each run in a child
process of its own, which makes the workload's inputs and fits its training
rows `--rounds` times, dropping each model before the next fit. The line
then holds `rss_mb`: each tree's peak resident memory (`ru_maxrss`, in MB)
after each fit, so the first entry is one fit's peak and the later ones show
what repeated fits add. A model kept alive into the next fit would add its
arrays to that fit's peak.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads its thread count once, when numpy is imported.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_tree(src: Path, name: str):
    """The `sortclust` package under `src`, imported as `name`: its modules
    import each other relatively, so each tree keeps its own set."""
    package = src / "sortclust"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def summary(base: list, work: list) -> dict:
    """p50 and p90 of each tree's times (s) in ms, and the share of pairs
    that the working tree won."""
    base, work = np.asarray(base), np.asarray(work)

    def quantiles(times):
        p50, p90 = np.percentile(times * 1e3, [50, 90])
        return {"p50": round(float(p50), 4), "p90": round(float(p90), 4)}

    return {"base": quantiles(base), "work": quantiles(work),
            "wins": round(float(np.mean(work < base)), 4)}


def pair(workload, seed: int, rounds: int, base, work) -> dict:
    """Time both trees' predicts on the workload, interleaved call by call."""
    import harness
    from sortclust import to_json

    inputs = harness.make_inputs(workload, seed)
    text = to_json(harness.fit_workload(workload, inputs.train))
    models = {tree: tree.from_json(text) for tree in (base, work)}
    wrap = inputs.query.shape[0] - harness.SMALL_BATCH
    batches = [inputs.query[lo:lo + harness.SMALL_BATCH]
               for lo in (i * harness.SMALL_BATCH % wrap for i in range(harness.SMALL_CALLS))]
    times = {(kind, tree): [] for kind in ("small", "full") for tree in (base, work)}
    for r in range(rounds):
        gc.collect()
        order = (base, work) if r % 2 == 0 else (work, base)
        for kind, calls in (("small", batches), ("full", [inputs.query])):
            for rows in calls:
                labels = []
                for tree in order:
                    start = time.perf_counter()
                    labels.append(tree.predict(models[tree], rows))
                    times[kind, tree].append(time.perf_counter() - start)
                if not np.array_equal(*labels):
                    raise AssertionError(f"the trees' labels differ on {workload.name}")
    return {"workload": workload.name, "seed": seed, "rounds": rounds,
            "predict_small_ms": summary(times["small", base], times["small", work]),
            "predict_ms": summary(times["full", base], times["full", work])}


def pair_fit(workload, seed: int, rounds: int, base, work, rows=None) -> dict:
    """Time both trees' fits of the workload's training rows (the first
    `rows` of them, if given), interleaved round by round."""
    import harness

    train = harness.make_inputs(workload, seed).train[:rows]
    times = {base: [], work: []}
    for r in range(rounds):
        texts = []
        for tree in (base, work) if r % 2 == 0 else (work, base):
            gc.collect()
            start = time.perf_counter()
            model = tree.fit(train, radius=workload.radius, minpts=harness.MINPTS,
                             merge_mode=workload.merge_mode, outlier_mode=harness.OUTLIER_MODE)
            times[tree].append(time.perf_counter() - start)
            texts.append(tree.to_json(model))
        if texts[0] != texts[1]:
            raise AssertionError(f"the trees' models differ on {workload.name}")
    line = {"workload": workload.name, "seed": seed, "rounds": rounds,
            "fit_ms": summary(times[base], times[work])}
    return line if rows is None else {**line, "rows": train.shape[0]}


def rss_child(workload, seed: int, rounds: int) -> None:
    """Fit the workload's training rows `rounds` times in this process,
    printing its peak resident memory in MB after each fit."""
    import harness

    train = harness.make_inputs(workload, seed).train
    for _ in range(rounds):
        harness.fit_workload(workload, train)    # the model is dropped at once
        gc.collect()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, flush=True)


def pair_rss(workload, seed: int, rounds: int, root: Path) -> dict:
    """Each tree's peak resident memory over `rounds` fits, one child process each."""
    rss = {}
    for tree, src in (("base", root / "src"), ("work", ROOT / "src")):
        proc = subprocess.run([sys.executable, __file__, "--root", str(root), "--child", str(src),
                               "--workload", workload.name, "--seed", str(seed),
                               "--rounds", str(rounds)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"the {tree} tree's child exited {proc.returncode}: {proc.stderr}")
        rss[tree] = [round(float(v), 1) for v in proc.stdout.split()]
    return {"workload": workload.name, "seed": seed, "rounds": rounds, "rss_mb": rss}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True,
                   help="checkout whose src/ is the base to compare with")
    p.add_argument("--workload", nargs="+", default=["few-groups", "many-groups"])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--rounds", type=int, default=100)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fit", action="store_true", help="time fit instead of predict")
    mode.add_argument("--rss", action="store_true",
                      help="each tree's peak resident memory over repeated fits, in a child process")
    p.add_argument("--rows", type=int, help="with --fit, fit only the first N training rows")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)    # --rss: the tree's src/
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    if args.rows is not None and (args.rows < 1 or not args.fit):
        p.error("--rows takes a count of at least 1, with --fit")
    sys.path[:0] = [str(args.child or ROOT / "src"), str(ROOT / "bench")]
    import harness
    unknown = [name for name in args.workload if name not in harness.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(harness.WORKLOADS)}")
    if args.child:
        rss_child(harness.WORKLOADS[args.workload[0]], args.seed, args.rounds)
        return 0
    if not args.rss:
        base = load_tree(args.root.resolve() / "src", "_base_sortclust")
        work = load_tree(ROOT / "src", "_work_sortclust")
    for name in args.workload:
        w = harness.WORKLOADS[name]
        line = (pair_rss(w, args.seed, args.rounds, args.root.resolve()) if args.rss
                else pair_fit(w, args.seed, args.rounds, base, work, args.rows) if args.fit
                else pair(w, args.seed, args.rounds, base, work))
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
