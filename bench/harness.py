"""Workloads, set-up, timed rounds and output checks of the sortclust benchmark.

Import this module only after the BLAS thread variables are pinned (see
run.py): numpy reads them once, when it is first imported.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sortclust
from sortclust import (ari, explain_pair, explain_point, explain_summary, fit,
                       from_json, make_blobs, predict, to_json)

SRC = Path(sortclust.__file__).resolve().parent.parent

K = 10                  # blobs per data set
STD = 1.0               # blob standard deviation
CENTRES_SEED = 5        # make_blobs seed of the fixed blob centres
MINPTS = 5
OUTLIER_MODE = "reassign"
ARI_FLOOR = 0.99        # fit and predict ARI must reach this
SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
SMALL_BATCH = 16        # rows per streaming predict call
SMALL_CALLS = 100       # streaming predict calls per round
BULK_S = 0.3            # bulk predict + explanation pairs repeat for this long a round
CLI_TIMEOUT_S = 150
CAL_REF_S = 0.004       # reference time of calibration_work (see README.md)
CAL_RUNS = 3            # calibration_work runs per calibration; the fastest counts
CLI_CODE = "from sortclust.cli import run; run()"


@dataclass(frozen=True)
class Workload:
    """One workload; README.md gives the reason for each."""

    name: str
    n_train: int
    n_query: int
    d: int
    radius: float
    merge_mode: str
    cli_train: int      # leading training rows the CLI commands fit
    cli_query: int      # leading query rows the CLI predict labels
    groups: tuple[int, int]   # regime: a fit of any seed has lo <= groups < hi


WORKLOADS = {w.name: w for w in (
    Workload("few-groups", 500_000, 10_000, 10, 0.3, "distance", 5_000, 2_000, (1, 2_000)),
    Workload("many-groups", 15_000, 1_000, 10, 0.09, "distance", 5_000, 1_000,
             (10_000, 15_001)),
    Workload("density", 100_000, 5_000, 10, 0.3, "density", 5_000, 2_000, (1, 2_000)),
)}


class OpFailed(Exception):
    """A timed operation failed; the round it belongs to is abandoned."""


_CAL = np.random.default_rng(12345).standard_normal((20_000, 10))


def calibration_work() -> int:
    """Fixed work that runs no sortclust code, in the mix the timed calls
    spend their time on: small numpy calls from a Python loop (the sweeps),
    plain Python on dicts and lists (explain, the CLI's start-up), a sort and
    a matrix product (prepare, predict)."""
    total = 0.0
    for row in _CAL[:800]:
        total += float(np.dot(row, row))
    counts: dict[int, int] = {}
    for i in range(8_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    total += float(np.sort(_CAL[:, 0])[0])
    total += float((_CAL[:1_000] @ _CAL[:400].T)[0, 0])
    return len(counts) + int(total > 0)


class Recorder:
    """Attempted and failed operations, timing samples, calibration times and
    check outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.speed: dict[str, list[float]] = {}     # per sample, see calibrate
        self.calibration: list[float] = []
        self.checks: list[dict] = []
        self._pending: list[tuple[str, int]] = []

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)
        self.speed.setdefault(metric, []).append(float("nan"))
        self._pending.append((metric, len(self.samples[metric]) - 1))

    def calibrate(self) -> None:
        """Time calibration_work CAL_RUNS times and keep the fastest. Every
        sample taken since the last call gets the speed factor CAL_REF_S over
        the mean of the two calibration times around it."""
        runs = []
        for _ in range(CAL_RUNS):
            start = time.perf_counter()
            calibration_work()
            runs.append(time.perf_counter() - start)
        took = min(runs)
        around = (took + (self.calibration[-1] if self.calibration else took)) / 2
        for metric, i in self._pending:
            self.speed[metric][i] = CAL_REF_S / around
        self._pending.clear()
        self.calibration.append(took)

    def scaled(self, metric: str) -> np.ndarray:
        """The samples of `metric` at the reference speed (README.md,
        "Calibration"); a sample with no calibration after it is left out."""
        scaled = np.asarray(self.samples[metric]) * np.asarray(self.speed[metric])
        return scaled[~np.isnan(scaled)]

    def call(self, metric, fn, *args, **kwargs):
        """Time one call of `fn` and record its duration under `metric`."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(metric) from exc
        if metric is not None:
            self.add(metric, time.perf_counter() - start)
        return out

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok)})
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


@dataclass
class Inputs:
    train: np.ndarray
    train_truth: np.ndarray
    query: np.ndarray
    query_truth: np.ndarray


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The workload's points for `seed`, split into training and query rows.

    make_blobs draws the sample from `seed`; every blob is then moved onto
    the workload's fixed centres, so the seed changes the points but not the
    cluster geometry. The geometry sets the cost: with seeded centres the
    many-groups fit varied twofold between seeds.
    """
    n = w.n_train + w.n_query
    points, truth = make_blobs(n, w.d, K, STD, seed)
    seeded_centres = make_blobs(K, w.d, K, 0.0, seed)[0]
    fixed_centres = make_blobs(K, w.d, K, 0.0, CENTRES_SEED)[0]
    points += (fixed_centres - seeded_centres)[truth]
    perm = np.random.default_rng([seed, 1]).permutation(n)
    train, query = perm[:w.n_train], perm[w.n_train:]
    return Inputs(points[train], truth[train], points[query], truth[query])


def far_pair(model, points: np.ndarray, truth: np.ndarray) -> tuple[int, int]:
    """Two far-apart rows of row 0's true cluster that the fit joined by a
    group path: the pair explanation then searches across the cluster, so
    its cost does not hinge on whether a seed puts two rows in one group.

    The first row is the lowest of the cluster's denser half. Candidates for
    the second are tried from that half first, farthest first, then from the
    rest; the first one in another group with a path wins, else the first
    one in another group.
    """
    same = np.nonzero(truth == truth[0])[0]
    offset = points[same] - points[same].mean(axis=0)
    radius_sq = np.einsum("ij,ij->i", offset, offset)
    core = radius_sq <= np.median(radius_sq)
    first = int(same[core][0])
    diff = points[same] - points[first]
    group = explain_point(model, first).structured["group"]
    order = same[np.lexsort((-np.einsum("ij,ij->i", diff, diff), ~core))]
    others = [int(row) for row in order
              if explain_point(model, int(row)).structured["group"] != group]
    for row in others:
        if explain_pair(model, first, row).structured["path"]:
            return first, row
    return first, others[0]


def write_csv(path: Path, rows: np.ndarray) -> None:
    # %.17g round-trips every float64, so the CLI parses the exact matrix.
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")


def fit_workload(w: Workload, data: np.ndarray):
    return fit(data, radius=w.radius, minpts=MINPTS, merge_mode=w.merge_mode,
               outlier_mode=OUTLIER_MODE)


def counters(model) -> dict:
    """The fit's exact work and result counts."""
    return {"dist_count": model.dist_count, "groups": model.num_groups,
            "edges": len(model.merge_edges), "clusters": model.num_clusters}


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run the sortclust CLI as a child process; a non-zero exit raises."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CLI_CODE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sortclust {args[0]} exited {proc.returncode}: {proc.stderr}")
    return proc


class Session:
    """One workload and seed: its inputs, the CLI's files, and the last round's outputs."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.pair: tuple[int, int] | None = None
        self.last: dict = {}

    def set_up(self) -> float:
        """Generate the inputs, write the CLI's CSV files and warm up; returns seconds."""
        start = time.perf_counter()
        w = self.w
        self.inputs = make_inputs(w, self.seed)
        self.cli_train = self.inputs.train[:w.cli_train]
        self.cli_query = self.inputs.query[:w.cli_query]
        write_csv(self.work / "train.csv", self.cli_train)
        write_csv(self.work / "query.csv", self.cli_query)
        # The library fit of the CLI rows warms up, and the checks compare the
        # CLI's outputs with it.
        self.cli_model = fit_workload(w, self.cli_train)
        self.cli_pair = far_pair(self.cli_model, self.cli_train,
                                 self.inputs.train_truth[:w.cli_train])
        predict(self.cli_model, self.cli_query[:SMALL_BATCH])
        explain_summary(self.cli_model)
        explain_pair(self.cli_model, *self.cli_pair)
        self.cli("help")
        return time.perf_counter() - start

    def cli(self, command: str) -> subprocess.CompletedProcess:
        """Run one CLI command of the benchmark on the CLI's files."""
        w, work = self.w, self.work
        args = {
            "fit": ["fit", "--input", "train.csv", "--output", "cli_fit.txt",
                    "--radius", str(w.radius), "--minpts", str(MINPTS), "--merge",
                    w.merge_mode, "--outliers", OUTLIER_MODE, "--model", "model.json",
                    "--stats"],
            "predict": ["predict", "--input", "query.csv", "--model", "model.json",
                        "--output", "cli_predict.txt"],
            "explain": ["explain", "--model", "model.json", "--index",
                        str(self.cli_pair[0]), "--index2", str(self.cli_pair[1])],
            "help": ["--help"],
        }[command]
        return run_cli(args, work)

    def round(self, rec: Recorder) -> bytes:
        """One closed-loop pass over every user-facing operation.

        The fit, then the three CLI commands, then SMALL_CALLS streaming
        predicts, then pairs of one bulk predict and one explanation until
        BULK_S has passed (at least one pair; several where they are cheap,
        so their means rest on more samples). A calibration follows each call
        but the streaming predicts, and every tenth of those. Each round runs
        the same sequence, so every call meets the same memory and cache
        state in every round. Returns a digest of the fit labels; only the
        last round's outputs are kept, so memory does not grow with rounds.
        """
        gc.collect()
        inp = self.inputs
        model = rec.call("fit_s", fit_workload, self.w, inp.train)
        rec.calibrate()
        if self.pair is None:
            self.pair = far_pair(model, inp.train, inp.train_truth)
        for command in ("fit", "predict", "explain"):
            done = rec.call(f"cli_{command}_s", self.cli, command)
            rec.calibrate()
        for i in range(SMALL_CALLS):
            lo = (i * SMALL_BATCH) % (inp.query.shape[0] - SMALL_BATCH)
            rec.call("predict_small_ms", predict, model, inp.query[lo:lo + SMALL_BATCH])
            if i % 10 == 9:
                rec.calibrate()
        start = time.perf_counter()
        while True:
            rec.call("predict_s", predict, model, inp.query)
            rec.calibrate()
            rec.call("explain_s", self.explain, model)
            rec.calibrate()
            if time.perf_counter() - start >= BULK_S:
                break
        self.last = {"model": model, "cli_explain": done.stdout}
        return hashlib.sha256(model.labels.tobytes()).digest()

    def explain(self, model):
        explain_summary(model)
        return explain_pair(model, *self.pair)

    def check_outputs(self, rec: Recorder) -> np.ndarray:
        """Output checks of the end-to-end run, each one counted operation.
        Returns the query labels of the last round's model."""
        w, inp, model = self.w, self.inputs, self.last["model"]
        labels = predict(model, inp.query)
        rec.check("ari_floor", ari(inp.train_truth, model.labels) >= ARI_FLOOR)
        rec.check("predict_ari_floor", ari(inp.query_truth, labels) >= ARI_FLOOR)
        reloaded = from_json(to_json(model))
        rec.check("json_round_trip_predict",
                  np.array_equal(predict(reloaded, inp.query), labels))
        cli_model = self.cli_model
        rec.check("cli_fit_labels_equal_library",
                  np.array_equal(read_labels(self.work / "cli_fit.txt"), cli_model.labels))
        rec.check("cli_predict_labels_equal_library",
                  np.array_equal(read_labels(self.work / "cli_predict.txt"),
                                 predict(cli_model, self.cli_query)))
        rec.check("cli_explain_equal_library",
                  self.last["cli_explain"].rstrip("\n")
                  == explain_pair(cli_model, *self.cli_pair).text)
        return labels


def read_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(session: Session, rec: Recorder, import_s: float) -> None:
    """Set up SETUP_REPEATS times; setup_s is the import time plus their median."""
    rec.calibrate()
    times = [session.set_up() for _ in range(SETUP_REPEATS)]
    rec.add("setup_s", import_s + float(np.median(times)))
    rec.calibrate()


def measure(seconds: float, rec: Recorder, one_round) -> list:
    """Run `one_round` in a closed loop for `seconds`.

    The first round always runs; a later one starts only if a round as long
    as the longest so far still ends within `seconds`. Stops at the first
    failed operation. Returns the rounds' results.
    """
    outs = []
    longest = 0.0
    start = time.perf_counter()
    while not outs or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        try:
            outs.append(one_round(rec))
        except OpFailed:
            break
        longest = max(longest, time.perf_counter() - round_start)
    return outs


def run_end_to_end(w: Workload, seed: int, seconds: float, work: Path,
                   import_s: float) -> tuple[dict, dict]:
    """The untraced run. Returns (result line, extra detail for the results file)."""
    rec = Recorder()
    session = Session(w, seed, work)
    set_up(session, rec, import_s)
    outs = measure(seconds, rec, session.round)
    if outs:
        rec.check("fit_labels_repeat", len(set(outs)) == 1)
        labels = session.check_outputs(rec)
    metrics = {}
    s = rec.samples
    scaled = {name: v for name, v in ((n, rec.scaled(n)) for n in s) if v.size}
    # Means, not medians: the machine flips between a fast and a slow mode,
    # and a median jumps with the share of samples in each (README.md).
    for name in ("fit_s", "predict_s", "explain_s", "cli_fit_s", "cli_predict_s",
                 "cli_explain_s"):
        if name in scaled:
            metrics[name] = (float(np.mean(scaled[name])), "s")
    # The set-up is one sample spanning seconds: it is scaled by the whole
    # run's mean calibration time, not by the two calibrations around it.
    if "setup_s" in s and rec.calibration:
        metrics["setup_s"] = (s["setup_s"][0] * CAL_REF_S / float(np.mean(rec.calibration)), "s")
    if "predict_small_ms" in scaled:
        small_ms = scaled["predict_small_ms"] * 1e3
        metrics["predict_small_ms_p50"] = (float(np.percentile(small_ms, 50)), "ms")
        metrics["predict_small_ms_p90"] = (float(np.percentile(small_ms, 90)), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if outs:
        inp = session.inputs
        metrics["ari"] = (ari(inp.train_truth, session.last["model"].labels), "ratio")
        metrics["predict_ari"] = (ari(inp.query_truth, labels), "ratio")
    metrics["ok_frac"] = ((rec.attempted - rec.failed) / max(rec.attempted, 1), "ratio")
    detail = {"rounds": len(outs), "predict_small_calls": len(s.get("predict_small_ms", [])),
              "speed": rec.speed, "calibration_s": rec.calibration,
              "samples": s, "checks": rec.checks}
    return result_line(rec, metrics), detail


def result_line(rec: Recorder, metrics: dict) -> dict:
    return {"correct": rec.failed == 0 and rec.attempted > 0,
            "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return "unknown"


def machine(threads: dict) -> dict:
    """Description of the machine and the thread setting this run pinned."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": threads,
    }
