"""The traced run: per-layer times and counters, measured from outside the library.

The traced `fit` is the library's own `fit`, with each stage function it looks
up in its module wrapped to record a span, so the stages run in the order
and with the arguments the pipeline gives them. Spans (name, start, end,
parent, round) are kept in memory and returned for the results file.
"""

from __future__ import annotations

import functools
import gc
import time
from contextlib import contextmanager

import numpy as np

from sortclust import (explain_pair, explain_summary, from_json, postprocess,
                       predict, prep, to_json)
from sortclust.cli import _read_matrix, _write_labels

import harness
from harness import MINPTS, Recorder, Session, counters, fit_workload

# (module, attribute, span name) of every stage function `fit` calls.
STAGES = (
    (postprocess, "prepare", "prep.prepare"),
    (prep, "center", "prep.center"),
    (prep, "first_principal_component", "prep.pca"),
    (prep, "score_and_sort", "prep.sort"),
    (postprocess, "aggregate", "aggregation.aggregate"),
    (postprocess, "distance_merge", "merging.merge"),
    (postprocess, "density_merge", "merging.merge"),
    (postprocess, "connected_components", "merging.components"),
    (postprocess, "apply_minpts", "postprocess.minpts"),
)
FIT_SPAN = "postprocess.fit"


class Tracer:
    """Spans in memory; the last result of each wrapped stage for counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}
        self.round = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"round": self.round, "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.results[name] = out
            return out
        return traced

    @contextmanager
    def instrument(self):
        """Wrap every stage function for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in STAGES]
        try:
            for (mod, attr, fn), (_, _, name) in zip(saved, STAGES):
                setattr(mod, attr, self.wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def durations(self, round_: int) -> dict[str, float]:
        """Seconds per span name in one round (summed over repeated names)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["round"] == round_:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9
        return out

    def self_seconds(self, round_: int, name: str) -> float:
        """Duration of span `name` minus the durations of its direct children."""
        idx = next(i for i, s in enumerate(self.spans)
                   if s["round"] == round_ and s["name"] == name)
        own = self.spans[idx]
        children = sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["parent"] == idx)
        return (own["end_ns"] - own["start_ns"] - children) / 1e9


def merge_counters(model, merge_mode: str) -> dict[str, int]:
    """Starting-point pairs inside the merge's score-gap window, and of those
    the pairs close enough for a density test (density merging only)."""
    sc, pts, r = model.starting_scores, model.starting_points, model.r
    gap = 2.0 * r if merge_mode == "density" else model.config.scale * r
    ends = np.searchsorted(sc, sc + gap, side="right")
    candidates = int(np.sum(ends - np.arange(sc.size) - 1))
    density_tests = 0
    if merge_mode == "density":
        four_r_sq = 4.0 * (r * r)
        for i in range(sc.size):
            diff = pts[i + 1:ends[i]] - pts[i]
            density_tests += int(np.count_nonzero(np.einsum("ij,ij->i", diff, diff) < four_r_sq))
    return {"candidate_pairs": candidates, "density_tests": density_tests}


def traced_round(session: Session, tracer: Tracer, rec: Recorder) -> dict:
    """Untraced fit, then the traced fit and the per-layer calls after it.

    Returns the round's counters and the comparisons the checks need, not
    the models, so memory does not grow with rounds.
    """
    gc.collect()
    w, inp, work = session.w, session.inputs, session.work
    untraced = rec.call("untraced_fit_s", fit_workload, w, inp.train)
    with tracer.instrument(), tracer.span(FIT_SPAN):
        model = rec.call(None, fit_workload, w, inp.train)
    components = tracer.results["merging.components"]
    tracer.results.clear()
    if session.pair is None:
        session.pair = harness.far_pair(model, inp.train, inp.train_truth)
    with tracer.span("postprocess.predict"):
        rec.call(None, predict, model, inp.query)
    with tracer.span("postprocess.to_json"):
        text = rec.call(None, to_json, model)
    with tracer.span("postprocess.from_json"):
        reloaded = rec.call(None, from_json, text)
    with tracer.span("explain.summary"):
        rec.call(None, explain_summary, model)
    with tracer.span("explain.pair"):
        pair = rec.call(None, explain_pair, model, *session.pair)
    with tracer.span("cli.parse"):
        rec.call(None, _read_matrix, str(work / "train.csv"), False, False)
    with tracer.span("cli.write_labels"):
        rec.call(None, _write_labels, model.labels, str(work / "labels.txt"))
    with tracer.span("cli.startup"):
        rec.call(None, session.cli, "help")
    tracer.round += 1
    small = components.sizes < MINPTS
    return {
        "counters": counters(model),
        "traced_equals_untraced": counters(model) == counters(untraced)
        and np.array_equal(model.labels, untraced.labels),
        "reloaded_labels_equal": np.array_equal(reloaded.labels, model.labels),
        "model_bytes": len(text.encode("utf-8")),
        "path_len": len(pair.structured["path"] or []),
        "clusters": int(components.k),
        "groups_reassigned": int(np.count_nonzero(small[components.cluster_of_group])),
        **merge_counters(model, w.merge_mode),
    }


def run_traced(w, seed: int, seconds: float, work, import_s: float) -> tuple[dict, dict]:
    """The traced run. Returns (result line, extra detail for the results file)."""
    rec = Recorder()
    tracer = Tracer()
    session = Session(w, seed, work)
    harness.set_up(session, rec, import_s)
    outs = harness.measure(seconds, rec, lambda r: traced_round(session, tracer, r))
    detail = {"rounds": len(outs), "checks": rec.checks, "spans": tracer.spans}
    if not outs:
        return harness.result_line(rec, {}), detail
    last = outs[-1]
    rec.check("traced_equals_untraced", all(o["traced_equals_untraced"] for o in outs))
    rec.check("fit_counters_repeat", all(o["counters"] == last["counters"] for o in outs))
    rec.check("json_round_trip_labels", all(o["reloaded_labels_equal"] for o in outs))

    def med(name: str) -> float:
        return float(np.median([tracer.durations(i)[name] for i in range(len(outs))]))

    fit_s = med(FIT_SPAN)
    untraced_s = float(np.median(rec.samples["untraced_fit_s"]))
    aggregate_s, predict_s, parse_s = (med("aggregation.aggregate"), med("postprocess.predict"),
                                       med("cli.parse"))
    n = w.n_train
    c = last["counters"]
    groups, dist_count, edges = c["groups"], c["dist_count"], c["edges"]
    candidates = last["candidate_pairs"]
    csv_mb = (work / "train.csv").stat().st_size / 1e6
    m = {
        "prep.prepare_s": (med("prep.prepare"), "s"),
        "prep.center_s": (med("prep.center"), "s"),
        "prep.pca_s": (med("prep.pca"), "s"),
        "prep.sort_s": (med("prep.sort"), "s"),
        "aggregation.aggregate_s": (aggregate_s, "s"),
        "aggregation.dist_count": (dist_count, "count"),
        "aggregation.dist_per_point": (dist_count / n, "count"),
        "aggregation.groups": (groups, "count"),
        "aggregation.hit_ratio": ((n - groups) / dist_count if dist_count else 0.0, "ratio"),
        "aggregation.dist_evals_per_s": (dist_count / aggregate_s, "1/s"),
        "merging.merge_s": (med("merging.merge"), "s"),
        "merging.edges": (edges, "count"),
        "merging.candidate_pairs": (candidates, "count"),
        "merging.edge_yield": (edges / candidates if candidates else 0.0, "ratio"),
        "merging.density_tests": (last["density_tests"], "count"),
        "merging.components_s": (med("merging.components"), "s"),
        "merging.clusters": (last["clusters"], "count"),
        "postprocess.minpts_s": (med("postprocess.minpts"), "s"),
        "postprocess.groups_reassigned": (last["groups_reassigned"], "count"),
        "postprocess.fit_self_s": (float(np.median(
            [tracer.self_seconds(i, FIT_SPAN) for i in range(len(outs))])), "s"),
        "postprocess.predict_s": (predict_s, "s"),
        "postprocess.predict_queries_per_s": (w.n_query / predict_s, "1/s"),
        "postprocess.to_json_s": (med("postprocess.to_json"), "s"),
        "postprocess.from_json_s": (med("postprocess.from_json"), "s"),
        "postprocess.model_bytes": (last["model_bytes"], "bytes"),
        "explain.summary_s": (med("explain.summary"), "s"),
        "explain.pair_s": (med("explain.pair"), "s"),
        "explain.path_len": (last["path_len"], "count"),
        "cli.parse_s": (parse_s, "s"),
        "cli.parse_mb_per_s": (csv_mb / parse_s, "MB/s"),
        "cli.write_labels_s": (med("cli.write_labels"), "s"),
        "cli.startup_s": (med("cli.startup"), "s"),
        "trace.overhead_frac": (fit_s / untraced_s - 1.0, "ratio"),
    }
    detail.update(fit_s=fit_s, untraced_fit_s=untraced_s)
    return harness.result_line(rec, m), detail
