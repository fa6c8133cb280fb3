"""Span tracing of pairrank's layers, installed from outside the package.

A traced run replaces each traced public function at every place it is
looked up (module globals of every pairrank module, and the
``__post_init__`` of the two validated container classes) with a
wrapper that records a span: name, start, end and the enclosing span.
Spans stay in memory and are written out when the run ends; every
replaced name is restored afterwards.  End-to-end metrics never come
from a traced run.

Work counts (multiply-accumulates, bytes, rows, steps) are computed from
the argument shapes a wrapper sees, so they repeat exactly from run to
run; they are labelled "computed" in the report.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder with nesting by call stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def run(self, name: str, fn: Callable[[], object]) -> object:
        index = self._enter(name)
        try:
            return fn()
        finally:
            self._exit(index)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            # A layer calling itself (parse_libsvm re-enters on an open
            # handle) stays inside its outer span.
            if self._open and self.spans[self._open[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                count(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------------
# what is traced, and the work counted at each boundary


def _count_parse(counts, args, result) -> None:
    source = args["source"]
    if isinstance(source, (str, os.PathLike)):
        counts["io.parse_libsvm.bytes"] += os.path.getsize(source)
    counts["io.parse_libsvm.rows"] += result.n


def _count_batch(counts, args, result) -> None:
    data = args["data"]
    counts["moments.macs"] += data.n * data.dim**2


def _count_subsample(counts, args, result) -> None:
    s, dim = args["cfg"].s, args["data"].dim
    counts["moments.macs"] += s * dim**2
    # gathered positives, gathered negatives and their differences
    counts["moments.subsample_moments.bytes"] += 3 * s * dim * 8


def _count_solve(counts, args, result) -> None:
    diagnostics = result[1]
    counts["solver.iterations"] += diagnostics.iterations
    counts["solver.active"] += diagnostics.constrained_active
    counts["solver.kkt_residual_max"] = max(counts["solver.kkt_residual_max"],
                                            diagnostics.kkt_residual)


def _count_scored(counts, args, result) -> None:
    counts["evaluation.rows_scored"] += args["data"].n


def _count_sgd(counts, args, result) -> None:
    counts["baseline.steps"] += args["cfg"].pair_budget


def _count_sampled(counts, args, result) -> None:
    counts["synth.rows_sampled"] += args["n1"] + args["n0"]


# span name -> (defining module, attribute, work counter)
FUNCTIONS = {
    "io.parse_libsvm": ("pairrank.io", "parse_libsvm", _count_parse),
    "io.subsample_ratio_split": ("pairrank.io", "subsample_ratio_split", None),
    "io.write_results_csv": ("pairrank.io", "write_results_csv", None),
    "cli.save_weights": ("pairrank.cli", "save_weights", None),
    "cli.main": ("pairrank.cli", "main", None),
    "moments.batch_moments_fast": ("pairrank.moments", "batch_moments_fast", _count_batch),
    "moments.subsample_moments": ("pairrank.moments", "subsample_moments", _count_subsample),
    "moments.draw_pair_indices": ("pairrank.moments", "draw_pair_indices", None),
    "solver.solve_erm": ("pairrank.solver", "solve_erm", _count_solve),
    "evaluation.auc_fast": ("pairrank.evaluation", "auc_fast", _count_scored),
    "evaluation.phi_risk": ("pairrank.evaluation", "phi_risk", _count_scored),
    "evaluation.evaluate_ranker": ("pairrank.evaluation", "evaluate_ranker", None),
    "baseline.train_pairwise_sgd": ("pairrank.baseline", "train_pairwise_sgd", _count_sgd),
    "synth.sample_dataset": ("pairrank.synth", "sample_dataset", _count_sampled),
    "synth.optimal_phi_ranker": ("pairrank.synth", "optimal_phi_ranker", None),
}
# span name -> (defining module, class); the class's __post_init__ is traced
CONSTRUCTORS = {
    "core.PairMoments": ("pairrank.core", "PairMoments"),
    "core.Dataset": ("pairrank.core", "Dataset"),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced name wherever a pairrank module looks it up."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "pairrank" or name.startswith("pairrank.")]
    for span, (module_name, attr, count) in FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(span, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, key, wrapper)
    for span, (module_name, attr) in CONSTRUCTORS.items():
        cls = getattr(importlib.import_module(module_name), attr)
        tracer.patch(cls, "__post_init__", tracer.wrap(span, cls.__post_init__))


# ---------------------------------------------------------------------------
# per-layer metrics

SPANS = tuple(FUNCTIONS) + tuple(CONSTRUCTORS)
CALLS = ("io.parse_libsvm", "cli.main", "core.PairMoments", "moments.batch_moments_fast",
         "moments.subsample_moments", "solver.solve_erm")
TRAINER_PREFIXES = ("moments.", "solver.", "core.PairMoments")
COMPUTED = {"io.parse_libsvm.bytes": "bytes", "io.parse_libsvm.rows": "rows",
            "moments.macs": "MAC", "moments.subsample_moments.bytes": "bytes",
            "evaluation.rows_scored": "rows", "baseline.steps": "steps",
            "synth.rows_sampled": "rows"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op self times, calls and counts, plus layer shares of op time.

    Self time is a span's duration minus that of its direct children.
    Every time and count is divided by the number of traced ops.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(index: int, prefix: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0].startswith(prefix):
                return True
            parent = spans[parent][3]
        return False

    self_s = defaultdict(float)
    calls = defaultdict(int)
    parse_total = trainers_outside_eval = eval_and_baseline = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[index]
        self_s[name] += own
        calls[name] += 1
        if name == "io.parse_libsvm":
            parse_total += end - start
        if name.startswith(TRAINER_PREFIXES) and not has_ancestor(index, "evaluation."):
            trainers_outside_eval += own
        if (name.startswith("evaluation.") and not has_ancestor(index, "evaluation.")) or (
            name.startswith("baseline.")
        ):
            eval_and_baseline += end - start
    ops = calls[ROOT_SPAN]
    op_time = sum(end - start for name, start, end, _ in spans if name == ROOT_SPAN)
    counts = tracer.counts
    trainers = sum(t for name, t in self_s.items() if name.startswith(TRAINER_PREFIXES))
    builders = self_s["moments.batch_moments_fast"] + self_s["moments.subsample_moments"]
    solves = calls["solver.solve_erm"]
    sgd_time = self_s["baseline.train_pairwise_sgd"]

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = (self_s[name] / ops, "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count")
    for name, unit in COMPUTED.items():
        metrics[name] = (counts[name] / ops, unit)
    metrics["moments.gmacs_per_s"] = (counts["moments.macs"] / builders / 1e9 if builders else 0.0,
                                      "GMAC/s")
    metrics["baseline.steps_per_s"] = (counts["baseline.steps"] / sgd_time if sgd_time else 0.0,
                                       "1/s")
    metrics["solver.iterations"] = (counts["solver.iterations"] / ops, "count")
    metrics["solver.active_ratio"] = (counts["solver.active"] / solves if solves else 0.0, "ratio")
    metrics["solver.kkt_residual_max"] = (counts["solver.kkt_residual_max"], "norm")
    metrics["io.parse_libsvm.share"] = (parse_total / op_time, "ratio")
    metrics["layers.trainers.share"] = (trainers / op_time, "ratio")
    metrics["layers.trainers_outside_eval.share"] = (trainers_outside_eval / op_time, "ratio")
    metrics["layers.eval_and_baseline.share"] = (eval_and_baseline / op_time, "ratio")
    return metrics
