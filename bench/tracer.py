"""Spans and counters around the program's layers, for the traced run.

The tracer replaces selected functions of the `ircur` modules with
wrappers. A wrapper is installed under every name that refers to the
function in any loaded `ircur` module, because `cli` and the modules
themselves bind names at import: `cli.domain_geometry` and
`kernel_lesson.domain_geometry` are both the same function and both get
the wrapper. `rng` is not wrapped; its time falls inside the curriculum
and pairgen spans that call it.

A span's self time is its duration minus the time of the spans it
directly encloses. Every `*_s` metric is a sum of self times, so no
second of the chain is counted twice, and `cli.self_s` is the subcommand
time that no other span covers. The wrappers do nothing while the tracer
is inactive, so output checks between rounds leave no spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# module -> functions that get a span
SPANS = {
    "ingest": ("load_embeddings", "load_annotations", "load_loss_log"),
    "kernel_lesson": ("median_bandwidth", "domain_geometry", "projection_scores"),
    "alignment_lesson": ("load_paired_embeddings", "warmup", "per_sample_loss"),
    "curriculum": ("fuse_rankings", "build_schedule", "load_fused_ranking",
                   "write_fused_ranking", "load_curriculum_plan", "write_curriculum_plan"),
    "trainer": ("load_labeled_set", "train"),
    "pairgen": ("generate_caption", "generate_mcq", "generate_spatial", "resample_frames",
                "write_qa_records", "write_captions"),
    "bench_eval": ("map_at_50", "evaluate_records"),
    "cli": ("main",),
}
# called once per epoch or batch: counted, their time stays in the caller's span
COUNTED = {
    "alignment_lesson": ("contrastive_loss_and_grads",),
    "trainer": ("grad_weighted_ce",),
}
# spans whose peak traced allocation is recorded for their module
MEMORY = {"median_bandwidth", "domain_geometry", "projection_scores", "warmup",
          "per_sample_loss"}
# work counts read off arguments or results
ROWS = {
    "load_embeddings": lambda args, result: len(result.samples),
    "load_annotations": lambda args, result: len(result),
    "load_loss_log": lambda args, result: len(result),
    "write_qa_records": lambda args, result: len(args[0]),
    "evaluate_records": lambda args, result: len(args[1]),
}

# per-layer metric -> (kind, names): self-time sums, call counts, row counts, peaks
METRICS = {
    "kernel_lesson.median_bandwidth_s": ("self", ("median_bandwidth",)),
    "kernel_lesson.median_bandwidth_calls": ("calls", ("median_bandwidth",)),
    "kernel_lesson.domain_geometry_s": ("self", ("domain_geometry",)),
    "kernel_lesson.domain_geometry_calls": ("calls", ("domain_geometry",)),
    "kernel_lesson.projection_scores_s": ("self", ("projection_scores",)),
    "kernel_lesson.peak_alloc_mb": ("peak", ("kernel_lesson",)),
    "alignment_lesson.load_paired_embeddings_s": ("self", ("load_paired_embeddings",)),
    "alignment_lesson.warmup_s": ("self", ("warmup",)),
    "alignment_lesson.per_sample_loss_s": ("self", ("per_sample_loss",)),
    "alignment_lesson.contrastive_calls": ("calls", ("contrastive_loss_and_grads",)),
    "alignment_lesson.peak_alloc_mb": ("peak", ("alignment_lesson",)),
    "ingest.load_embeddings_s": ("self", ("load_embeddings",)),
    "ingest.load_annotations_s": ("self", ("load_annotations",)),
    "ingest.load_loss_log_s": ("self", ("load_loss_log",)),
    "ingest.rows": ("rows", ("load_embeddings", "load_annotations", "load_loss_log")),
    "curriculum.fuse_rankings_s": ("self", ("fuse_rankings",)),
    "curriculum.build_schedule_s": ("self", ("build_schedule",)),
    "curriculum.io_s": ("self", ("load_fused_ranking", "write_fused_ranking",
                                 "load_curriculum_plan", "write_curriculum_plan")),
    "trainer.load_labeled_set_s": ("self", ("load_labeled_set",)),
    "trainer.train_s": ("self", ("train",)),
    "trainer.batches": ("calls", ("grad_weighted_ce",)),
    "pairgen.generate_s": ("self", ("generate_caption", "generate_mcq", "generate_spatial",
                                    "resample_frames")),
    "pairgen.write_s": ("self", ("write_qa_records", "write_captions")),
    "pairgen.qa_records": ("rows", ("write_qa_records",)),
    "bench_eval.map_at_50_s": ("self", ("map_at_50",)),
    "bench_eval.evaluate_records_s": ("self", ("evaluate_records",)),
    "bench_eval.predictions": ("rows", ("evaluate_records",)),
    "cli.self_s": ("self", ("main",)),
}
UNITS = {"_s": "s", "_mb": "MB"}

# spans shorter than this are summed, not listed, in the trace file
LISTED_SPAN_S = 1e-3


def unit_of(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


class Tracer:
    def __init__(self):
        self.active = False
        self._origin = time.perf_counter()
        self._stack = []          # [start, seconds of enclosed spans] per open span
        self._reset()

    def _reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.peak = defaultdict(float)
        self.spans = []           # (name, start, seconds, depth) of the longer spans

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ircur" or name.startswith("ircur.")}
        for short, names in [*SPANS.items(), *COUNTED.items()]:
            module = modules[f"ircur.{short}"]
            for name in names:
                original = getattr(module, name)
                if name in SPANS.get(short, ()):
                    wrapper = self._span(short, name, original)
                else:
                    wrapper = self._counter(name, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, module, name, fn):
        count_rows = ROWS.get(name)
        tracks_memory = name in MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            start_memory = tracks_memory and not tracemalloc.is_tracing()
            if start_memory:
                tracemalloc.start()
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - frame[0]
                self._stack.pop()
                if start_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak[module] = max(self.peak[module], peak)
                if self._stack:
                    self._stack[-1][1] += seconds
                self.self_s[name] += seconds - frame[1]
                self.calls[name] += 1
                if seconds >= LISTED_SPAN_S:
                    self.spans.append((name, frame[0] - self._origin, seconds,
                                       len(self._stack)))
            if count_rows is not None:
                self.rows[name] += count_rows(args, result)
            return result
        return wrapper

    def round_metrics(self) -> dict:
        """Per-layer metrics of the round just traced; clears them for the next."""
        sources = {"self": self.self_s, "calls": self.calls, "rows": self.rows,
                   "peak": self.peak}
        values = {metric: sum(sources[kind][n] for n in names)
                  for metric, (kind, names) in METRICS.items()}
        record = {"metrics": values, "calls": dict(self.calls),
                  "self_s": dict(self.self_s),
                  "spans": [list(s) for s in self.spans]}
        self._reset()
        return record
