"""Layer spans recorded from outside the program.

The traced run replaces public functions and methods of coverml with timing
wrappers at the place their callers look them up (a module attribute or a
class attribute), so nothing under src/ changes. Spans nest; a span's self
time is its duration minus the time of the spans it encloses. Spans are
kept in memory and written at the end as a Chrome trace-event file, which
Perfetto and chrome://tracing open.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

#: Chrome trace events kept per phase; aggregate figures cover every span.
MAX_EVENTS = 300_000


class Phase:
    """Aggregates of one traced phase: per-span calls, total and self time,
    named counters, and the time covered by top-level spans."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total_ns, self_ns]
        self.counters = defaultdict(int)
        self.covered_ns = 0
        self.events = []
        self.events_dropped = 0

    def self_s(self, names) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans) / 1e9

    def total_s(self, names) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans) / 1e9

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "covered_s": self.covered_ns / 1e9,
            "events_dropped": self.events_dropped,
        }


class Tracer:
    def __init__(self):
        self.phase = Phase()
        self._stack: list[list] = []
        self._patched: list[tuple[type | object, str, object]] = []

    def new_phase(self) -> Phase:
        """Close the current phase and start collecting a fresh one."""
        done, self.phase = self.phase, Phase()
        return done

    def wrap(self, name: str, fn, count=None):
        """`fn` timed as span `name`; `count(phase, result, args)` may add
        counters after each call. A callable `name` derives the span name
        from the call's arguments."""
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                phase = self.phase
                agg = phase.spans[span]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    phase.covered_ns += dur
                if len(phase.events) < MAX_EVENTS:
                    phase.events.append((span, frame[0], dur, len(stack)))
                else:
                    phase.events_dropped += 1
            if count is not None:
                count(self.phase, result, args)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by its wrapper; class and static methods keep
        their descriptor kind."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def write_chrome_trace(path, phases: list[tuple[str, Phase]]) -> None:
    """One Chrome trace-event JSON; each phase becomes an enclosing span."""
    events = []
    pid = os.getpid()
    for label, phase in phases:
        if not phase.events:
            continue
        start = min(e[1] for e in phase.events)
        end = max(e[1] + e[2] for e in phase.events)
        events.append({"name": label, "cat": "phase", "ph": "X", "pid": pid, "tid": 1,
                       "ts": start / 1e3, "dur": (end - start) / 1e3})
        for span, t0, dur, depth in phase.events:
            events.append({"name": span, "cat": span.split(".", 1)[0], "ph": "X", "pid": pid,
                           "tid": 1, "ts": t0 / 1e3, "dur": dur / 1e3, "args": {"depth": depth}})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- what is wrapped -------------------------------------------------------------


def _add(counter: str, measure):
    def count(phase, result, args):
        phase.counters[counter] += measure(result, args)
    return count


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """The layer entry points of coverml wrapped for the duration of the block."""
    instrument(tracer)
    try:
        yield
    finally:
        tracer.unpatch()


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported coverml."""
    import coverml.cli as cli
    import coverml.kernels as kernels
    import coverml.models as models
    import coverml.selection as selection
    from coverml.models.base import TrainedClassifier
    from coverml.stages import FittedPipeline
    from coverml.table import DataTable

    p = tracer.patch
    p(cli, "cmd_ingest", "cli.ingest")
    p(cli, "cmd_train", "cli.train")
    p(cli, "cmd_evaluate", "cli.evaluate")

    p(cli, "read_csv", "table.read_csv", _add("table.csv_rows", lambda r, a: r.row_count))
    p(DataTable, "__init__", "table.build",
      _add("table.cells_built", lambda r, a: a[0].row_count * len(a[0].schema)))
    p(DataTable, "select_rows", "table.select_rows")
    p(DataTable, "feature_matrix", "table.feature_matrix")
    p(DataTable, "to_json_bytes", "table.tbl_io", _add("table.tbl_bytes", lambda r, a: len(r)))
    p(DataTable, "from_json_bytes", "table.tbl_io", _add("table.tbl_bytes", lambda r, a: len(a[1])))

    p(cli, "derive_label", "datasets.derive_label")
    p(cli, "train_test_split", "datasets.split")

    p(selection, "fit_pipeline", "stages.fit")
    p(FittedPipeline, "transform", "stages.transform", _rows_through)

    p(models, "train", lambda a: f"models.train.{a[0]}")
    p(TrainedClassifier, "predictions", "models.score", _add("models.rows_scored", lambda r, a: len(r)))
    for cls in _subclasses(TrainedClassifier):
        for attr in ("raw_scores", "probabilities"):
            if attr in cls.__dict__:
                p(cls, attr, "models.score")

    p(kernels, "best_split_gini", "kernels.split", _add("kernels.split_rows", lambda r, a: len(a[0])))
    p(kernels, "best_split_sse", "kernels.split", _add("kernels.split_rows", lambda r, a: len(a[0])))

    p(cli, "cross_validate", "selection.cv", _add(
        "selection.cell_folds", lambda r, a: sum(len(c.fold_metrics or ()) for c in r.cells)))
    for attr in ("evaluate_scores", "roc_curve", "pr_curve"):
        p(selection, attr, "metrics.eval")

    p(cli, "save_model", "persist.save", _add("persist.model_bytes", lambda r, a: os.path.getsize(a[1])))
    p(cli, "load_model", "persist.load", _add("persist.model_bytes", lambda r, a: os.path.getsize(a[0])))


def _rows_through(phase, result, args) -> None:
    phase.counters["stages.rows_in"] += args[1].row_count
    phase.counters["stages.rows_out"] += result.row_count


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Per-layer metric -> (unit, span names whose self time it sums, or a counter).
#: The cli spans enclose whole commands and are reported as total time.
LAYER_METRICS = {
    "table.read_csv_s": ("s", ["table.read_csv"]),
    "table.csv_rows": ("count", "table.csv_rows"),
    "table.build_s": ("s", ["table.build"]),
    "table.build_calls": ("count", "calls:table.build"),
    "table.cells_built": ("count", "table.cells_built"),
    "table.select_rows_s": ("s", ["table.select_rows"]),
    "table.select_rows_calls": ("count", "calls:table.select_rows"),
    "table.feature_matrix_s": ("s", ["table.feature_matrix"]),
    "table.tbl_io_s": ("s", ["table.tbl_io"]),
    "table.tbl_bytes": ("bytes", "table.tbl_bytes"),
    "datasets.derive_label_s": ("s", ["datasets.derive_label"]),
    "datasets.split_s": ("s", ["datasets.split"]),
    "stages.fit_s": ("s", ["stages.fit"]),
    "stages.fit_calls": ("count", "calls:stages.fit"),
    "stages.transform_s": ("s", ["stages.transform"]),
    "stages.transform_calls": ("count", "calls:stages.transform"),
    "stages.rows_in": ("count", "stages.rows_in"),
    "stages.rows_out": ("count", "stages.rows_out"),
    **{f"models.train_s.{f}": ("s", [f"models.train.{f}"]) for f in ("lr", "dt", "rf", "fm", "gbt", "svm")},
    "models.train_calls": ("count", "calls:models.train."),
    "models.score_s": ("s", ["models.score"]),
    "models.rows_scored": ("count", "models.rows_scored"),
    "kernels.split_s": ("s", ["kernels.split"]),
    "kernels.split_calls": ("count", "calls:kernels.split"),
    "kernels.split_rows": ("count", "kernels.split_rows"),
    "selection.cv_s": ("s", ["selection.cv"]),
    "selection.cell_folds": ("count", "selection.cell_folds"),
    "metrics.eval_s": ("s", ["metrics.eval"]),
    "persist.save_s": ("s", ["persist.save"]),
    "persist.load_s": ("s", ["persist.load"]),
    "persist.model_bytes": ("bytes", "persist.model_bytes"),
    "cli.ingest_s": ("s", "total:cli.ingest"),
    "cli.train_s": ("s", "total:cli.train"),
    "cli.evaluate_s": ("s", "total:cli.evaluate"),
}


def layer_values(phase: Phase) -> dict[str, float]:
    """Every per-layer metric of one phase, 0 where the layer did not run."""
    out = {}
    for metric, (_, source) in LAYER_METRICS.items():
        if isinstance(source, list):
            out[metric] = phase.self_s(source)
        elif source.startswith("calls:"):
            prefix = source[len("calls:"):]
            out[metric] = sum(c for n, (c, _, _) in phase.spans.items() if n.startswith(prefix))
        elif source.startswith("total:"):
            out[metric] = phase.total_s([source[len("total:"):]])
        else:
            out[metric] = phase.counters.get(source, 0)
    return out
