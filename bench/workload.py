"""The workloads, and the process that runs one of them through the CLI.

`run.py` writes a workload's inputs with `prepare` and then starts this file
as a script. The process imports coverml from the checkout's src/, runs the
set-up commands, prints "ready", and (unless --mode setup) runs one warm-up
unit and then measured units of the same CLI commands until --seconds have
passed. The last line it prints is a JSON object with its measurements and
check results. With --mode trace it repeats the set-up with the layers
wrapped (tracer.py) and then alternates untraced and traced units.

The benchmark's own modules (gen, checks, tracer) are imported only after
the set-up, so that set-up time covers coverml alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Numeric columns of the cv-trees inputs, imputed by the first pipeline stage.
TREE_NUMERIC = ("Deductible", "OutOfPocketMax", "Copay", "Coinsurance")
TREE_CATEGORICAL = ("PlanType", "MetalLevel", "StateCode")

#: rows: training CSV rows; grids: grid JSON per family, trained in this order;
#: folds: CV folds of `train` (default 3).
WORKLOADS = {
    "cv-linear": {
        "rows": 1200,
        "grids": {
            "lr": {"axes": {"reg_param": [0.01, 0.1, 0.5]}},
            "svm": {"axes": {"reg_param": [0.01, 0.1, 0.5]}},
        },
    },
    "cv-trees": {
        "rows": 1000,
        "grids": {
            "dt": {"axes": {"max_depth": [5, 10]}},
            "rf": {"axes": {"num_trees": [10, 20]}, "base": {"max_depth": 7}},
            "gbt": {"axes": {"num_iterations": [6, 12]}, "base": {"max_depth": 5}},
        },
        "pipeline": {
            "stages": [{"type": "impute_mean", "columns": list(TREE_NUMERIC)}]
            + [{"type": "string_index", "input": c, "output": c + "_idx"} for c in TREE_CATEGORICAL]
            + [{"type": "assemble", "inputs": [c + "_idx" for c in TREE_CATEGORICAL] + list(TREE_NUMERIC),
                "output": "features"}],
            "features_column": "features",
        },
    },
    "score-batch": {
        "rows": 2000,
        "batch_rows": 20000,
        "folds": 2,
        "grids": {"rf": {"axes": {}, "base": {"num_trees": 20, "max_depth": 6}}},
    },
}

#: The CLI seed is part of the workload; the run's --seed only picks inputs.
PROGRAM_SEED = "1"
MIN_UNITS = 3


def prepare(work: Path, workload: str, seed: int) -> None:
    """Write the workload's inputs for `seed` into `work`."""
    import numpy as np

    import gen

    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    (work / "schema.json").write_text(gen.schema_json(workload), encoding="utf-8")
    labels, cells = gen.sample(workload, spec["rows"], np.random.default_rng([seed, 1]))
    gen.write_csv(work / "train.csv", workload, labels, cells)
    for family, grid in spec["grids"].items():
        (work / f"grid_{family}.json").write_text(json.dumps(grid), encoding="utf-8")
    if "pipeline" in spec:
        (work / "pipeline.json").write_text(json.dumps(spec["pipeline"]), encoding="utf-8")
    if "batch_rows" in spec:
        labels, cells = gen.planted_batch(spec["batch_rows"], seed)
        gen.write_csv(work / "batch.csv", workload, labels, cells)


class Runner:
    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.spec = WORKLOADS[workload]
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import coverml
        import coverml.cli

        if Path(coverml.__file__).resolve().parent != (src / "coverml").resolve():
            raise RuntimeError(f"imported coverml from {coverml.__file__}, not from {src}")
        self.cli = coverml.cli

    def call(self, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"coverml {argv[0]} exited {rc}: {out.getvalue()[-500:]}")

    def _train(self, family: str, out: str, test_out: str) -> None:
        w = self.work
        extra = ["--pipeline", w / "pipeline.json"] if "pipeline" in self.spec else []
        self.call("train", "--data", w / "data.tbl", "--model", family, "--grid", w / f"grid_{family}.json",
                  "--folds", self.spec.get("folds", 3), "--seed", PROGRAM_SEED, "--test-out", w / test_out,
                  "--out", w / out, *extra)

    def setup(self) -> None:
        w = self.work
        self.call("ingest", "--input", w / "train.csv", "--schema", w / "schema.json", "--derive-label",
                  "--out", w / "data.tbl")
        if self.workload == "score-batch":
            self._train("rf", "model_rf.bin", "unused_test.tbl")

    def evaluations(self) -> list[tuple[str, str, str]]:
        """(model, evaluated table, output stem) of each evaluate in a unit."""
        if self.workload == "score-batch":
            return [("model_rf.bin", "batch.tbl", "rf")]
        return [(f"model_{f}.bin", f"test_{f}.tbl", f) for f in self.spec["grids"]]

    def unit(self) -> tuple[float, float]:
        """One unit of work; returns its (wall, cpu) seconds."""
        w = self.work
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if self.workload == "score-batch":
            self.call("ingest", "--input", w / "batch.csv", "--schema", w / "schema.json", "--derive-label",
                      "--out", w / "batch.tbl")
        for model, data, stem in self.evaluations():
            if self.workload != "score-batch":
                self._train(stem, model, data)
            self.call("evaluate", "--model", w / model, "--data", w / data, "--out", w / f"report_{stem}.json",
                      "--predictions", w / f"preds_{stem}.csv")
        return time.perf_counter() - wall0, time.process_time() - cpu0

    def digests(self) -> dict[str, str]:
        names = [f for m, d, s in self.evaluations() for f in (m, d, f"report_{s}.json", f"preds_{s}.csv")]
        return {n: hashlib.sha256((self.work / n).read_bytes()).hexdigest() for n in names}

    def check_outputs(self) -> tuple[int, int]:
        """Run every output check on the files of the last unit; returns
        (rows submitted, rows dropped) per unit."""
        import checks
        import gen
        import numpy as np

        submitted = dropped = 0
        for model, data, stem in self.evaluations():
            report = json.loads((self.work / f"report_{stem}.json").read_text(encoding="utf-8"))
            pred, label = checks.read_predictions(self.work / f"preds_{stem}.csv")
            checks.check_confusion(report, pred, label)
            checks.check_roc(report)
            if self.workload == "score-batch":
                labels, cells = gen.read_csv(self.work / "batch.csv", self.workload)
                planted = np.isin(cells["StateCode"], gen.UNSEEN_STATES)
            else:
                table = json.loads((self.work / data).read_text(encoding="utf-8"))
                cells = table["columns"]
                labels = np.asarray(cells["label"], dtype=np.int64)
                if labels.tolist() != [int(v == "Covered") for v in cells[gen.LABEL_SOURCE]]:
                    raise checks.CheckError(f"{data}: label column does not match {gen.LABEL_SOURCE}")
                planted = np.zeros(labels.size, dtype=bool)
            kept = {k: [v for v, p in zip(vals, planted) if not p] for k, vals in cells.items()}
            bayes = gen.rank_auc(gen.bayes_log_odds(self.workload, kept), labels[~planted])
            checks.check_auc_bounds(report, bayes)
            lost = checks.check_rows(report, pred.size, labels.size, int(planted.sum()))
            if lost == planted.sum():
                checks.check_dropped_labels(label, labels[~planted])
            submitted += labels.size
            dropped += lost
        return submitted, dropped


def measure(runner: Runner, seconds: float, deadline: float, unit=None):
    """Repeat `unit` (one runner unit by default) until `seconds` have passed,
    at least MIN_UNITS times and never past `deadline`; returns the wall and
    cpu times it reports and the output digests after each call."""
    unit = unit or runner.unit
    walls, cpus, digests, laps = [], [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        wall, cpu = unit()
        walls.append(wall)
        cpus.append(cpu)
        digests.append(runner.digests())
        now = time.perf_counter()
        laps.append(now - lap)
        typical = statistics.median(laps)
        if now + typical > deadline:
            break
        if len(walls) >= MIN_UNITS and now - start + typical > seconds:
            break
    return walls, cpus, digests


def run(runner: Runner, seconds: float, deadline: float) -> dict:
    import checks

    runner.unit()  # warm-up
    submitted, dropped = runner.check_outputs()
    first = runner.digests()
    walls, cpus, digests = measure(runner, seconds, deadline)
    checks.check_identical([first] + digests)
    return {
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": submitted * len(walls),
        "failed": dropped * len(walls),
    }


def trace(runner: Runner, seconds: float, deadline: float, out_dir: Path) -> dict:
    """Traced set-up, then pairs of an untraced and a traced unit, so that
    both sides of trace.overhead_s are measured over the same stretch."""
    import checks
    import tracer as tr

    runner.unit()  # warm-up
    first = runner.digests()
    tracer = tr.Tracer()
    with tr.instrumented(tracer):
        tracer.new_phase()
        runner.setup()
        setup_phase = tracer.new_phase()
    plain, units = [], []

    def pair() -> tuple[float, float]:
        plain.append(runner.unit()[0])
        with tr.instrumented(tracer):
            wall, cpu = runner.unit()
            units.append(tracer.new_phase())
        return wall, cpu

    traced, _, digests = measure(runner, seconds, deadline, pair)
    checks.check_identical([first] + digests)
    submitted, dropped = runner.check_outputs()

    setup_values = tr.layer_values(setup_phase)
    unit_values = [tr.layer_values(p) for p in units]
    layers = {m: setup_values[m] + statistics.median(u[m] for u in unit_values) for m in setup_values}
    layers["trace.uncovered_s"] = statistics.median(w - p.covered_ns / 1e9 for w, p in zip(traced, units))
    layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, plain))

    out_dir.mkdir(parents=True, exist_ok=True)
    tr.write_chrome_trace(out_dir / "trace.json", [("setup", setup_phase), ("unit", units[0])])
    summary = {
        "workload": runner.workload,
        "untraced_unit_wall_s": plain,
        "traced_unit_wall_s": traced,
        "per_layer": layers,
        "setup": setup_phase.summary(),
        "unit": units[0].summary(),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    units_of = {m: u for m, (u, _) in tr.LAYER_METRICS.items()}
    return {
        "per_layer": {m: {"value": v, "unit": units_of.get(m, "s")} for m, v in layers.items()},
        "attempted": submitted * len(traced),
        "failed": dropped * len(traced),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True, help="start no unit after this many seconds")
    ap.add_argument("--trace-dir", type=Path)
    args = ap.parse_args()
    deadline = time.perf_counter() + args.deadline

    runner = Runner(args.workload, args.work)
    runner.setup()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    import checks

    try:
        if args.mode == "run":
            result = run(runner, args.seconds, deadline)
        else:
            result = trace(runner, args.seconds, deadline, args.trace_dir)
    except checks.CheckError as exc:
        result = {"check_failed": str(exc)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
