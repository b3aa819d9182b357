#!/usr/bin/env python3
"""Benchmark of coverml through its CLI; see bench/README.md.

    python3 bench/run.py --workload cv-linear --seed 1 --seconds 32 --trace 0

Writes the workload's inputs for the seed, starts the workload process
(workload.py) SETUP_SAMPLES times to time its set-up, and lets the last one
run the measured units. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0
#: Time kept after the last unit for the output checks and the exit.
CHECK_RESERVE_S = 25.0

#: Fixed hash seed, and one thread for every BLAS and OpenMP pool.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class ChildFailed(Exception):
    pass


def spawn(argv: list[str], timeout: float) -> tuple[float, str]:
    """Run one workload process; returns (seconds from start to its "ready"
    line, the rest of its output)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        raise ChildFailed(f"workload process exited {rc} (output: {(ready + rest)[-300:]!r})")
    return setup, rest


def main() -> int:
    ap = argparse.ArgumentParser(description="coverml CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import workload

    if args.workload not in workload.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "coverml" / "__init__.py").is_file():
        print(f"error: no coverml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
    started = time.perf_counter()
    try:
        workload.prepare(work, args.workload, args.seed)
        compileall.compile_dir(ROOT / "src", quiet=1)
        base = ["--workload", args.workload, "--work", str(work), "--seconds", str(args.seconds)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(base + ["--mode", "setup", "--deadline", "0"], CHILD_TIMEOUT_S)[0])
        mode = ["--mode", "trace", "--trace-dir", str(OUT / f"trace-{args.workload}-s{args.seed}")] \
            if args.trace else ["--mode", "run"]
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        setup, out = spawn(base + mode + ["--deadline", str(remaining - CHECK_RESERVE_S)], remaining)
        setups.append(setup)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    child = json.loads(out.strip().splitlines()[-1])
    if "check_failed" in child:
        print(f"check failed: {child['check_failed']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        metrics = child["per_layer"]
    else:
        print(f"units: {len(child['wall_s'])}, unit wall_s: {[round(w, 3) for w in child['wall_s']]}, "
              f"setup_s samples: {[round(s, 3) for s in setups]}")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(child["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(child["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": child["attempted"], "failed": child["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
