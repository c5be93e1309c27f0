"""Benchmark of `wigcheck analyze` and `wigcheck hardy` on three workloads.

    python3 benchmark/run.py --workload battery-256 --seed 0 --seconds 20 --trace 0

Starts three fresh worker interpreters in turn.  Each sets the workload up
and records its set-up time to the first verdict; the last one then runs
whole operations in a closed loop for --seconds.  The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The line before it is the run record (versions,
BLAS threads, nproc, seed).  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("battery-256", "no-768", "manifest-512")
SETUPS = 3          # fresh interpreters per run; setup_s is their median
WORKER_TIMEOUT = 170

# One BLAS/OpenMP thread: with two, throughput on a 2-core machine swung by
# half between runs and CPU time per analysis was twice the wall time.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(args, seconds, deadline):
    """Run one worker interpreter to its end; returns its parsed last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out", str(OUT / args.workload)]
    env = {**os.environ, **THREAD_ENV}
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + WORKER_TIMEOUT
    setups = [start_worker(args, 0, deadline) for _ in range(SETUPS - 1)]
    run = start_worker(args, args.seconds, deadline)
    setups.append(run)

    problems = [p for s in setups for p in s["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    def median(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in run["layers"].items()}
        metrics["cli.import_s"] = {"value": median("import_s"), "unit": "s"}
        metrics["states.save_manifest_s"] = {"value": median("save_manifest_s"), "unit": "s"}
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(run["op_times"]), "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    parts = ("setup_s", "import_s", "inputs_s", "first_verdict_s")
    record = {**run["record"], "setups": [{k: s[k] for k in parts} for s in setups],
              "op_times_s": run["op_times"], "traced_op_times_s": run["traced_op_times"]}
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


if __name__ == "__main__":
    main()
