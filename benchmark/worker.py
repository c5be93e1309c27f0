"""One benchmark process: set up a workload, then run its operations.

Started by run.py, which pins BLAS to one thread in the environment and
passes the CLOCK_MONOTONIC time at which it started this interpreter, so
that set-up time counts from the interpreter's start.  Prints one JSON
object as its last line of standard output.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ARGS = argparse.ArgumentParser()
ARGS.add_argument("--workload", required=True)
ARGS.add_argument("--seed", type=int, required=True)
ARGS.add_argument("--t0", type=float, required=True)
ARGS.add_argument("--seconds", type=float, default=0.0, help="0: set up and stop")
ARGS.add_argument("--trace", type=int, default=0)
ARGS.add_argument("--out", required=True)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import_start = time.monotonic()

import wigcheck.cli as cli
from wigcheck import states

import_s = time.monotonic() - import_start
if SRC not in Path(cli.__file__).resolve().parents:
    raise SystemExit(f"wigcheck was imported from {cli.__file__}, not from {SRC}")

import numpy as np
import scipy

import check
import workloads
from spans import SPAN_NAMES, Recorder


def write_manifests(directory):
    """Write the manifest-512 grids: the first three with CSV values, the rest inline."""
    manifests = workloads.manifest_inputs(directory)
    axis = states.AxisGrid.from_dict(workloads.MANIFEST_AXIS)
    for m in manifests:
        grid = states.WignerGrid(axis, axis, m.values, workloads.HBAR)
        states.save_wigner_manifest(grid, m.path,
                                    csv_path=m.path.with_suffix(".csv") if m.csv else None)
    return manifests


def workload_inputs(name, directory):
    """(cases of one operation, manifests written) for a workload."""
    if name == "battery-256":
        return workloads.battery_cases(), []
    if name == "no-768":
        return workloads.no_cases(), []
    if name == "manifest-512":
        manifests = write_manifests(directory)
        return [m.case for m in manifests], manifests
    raise SystemExit(f"unknown workload {name!r}")


class Runner:
    """Runs commands through wigcheck.cli.main and keeps their reports."""

    def __init__(self, cases, seed, out_dir, recorder):
        self.cases = cases
        self.seed = seed
        self.out_dir = out_dir
        self.recorder = recorder
        self.outputs = []  # (case, report text, exit code)

    def command(self, index, traced):
        case = self.cases[index]
        path = self.out_dir / f"{index}.json"
        argv = case.argv + ["--seed", str(self.seed), "-o", str(path)]
        if traced:
            # the time no wrapped function covers is this span's self time
            with self.recorder.span("cli.analyze_self_s"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        return case, path, code

    def operation(self, traced):
        """Run every case once; returns (seconds, root span or None, outputs) or raises."""
        with self.recorder.patched() if traced else nullcontext():
            with self.recorder.span("op") if traced else nullcontext() as root:
                start = time.perf_counter()
                done = [self.command(i, traced) for i in range(len(self.cases))]
                seconds = time.perf_counter() - start
        outputs = [(case, path.read_text(), code) for case, path, code in done]
        if any(code not in (0, 2) for _, _, code in outputs):
            raise RuntimeError(f"exit codes {[code for _, _, code in outputs]}")
        self.outputs += outputs
        return seconds, root, outputs


def report_counts(outputs):
    """Work counts read from the reports of one operation."""
    counts = dict.fromkeys(["klm.point_sets", "klm.fsw_points", "domination.evaluations",
                            "domination.constraints", "states.kernel_n", "cli.report_bytes"], 0)
    for _, text, _ in outputs:
        counts["cli.report_bytes"] += len(text.encode())
        rep = json.loads(text)
        for order in (rep.get("klm") or {}).get("orders", []):
            counts["klm.point_sets"] += order["trials"]
            counts["klm.fsw_points"] += order["trials"] * order["order"] ** 2
        if rep.get("domination"):
            counts["domination.evaluations"] += rep["domination"]["n_evaluations"]
            counts["domination.constraints"] += rep["domination"]["n_constraints"]
        if rep.get("oracle"):
            counts["states.kernel_n"] += rep["grid"]["x_axis"]["count"]
    return counts


def check_outputs(outputs):
    """Check each distinct report once; a case whose reports differ between runs fails."""
    problems, seen = [], {}
    for case, text, code in outputs:
        seen.setdefault(case.name, {}).setdefault((text, code), case)
    for name, variants in seen.items():
        if len(variants) > 1:
            problems.append(f"{name}: {len(variants)} different reports for one input and seed")
        for (text, code), case in variants.items():
            problems += check.check_report(case, text, code)
    return problems


def blas_runtime():
    """Threads and build of each OpenBLAS library loaded in this process (Linux only)."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                entry = {"threads": threads(), "config": config().decode()}
                break
        found[Path(path).name] = entry
    return found


def run_record(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": blas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


def main():
    args = ARGS.parse_args()
    out = Path(args.out)
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    recorder = Recorder()

    with recorder.patched() if args.trace else nullcontext(), recorder.span("setup") as setup_span:
        inputs_start = time.monotonic()
        cases, manifests = workload_inputs(args.workload, out / "inputs")
        inputs_s = time.monotonic() - inputs_start
        runner = Runner(cases, args.seed, out / "reports", recorder)
        first = runner.command(0, traced=bool(args.trace))
        setup_s = time.monotonic() - args.t0
    case, path, code = first
    problems = check.check_report(case, path.read_text(), code)
    result = {"setup_s": setup_s, "import_s": import_s, "inputs_s": inputs_s,
              "first_verdict_s": setup_s - (inputs_start + inputs_s - args.t0),
              "save_manifest_s": recorder.self_times(setup_span).get("states.save_manifest_s", 0.0)}
    if args.seconds <= 0:
        print(json.dumps({**result, "problems": problems}))
        return

    for m in manifests:
        problems += check.check_manifest(m)
    times = {False: [], True: []}
    layer_samples, counts = [], None
    attempted = failed = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    while time.perf_counter() - start < args.seconds:
        # a traced run alternates untraced and traced operations, so that the
        # two medians differ by the tracing overhead and not by drift
        for traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            try:
                seconds, root, outputs = runner.operation(traced)
            except Exception:  # a failing command must not end the run
                failed += 1
                traceback.print_exc()
                continue
            times[traced].append(seconds)
            counts = counts or report_counts(outputs)
            if traced:
                layer_samples.append(recorder.self_times(root))
    elapsed, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += check_outputs(runner.outputs)
    self_test = check.self_test(runner.outputs[:len(cases)]) if runner.outputs else {}
    problems += [f"checker self-test accepted a report with a {m}"
                 for m, objection in self_test.items() if objection is None]
    result.update({
        "attempted": attempted, "failed": failed, "problems": problems,
        "op_times": times[False], "traced_op_times": times[True],
        "ops_per_s": len(times[False]) / elapsed if not args.trace else None,
        "peak_rss_mb": peak_rss_mb,
        "record": {**run_record(args), "timed_s": elapsed, "timed_cpu_s": cpu_s,
                   "checker_self_test": self_test},
    })
    if args.trace:
        result["layers"] = layer_metrics(layer_samples, counts, times)
        trace_path = out.parent / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                          "spans": recorder.spans}))
    print(json.dumps(result))


def layer_metrics(samples, counts, times):
    """Per-layer medians over the traced operations, plus the counts and the overhead."""
    def median_of(name):
        return statistics.median(s.get(name, 0.0) for s in samples)
    layers = {name: median_of(name) for name in SPAN_NAMES + ["cli.analyze_self_s"]}
    layers.update(counts or {})
    klm_s = [s.get("klm.check_s", 0.0) + s.get("klm.matrix_s", 0.0) for s in samples]
    layers["klm.point_sets_per_s"] = ((counts or {}).get("klm.point_sets", 0)
                                      / statistics.median(klm_s) if any(klm_s) else 0.0)
    traced_p50 = statistics.median(times[True])
    layers["trace.op_p50_s"] = traced_p50
    layers["trace.overhead_s"] = traced_p50 - statistics.median(times[False])
    return layers


if __name__ == "__main__":
    main()
