#!/usr/bin/env python3
"""Run one deepridge benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ./src. A run
derives its inputs from --seed, times repeated operations for about
--seconds, checks every operation's outputs and prints, as its last line,
one JSON object with keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (see BENCHMARK.json); with
--trace 1 operations alternate between untraced and traced, and the metrics
are the per-layer ones from the traced operations plus the tracing overhead.
--workload all runs every workload in its own process and prints a table.

Workload definitions and the reasons for them are in workloads.py. Scratch
files go to .bench_work/ under the repository root and are removed on exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 7          # set-up is timed this many times per run
MIN_OPS = 3             # timed operations per run, even past --seconds
CHILD_TIMEOUT_S = 300    # per workload in --workload all


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(W.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload inputs and exit (times set-up)")
    return p.parse_args(argv)


def import_deepridge():
    """Import the package from ./src, refusing any other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "deepridge", "__init__.py")):
        sys.exit(f"error: no deepridge sources under {SRC}; run from the "
                 f"repository root")
    sys.path.insert(0, SRC)
    import deepridge
    from deepridge import cli, dataio, features, network, theory
    if os.path.dirname(os.path.abspath(deepridge.__file__)) != os.path.join(
            SRC, "deepridge"):
        sys.exit(f"error: deepridge imported from {deepridge.__file__}")
    return {"cli": cli, "dataio": dataio, "features": features,
            "network": network, "theory": theory}


def time_setup(args) -> list:
    """Wall time of SETUP_REPS fresh processes that import and set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        # no timeout: with one, the wait polls at 50 ms steps
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(state, work_dir, seconds, tracer, dr):
    """One warm-up operation, then repeat until ``seconds`` would be exceeded.

    The warm-up is checked like any other operation but not timed: it pays
    for first-touch page faults and BLAS thread start-up. With a tracer,
    timed operations alternate between traced and untraced. Returns one
    record per operation.
    """
    records = []
    start = None
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        op_dir = os.path.join(work_dir, f"op{index}")
        os.makedirs(op_dir)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                try:
                    tracer.install(dr)
                    result = tracer.run_op(lambda: state.op(op_dir))
                finally:
                    tracer.uninstall()
            else:
                result = state.op(op_dir)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        shutil.rmtree(op_dir)
        records.append({"warmup": index == 0, "traced": traced, "wall": wall,
                        "result": result, "error": error})
        if start is None:
            start = time.perf_counter()
            continue
        timed = [r["wall"] for r in records if not r["warmup"]]
        next_end = time.perf_counter() - start + statistics.median(timed)
        if len(timed) >= MIN_OPS and next_end > seconds:
            return records


def check_records(records) -> list:
    """Mark failed operations; returns one problem string per failure."""
    problems = []
    first = next((r["result"] for r in records if r["result"]), None)
    for i, r in enumerate(records):
        res = r["result"]
        if res is None:
            r["problems"] = [r["error"].strip().splitlines()[-1]]
            print(r["error"], file=sys.stderr)
        else:
            r["problems"] = list(res.problems)
            if res.fingerprint != first.fingerprint:
                r["problems"].append("outputs differ from the first operation")
        problems += [f"op {i}: {p}" for p in r["problems"]]
    return problems


def tail(values):
    """Highest percentile with at least ten samples beyond it, else max."""
    values = sorted(values)
    n = len(values)
    if n < 20:
        return "max", values[-1]
    q = 1.0 - 10.0 / n
    return f"p{100 * q:.0f}", values[min(n - 1, int(q * n))]


def environment(workload, dr):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": workload.blas_threads,
        "pool_threads": workload.pool_threads,
        "deepridge": dr["cli"].__version__,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_times):
    ok = [r for r in records if not r["problems"]]
    timed = [r["wall"] for r in records if not r["warmup"]]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_s": metric(statistics.median(timed), "s"),
        "output_mb": metric(statistics.median(
            r["result"].output_mb for r in ok) if ok else 0.0, "MB"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(len(ok) / len(records), "frac"),
    }


def print_timings(workload, records, setup_times):
    records = [r for r in records if not (r["warmup"] or r["traced"])]
    ok = [r for r in records if r["result"]]
    rows = [("setup_s", setup_times),
            ("op_s", [r["wall"] for r in records])]
    rows += [(f"{s}_s", [r["result"].stages[s] for r in ok])
             for s in workload.stages]
    for name, values in rows:
        if not values:
            continue
        label, t = tail(values)
        print(f"  {name:<16} median {statistics.median(values):9.4f} s  "
              f"{label} {t:9.4f} s  n={len(values)}")


def trace_metrics(workload, records, tracer):
    import spans
    problems = []
    names = tracer.recorded_names()
    missing = sorted(set(workload.expected_spans) - names)
    if missing:
        problems.append(f"expected spans never recorded: {missing}")
    stray = sorted(n for n in names if n.split(".")[0]
                   in workload.forbidden_layers)
    if stray:
        problems.append(f"spans recorded from excluded layers: {stray}")
    values = spans.layer_metrics(tracer)
    plain = [r["wall"] for r in records
             if not (r["traced"] or r["warmup"])]
    traced = [r["wall"] for r in records if r["traced"]]
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    values["trace.overhead_ratio"] = traced_s / plain_s
    print(f"  tracing overhead: traced op median {traced_s:.4f} s vs "
          f"untraced {plain_s:.4f} s (ratio {traced_s / plain_s:.4f})")
    shares = spans.breakdown(tracer, workload.main_span)
    print(f"  share of {workload.main_span} wall time, by inner span:")
    for name, share in shares:
        print(f"    {name:<40} {share:7.1%}")
    if shares:
        print(f"  largest share of {workload.main_span}: {shares[0][0]}")
    print("  computed counters (from shapes and return values, not timed): "
          + ", ".join(f"{k}={values[k]:g}" for k in spans.COMPUTED))
    out = {k: metric(v, spans.unit_of(k)) for k, v in values.items()}
    return out, problems


def run_one(args) -> int:
    workload = W.WORKLOADS[args.workload]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(workload.blas_threads)
    dr = import_deepridge()
    import ops

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        if args.setup_only:
            ops.SETUPS[workload.name](args.seed, work_dir)
            return 0
        setup_times = time_setup(args)
        state = ops.SETUPS[workload.name](args.seed, work_dir)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        records = run_ops(state, work_dir, args.seconds, tracer, dr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    problems = check_records(records)
    failed = sum(1 for r in records if r["problems"])
    print("env: " + json.dumps(environment(workload, dr), sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {len(records)} ops "
          f"(1 warm-up), {failed} failed "
          f"(failed_frac {failed / len(records):.4f})")
    print_timings(workload, records, setup_times)
    if args.trace:
        metrics, trace_problems = trace_metrics(workload, records, tracer)
        problems += trace_problems
    else:
        metrics = end_to_end(records, setup_times)
    for p in problems:
        print(f"  problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a separate process; one table of every metric."""
    table, correct = [], True
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        table += [(name, k, m["value"], m["unit"])
                  for k, m in result["metrics"].items()]
    print(f"\n{'workload':<14} {'metric':<44} {'value':>14}  unit")
    for name, k, v, unit in table:
        print(f"{name:<14} {k:<44} {v:14.6g}  {unit}")
    print(f"all outputs correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
