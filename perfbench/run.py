"""Benchmark of the stablike package: three workloads, each output checked.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload classify-gate --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --workload all
runs every workload untraced and prints one table of all end-to-end
metrics. The stablike package is imported from src/ of this checkout
only; every measurement runs in a fresh single-threaded child process
(worker.py). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "specfun.gamma_calls": "count",
    "specfun.hyp2f1_calls": "count",
    "thresholds.calls": "count",
    "thresholds.s": "s",
    "thresholds.quad_calls": "count",
    "thresholds.quad_warnings": "count",
    "stable.table_builds": "count",
    "stable.table_build_s": "s",
    "stable.table_error_max": "abs",
    "stable.cms_calls": "count",
    "stable.cms_ns_per_sample": "ns",
    "drift.tail_scans": "count",
    "drift.tail_scan_self_s": "s",
    "drift.integrals": "count",
    "drift.us_per_integral": "us",
    "drift.quad_calls": "count",
    "drift.quad_neval": "count",
    "drift.quad_warnings": "count",
    "drift.scan_error_max": "abs",
    "classify.scans_per_verdict": "count",
    "classify.self_s": "s",
    "mc.path_steps": "count",
    "mc.ns_per_path_step": "ns",
    "mc.self_s": "s",
    "chain.profile_at_calls": "count",
    "chain.profile_at_s": "s",
    "chain.simulate_steps": "count",
    "chain.us_per_step": "us",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}

TIME_UNITS = ("s", "us", "ns")
SETUP_SAMPLES = 5  # fresh processes whose set-up time is timed; median reported
# Seconds the reference kernel (workloads.reference_seconds) takes at the
# nominal machine speed. Every reported time is scaled by REF_NOMINAL / r,
# where r is the kernel's time measured next to it in the same process,
# so drift in the machine's speed between and within runs cancels.
REF_NOMINAL = 0.040
TIME_LIMIT = 170.0  # seconds for one benchmark invocation, children included


class BenchError(RuntimeError):
    pass


def check_checkout():
    if not (ROOT / "src" / "stablike" / "__init__.py").is_file():
        raise BenchError(f"no stablike package under {ROOT / 'src'}; "
                         "run from the root of a stablike checkout")


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    # all load stays on one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode, workload, seed, seconds, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a measurement could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _scaled(seconds, ref, nominal):
    return seconds * nominal / ref if nominal else seconds


def _pass_walls(child, nominal=REF_NOMINAL):
    return [sum(_scaled(r["seconds"], r["ref"], nominal) for r in p)
            for p in child["passes"]]


def _records(*children):
    return [r for c in children for p in c["passes"] for r in p]


def end_to_end(setups, main, nominal=REF_NOMINAL):
    """End-to-end metrics; times scaled to nominal speed unless nominal is None."""
    records = _records(main)
    op_s = [_scaled(r["seconds"], r["ref"], nominal) for r in records]
    setup_s = [_scaled(c["setup_s"], c["setup_ref"], nominal) for c in setups + [main]]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(_pass_walls(main, nominal)),
        "op_s.p50": statistics.median(op_s),
        "work_per_s": sum(r["work"] for r in records) / sum(op_s),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def measure(workload, seed, seconds, trace):
    """Run the workload's children; returns (metrics, raw metrics, records, child)."""
    deadline = time.monotonic() + TIME_LIMIT
    if not trace:
        setups = [run_child("setup", workload, seed, 0, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = run_child("run", workload, seed, seconds, deadline)
        return (end_to_end(setups, main), end_to_end(setups, main, None),
                _records(main), main)
    # the traced and the untraced half each get half the run time
    base = run_child("run", workload, seed, seconds / 2.0, deadline)
    traced = run_child("trace", workload, seed, seconds / 2.0, deadline)
    raw = dict(traced["layers"])
    raw["trace.overhead_frac"] = (
        statistics.median(_pass_walls(traced)) / statistics.median(_pass_walls(base))
        - 1.0)
    # spans carry no reference time of their own: scale the layer times by
    # the traced process's median reference time
    factor = REF_NOMINAL / statistics.median(r["ref"] for r in _records(traced))
    metrics = {name: value * factor if PER_LAYER[name] in TIME_UNITS else value
               for name, value in raw.items()}
    return metrics, raw, _records(base, traced), traced


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # the checkout is not a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload, seed, seconds, trace, child):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "versions": child["versions"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "inputs": wl.make_inputs(workload, seed),
    }


def result_line(metrics, records, units):
    failed = sum(not r["ok"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_one(workload, seed, seconds, trace):
    """Measure one workload, print its report and write its record file."""
    metrics, raw, records, child = measure(workload, seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    result = result_line(metrics, records, units)
    record = {
        "metadata": metadata(workload, seed, seconds, trace, child),
        "result": result,
        "unscaled_metrics": raw,
        "operations": records,
    }
    if trace:
        record["quad_warnings"] = child["quad_warnings"]
        record["quad_by_operation"] = child["quad_by_operation"]
        record["spans_file"] = child["spans_file"]
        record["span_count"] = child["span_count"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['label']}: {r['detail']}")
    for name, unit in units.items():
        line = f"{workload:14s} {name:28s} {metrics[name]:>16.6g} {unit}"
        print(line + (f"  (unscaled {raw[name]:.6g})" if raw else ""))
    frac = result["failed"] / result["attempted"]
    print(f"{workload:14s} {'ops_failed_frac':28s} {frac:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    for message, by_span in record.get("quad_warnings", {}).items():
        for span, by_op in by_span.items():
            for op, n in by_op.items():
                print(f"quad warning x{n} in {span} under {op}: {message}")
    print(f"record: {path.relative_to(ROOT)}")
    print("metadata: " + json.dumps(record["metadata"], sort_keys=True))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_checkout()
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {w: run_one(w, args.seed, args.seconds, bool(args.trace))
                      for w in wl.WORKLOADS}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
