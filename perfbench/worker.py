"""One measuring process of the stablike benchmark.

run.py starts this script in a fresh interpreter with the checkout's
src/ on PYTHONPATH and reads the JSON object it prints last. Modes:

  setup   time the set-up alone: import stablike, build the density
          tables the workload reads
  run     time the set-up, then run passes of the workload untraced
  trace   import stablike, install the tracer, build the tables and run
          the passes under it; report per-layer metrics and write spans

Passes repeat while the next one is expected to end within --seconds;
at least one always runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def set_up(workload):
    start = time.perf_counter()
    for name in wl.setup_modules(workload):
        importlib.import_module(name)
    table = importlib.import_module("stablike.stable").DensityTable
    for a in wl.setup_alphas(workload):
        table.for_alpha(a)
    seconds = time.perf_counter() - start
    where = Path(importlib.import_module("stablike").__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"stablike imported from {where}, not from this checkout")
    return seconds


def make_ops(workload, inputs, workdir):
    if workload == "classify-gate":
        return wl.classify_ops(inputs)
    if workload == "mc-diagnose":
        return wl.mc_ops(inputs, workdir)
    return wl.path_ops(inputs)


def run_passes(ops, seconds, on_op=None):
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(ops, on_op))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def write_spans(tr, path, run_id):
    t0 = tr.spans[0][3] if tr.spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps({"run": run_id, "operations": tr.ops}) + "\n")
        for name, parent, op, start, end, _ in tr.spans:
            fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                 "parent": parent, "run": run_id, "op": op}) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    args = p.parse_args(argv)

    if args.mode != "trace":
        setup_s = set_up(args.workload)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_ref": wl.reference_seconds()}))
            return 0

    inputs = wl.make_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = make_ops(args.workload, inputs, workdir)
        result = {}
        if args.mode == "run":
            result["setup_s"] = setup_s
            result["setup_ref"] = wl.reference_seconds()
            result["passes"] = run_passes(ops, args.seconds)
        else:
            tr = tracing.Tracer()
            with tr.installed():
                with tr.operation("setup"):
                    set_up(args.workload)
                result["passes"] = run_passes(ops, args.seconds, tr.operation)
            n = len(result["passes"])
            layers = tracing.layer_metrics(tr, n, setup_op=0)
            layers["cli.output_bytes"] = (
                wl.output_bytes(inputs, workdir) if args.workload == "mc-diagnose" else 0
            )
            result["layers"] = layers
            result["quad_warnings"] = tracing.warning_tally(tr)
            result["quad_by_operation"] = tracing.quad_by_operation(tr, n, setup_op=0)
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(tr, spans_path, run_id)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
            result["span_count"] = len(tr.spans)

    np_mod, sp_mod = importlib.import_module("numpy"), importlib.import_module("scipy")
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": np_mod.__version__, "scipy": sp_mod.__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
