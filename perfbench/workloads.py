"""Workload inputs, operations and output checks for the stablike benchmark.

Inputs are plain data made from the benchmark seed (stdlib only, so the
parent process can record them without importing the program). The
operations look up every stablike function through its module at call
time, so a tracer that replaces a module attribute sees the call.

A workload is a list of operations; one pass runs each operation once.
Every operation carries an output check. An exception or a failed check
marks that one operation as failed and the pass goes on.
"""

from __future__ import annotations

import copy
import csv
import importlib
import math
import os
import random
import time

WORKLOADS = ("classify-gate", "mc-diagnose", "simulate-path")


def _const(v):
    return {"kind": "constant", "values": [float(v)]}


def _two(left, right):
    return {"kind": "two_valued", "values": [float(left), float(right)]}


def _chain(alpha, delta=0.0):
    return {
        "alpha": alpha if isinstance(alpha, dict) else _const(alpha),
        "gamma": _const(1.0),
        "delta": delta if isinstance(delta, dict) else _const(delta),
    }


# the two-valued ergodic example of acceptance criterion 5: index 1.5/1.8
# with a half-unit pull toward the origin from both sides
ERGODIC = _chain(_two(1.5, 1.8), _two(0.5, -0.5))

# the 13 chains of acceptance criteria 3-5 with their expected verdicts
GATE_CHAINS = (
    [(f"make_chain({a})", _chain(a), "Recurrent") for a in (1.2, 1.5, 1.9)]
    + [
        (f"make_chain({a}, delta={d})", _chain(a, d), "Transient")
        for a in (0.3, 0.5, 0.8)
        for d in (0.0, 0.5)
    ]
    + [("make_chain(1.0)", _chain(1.0), "Inconclusive")]
    + [
        ("two_valued(1.2, 1.0)", _chain(_two(1.2, 1.0)), "Recurrent"),
        ("two_valued(0.9, 0.8)", _chain(_two(0.9, 0.8)), "Transient"),
        ("ergodic two_valued(1.5, 1.8)", ERGODIC, "Ergodic"),
    ]
)

MC_PATHS = 8192  # one full Monte Carlo block
MC_STEPS = 2000
MC_STATS = (
    "return_fraction",
    "mean_return_time",
    "ball_occupation_fraction",
    "compact_occupation_fraction",
    "compact_return_fraction",
    "n_paths",
    "n_steps",
)

PATH_STEPS = 200_000
HIST_BIN = 1.0
HIST_HALF_RANGE = 500.0  # mc's fixed histogram range


def make_inputs(workload: str, seed: int) -> dict:
    """Generated inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random(seed)
    if workload == "classify-gate":
        # the chains are fixed by the acceptance gate; the seed only
        # sets the order they run in
        chains = [
            {"label": label, "chain": chain, "expect": expect}
            for label, chain, expect in GATE_CHAINS
        ]
        rng.shuffle(chains)
        return {"chains": chains}
    if workload == "mc-diagnose":
        configs = []
        # TV time points sit where the proxy still falls well above its
        # noise floor: the ergodic chain mixes over ~1000 steps, while the
        # alpha = 0.5 laws from +-50 spread like t^2 and reach the floor
        # (out-of-range mass folded into the end bins) within ~300 steps
        for label, chain, time_points in (
            ("ergodic two_valued(1.5, 1.8)", ERGODIC, [10, 100, 1000]),
            ("make_chain(0.5)", _chain(0.5), [2, 10, 300]),
        ):
            configs.append({
                "label": label,
                "config": {
                    "schema_version": 1,
                    "chain": chain,
                    "mc": {
                        "seed": rng.randrange(2**31),
                        "n_paths": MC_PATHS,
                        "n_steps": MC_STEPS,
                        "x0": 50.0,
                        "x0_b": -50.0,
                        "radius": 10.0,
                        "compact": [-50.0, 50.0],
                        "time_points": time_points,
                        "bin_width": 5.0,
                    },
                    "output": {"directory": None, "json": False, "csv": True},
                },
            })
        return {"configs": configs}
    if workload == "simulate-path":
        return {
            "simulate": {"chain": _chain(1.5), "x0": 0.0, "n_steps": PATH_STEPS,
                         "seed": rng.randrange(2**31)},
            "histogram": {"chain": ERGODIC, "x0": 0.0, "n_steps": PATH_STEPS,
                          "bin_width": HIST_BIN, "seed": rng.randrange(2**31)},
        }
    raise ValueError(f"unknown workload {workload!r}")


def setup_alphas(workload: str) -> list:
    """Indices whose density tables the workload's operations read."""
    if workload != "classify-gate":
        return []  # the Monte Carlo and path engines use no density table
    alphas = set()
    for _, chain, _ in GATE_CHAINS:
        alphas.update(chain["alpha"]["values"])
    return sorted(alphas)


def setup_modules(workload: str) -> list:
    return ["stablike", "stablike.cli"] if workload == "mc-diagnose" else ["stablike"]


def _profile(doc):
    chain = importlib.import_module("stablike.chain")
    if doc["kind"] == "constant":
        return chain.ProfileFn.constant(doc["values"][0])
    return chain.ProfileFn.two_valued(*doc["values"])


def build_chain(doc):
    chain = importlib.import_module("stablike.chain")
    return chain.ChainSpec(
        _profile(doc["alpha"]),
        chain.SasJump(_profile(doc["gamma"]), _profile(doc["delta"])),
    )


class Op:
    """One timed operation: run() returns a result that check() judges.

    check returns (ok, detail, work): work counts the units the workload's
    throughput is measured in (verdicts, path-steps or chain steps).
    """

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _check_verdict(item, res):
    expect = item["expect"]
    if res.verdict != expect:
        return False, f"verdict {res.verdict}, expected {expect}"
    alpha = item["chain"]["alpha"]
    if expect == "Ergodic":
        margin = res.margins.get("pow_erg", -math.inf)
        if "pow_erg" not in res.conditions_used or res.beta_used != 1.0 or not margin > 0:
            return False, (f"ergodic via {res.conditions_used} beta "
                           f"{res.beta_used} pow_erg margin {margin}")
    elif alpha["kind"] == "two_valued":
        # criterion 4: the margin must reach a quarter of the gap to the
        # critical index sum 2, unless the sum sits inside the exempt band
        total = sum(alpha["values"])
        gap = abs(total - 2.0)
        margin = max(res.margins.values()) if res.margins else 0.0
        if not (1.9 <= total <= 2.1 or margin >= 0.25 * gap):
            return False, f"margin {margin:.4g} below 25% of gap {gap:.4g}"
    return True, res.verdict


def classify_ops(inputs):
    ops = []
    for item in inputs["chains"]:
        spec = build_chain(item["chain"])

        def run(spec=spec):
            return importlib.import_module("stablike.classify").classify(spec)

        def check(res, item=item):
            ok, detail = _check_verdict(item, res)
            return ok, detail, 1

        ops.append(Op(f"classify {item['label']}", run, check))
    return ops


def write_mc_configs(inputs, workdir):
    """Write each config's YAML under workdir; returns (label, path, doc)."""
    import yaml

    written = []
    for i, item in enumerate(inputs["configs"]):
        doc = copy.deepcopy(item["config"])
        doc["output"]["directory"] = os.path.join(workdir, f"out{i}")
        path = os.path.join(workdir, f"config{i}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        written.append((item["label"], path, doc))
    return written


def _read_csv(path):
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    if not first.startswith("# stablike "):
        raise ValueError(f"{os.path.basename(path)}: missing provenance comment")
    return rows[0], rows[1:]


def _check_mc_outputs(doc, rc, state, label):
    """Verify both CSVs of one mc-diagnose call; returns (ok, detail, work)."""
    if rc != 0:
        return False, f"exit code {rc}", 0
    mc = doc["mc"]
    out = doc["output"]["directory"]
    stats_path = os.path.join(out, "mc_stats.csv")
    tv_path = os.path.join(out, "tv_convergence.csv")
    header, rows = _read_csv(stats_path)
    if header != ["statistic", "value"] or [r[0] for r in rows] != list(MC_STATS):
        return False, f"mc_stats.csv rows {[r[0] for r in rows]}", 0
    stats = {name: float(v) for name, v in rows}
    if not all(math.isfinite(v) for v in stats.values()):
        return False, f"non-finite statistic in {stats}", 0
    if (stats["n_paths"], stats["n_steps"]) != (mc["n_paths"], mc["n_steps"]):
        return False, "n_paths/n_steps do not echo the config", 0
    header, rows = _read_csv(tv_path)
    if header != ["time_point", "tv"] or [int(r[0]) for r in rows] != mc["time_points"]:
        return False, f"tv_convergence.csv rows {rows}", 0
    tv = [float(r[1]) for r in rows]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in tv):
        return False, f"tv values {tv}", 0
    if not all(a > b for a, b in zip(tv, tv[1:])):
        return False, f"tv values do not decrease: {tv}", 0
    rf = stats["return_fraction"]
    if label.startswith("ergodic"):
        state["ergodic_return"] = rf
    elif not state.get("ergodic_return", -1.0) > rf:
        return False, (f"ergodic return fraction {state.get('ergodic_return')} "
                       f"does not exceed {rf}"), 0
    # return_stats and occupation run n_steps each; tv_convergence runs
    # two ensembles to the last time point
    work = mc["n_paths"] * (2 * mc["n_steps"] + 2 * mc["time_points"][-1])
    return True, f"return_fraction={rf:.4f} tv={tv}", work


def mc_ops(inputs, workdir):
    ops = []
    state: dict = {}  # the ergodic config's return fraction, for the next check
    for label, path, doc in write_mc_configs(inputs, workdir):

        def run(path=path):
            cli = importlib.import_module("stablike.cli")
            return cli.main(["mc-diagnose", "--config", path])

        def check(rc, doc=doc, label=label):
            return _check_mc_outputs(doc, rc, state, label)

        ops.append(Op(f"mc-diagnose {label}", run, check))
    return ops


def stable_prob_within(alpha, x):
    """P(|X| <= x) for X ~ S(alpha, 1, 0), from the characteristic function.

    P = (2/pi) * int_0^inf sin(t x) / t * exp(-t^alpha) dt; the envelope
    is below 1e-18 past t = 41.45^(1/alpha).
    """
    from scipy import integrate

    def f(t):
        return math.sin(t * x) / t * math.exp(-(t ** alpha)) if t > 0.0 else x

    val, _ = integrate.quad(f, 0.0, 41.45 ** (1.0 / alpha), epsabs=1e-12, limit=200)
    return 2.0 / math.pi * val


def _check_simulate(p, traj, p_unit):
    """The path's increments must follow S(alpha, 1, 0).

    For a constant chain the increments are iid stable draws whatever
    the sampler, so the share of |increment| <= 1 must match p_unit; its
    standard error is below 0.0012 at 2e5 steps and the tolerance is 0.01.
    """
    import numpy as np

    states = np.asarray(traj.states)
    if states.shape != (p["n_steps"],) or not np.all(np.isfinite(states)):
        return False, f"states shape {states.shape} or non-finite values", 0
    if (traj.start, traj.seed) != (p["x0"], p["seed"]):
        return False, f"trajectory echoes start {traj.start}, seed {traj.seed}", 0
    steps = np.diff(states, prepend=p["x0"])
    share = float(np.mean(np.abs(steps) <= 1.0))
    if abs(share - p_unit) > 0.01:
        return False, f"share of |step| <= 1 is {share:.4f}, law gives {p_unit:.4f}", 0
    return True, f"share of |step| <= 1 {share:.4f} (law {p_unit:.4f})", p["n_steps"]


def _check_histogram(p, grid):
    """The result must be the mass histogram of the post-burn-in states.

    A long path's share of time near the origin is no check here: after a
    heavy-tailed jump the ergodic chain's excursions have infinite-variance
    lengths, and the mass in [-50, 50] of one 2e5-step path ranged from
    0.39 to 0.95 over 70 seeds (median 0.89).
    """
    import numpy as np

    bw = p["bin_width"]
    kept = p["n_steps"] - p["n_steps"] // 2
    mass = np.asarray(grid.values) * bw
    n_bins = int(math.ceil(2.0 * HIST_HALF_RANGE / bw))
    centers = -HIST_HALF_RANGE + bw * (np.arange(n_bins) + 0.5)
    if mass.shape != (n_bins,) or not np.allclose(grid.points, centers, rtol=0, atol=1e-9):
        return False, "histogram points are not the fixed bin centres", 0
    total = float(mass.sum())
    counts = mass * kept
    if abs(total - 1.0) > 1e-9 or np.any(mass < 0.0):
        return False, f"histogram mass sums to {total!r} or is negative", 0
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        return False, f"masses are not counts of {kept} states", 0
    if not math.isclose(grid.quadrature_error, 1.0 / math.sqrt(kept)):
        return False, f"error field {grid.quadrature_error!r}", 0
    core = float(mass[np.abs(centers) <= 50.0].sum())
    return True, f"mass {core:.4f} in [-50, 50]", p["n_steps"]


def path_ops(inputs):
    sim, hist = inputs["simulate"], inputs["histogram"]
    sim_spec, hist_spec = build_chain(sim["chain"]), build_chain(hist["chain"])

    def run_sim():
        chain = importlib.import_module("stablike.chain")
        return chain.simulate(sim_spec, sim["x0"], sim["n_steps"], sim["seed"])

    def run_hist():
        mc = importlib.import_module("stablike.mc")
        return mc.invariant_histogram(hist_spec, hist["x0"], hist["n_steps"], None,
                                      hist["bin_width"], hist["seed"])

    p_unit = stable_prob_within(sim["chain"]["alpha"]["values"][0], 1.0)
    return [
        Op("simulate make_chain(1.5)", run_sim,
           lambda t: _check_simulate(sim, t, p_unit)),
        Op("invariant_histogram ergodic", run_hist,
           lambda g: _check_histogram(hist, g)),
    ]


def output_bytes(inputs, workdir):
    """Bytes of the CSV files the mc-diagnose configs wrote under workdir."""
    total = 0
    for i in range(len(inputs["configs"])):
        for name in ("mc_stats.csv", "tv_convergence.csv"):
            total += os.path.getsize(os.path.join(workdir, f"out{i}", name))
    return total


def _cms_reference(alpha, u, e):
    return (math.sin(alpha * u) / math.cos(u) ** (1.0 / alpha)
            * (math.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


class _Walker:
    def __init__(self, left, right):
        self.values = {"left": left, "right": right}

    def alpha(self, x):
        return self.values["left"] if x < 0 else self.values["right"]


def reference_seconds():
    """Time of a fixed kernel that does not touch stablike.

    It mirrors the two kinds of work the workloads do: a scalar Python
    loop of method calls, float math and scalar random draws, and numpy
    arithmetic on one 8192-element block. So it slows down with the
    machine much as the workloads do.
    """
    import numpy as np

    rng = np.random.default_rng(5)
    walker = _Walker(1.5, 1.8)
    start = time.perf_counter()
    x = 0.0
    for _ in range(4000):
        u = rng.uniform(-1.5, 1.5)
        e = rng.standard_exponential()
        a = walker.alpha(x)
        x = 0.5 * x + _cms_reference(a, u, e)
    block = np.zeros(MC_PATHS)
    for _ in range(30):
        u = rng.uniform(-1.5, 1.5, MC_PATHS)
        e = rng.standard_exponential(MC_PATHS)
        a = np.where(block < 0, 1.5, 1.8)
        block = 0.5 * block + (np.sin(a * u) * np.cos(u) ** (-1.0 / a)
                               * (np.cos((1.0 - a) * u) / e) ** ((1.0 - a) / a))
    return time.perf_counter() - start


def run_pass(ops, on_op=None):
    """Run every operation once; returns one record per operation.

    on_op, if given, is a context-manager factory entered around each
    operation with its label (the tracer opens its span there). Each
    record carries ref, the mean reference-kernel time just before and
    just after the operation.
    """
    records = []
    ref_before = reference_seconds()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if on_op is None:
                result = op.run()
            else:
                with on_op(op.label):
                    result = op.run()
            seconds = time.perf_counter() - t0
            ok, detail, work = op.check(result)
        except Exception as exc:  # counted as a failed operation
            seconds = time.perf_counter() - t0
            ok, detail, work = False, f"{type(exc).__name__}: {exc}", 0
        ref_after = reference_seconds()
        records.append({"label": op.label, "seconds": seconds, "ok": bool(ok),
                        "detail": detail, "work": work,
                        "ref": 0.5 * (ref_before + ref_after)})
        ref_before = ref_after
    return records
