"""In-memory span tracer for the benchmark's traced run.

The tracer replaces stablike functions at the names their callers look
up, records one span per call (name, start, end, parent span, operation)
and puts every original object back when it is removed. scipy's quad is
wrapped too: each call's integrand evaluations and any QUADPACK warning
message count toward the innermost open span. Spans stay in memory; the
caller writes them out when the run ends.

Span names are "<layer>.<function>"; the layer is the stablike module
whose work the span measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter

# The info function of a site turns (args, kwargs, result) into the
# number or object the layer metrics need; it runs after the span ends.


def _n_paths_steps(args, kwargs, result):
    return result.n_paths * result.n_steps


def _tv_path_steps(args, kwargs, result):
    # both start points run n_paths paths to the last time point
    return 2 * result.n_paths * result.time_points[-1]


def _simulate_steps(args, kwargs, result):
    return len(result.states)


def _cms_samples(args, kwargs, result):
    return result.size


def _identity(args, kwargs, result):
    return result


def _scan_error(args, kwargs, result):
    return result.scan_error


# (module or module:Class, attribute, span name, info) per wrapped name;
# each is the name the calling module looks up
SITES = (
    ("stablike.specfun", "gamma", "specfun.gamma", None),
    ("stablike.stable", "gamma_fn", "specfun.gamma", None),
    ("stablike.thresholds", "hyp2f1", "specfun.hyp2f1", None),
    ("stablike.drift", "r1", "thresholds.r1", None),
    ("stablike.drift", "r2", "thresholds.r2", None),
    ("stablike.drift", "t_threshold", "thresholds.t", None),
    ("stablike.classify", "r1", "thresholds.r1", None),
    ("stablike.classify", "r2", "thresholds.r2", None),
    ("stablike.stable:DensityTable", "for_alpha", "stable.for_alpha", _identity),
    ("stablike.mc", "cms_transform", "stable.cms_transform", _cms_samples),
    ("stablike.chain:ProfileFn", "at", "chain.profile_at", None),
    ("stablike.chain", "simulate", "chain.simulate", _simulate_steps),
    ("stablike.mc", "simulate", "chain.simulate", _simulate_steps),
    ("stablike.drift", "truncated_integral_with_error", "drift.integral", None),
    ("stablike.classify", "tail_scan", "drift.tail_scan", _scan_error),
    ("stablike.classify", "classify", "classify.classify", None),
    ("stablike.cli", "return_stats", "mc.return_stats", _n_paths_steps),
    ("stablike.cli", "occupation", "mc.occupation", _n_paths_steps),
    ("stablike.cli", "tv_convergence", "mc.tv_convergence", _tv_path_steps),
    ("stablike.mc", "invariant_histogram", "mc.invariant_histogram", None),
    ("stablike.cli", "main", "cli.main", None),
)
QUAD_SITE = ("scipy.integrate", "quad")
ENSEMBLE_SPANS = ("mc.return_stats", "mc.occupation", "mc.tv_convergence")


def resolve_owner(where: str):
    """Module or class named "pkg.module" or "pkg.module:Class"."""
    mod_name, _, cls_name = where.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


def current_objects() -> dict:
    """The raw objects now bound at every wrapped site (for restore checks)."""
    sites = [(w, a) for w, a, _, _ in SITES] + [QUAD_SITE]
    return {(w, a): vars(resolve_owner(w))[a] for w, a in sites}


class Tracer:
    """Span recorder. Install with `with tracer.installed(): ...`.

    A span is the list [name, parent index, op index, start, end, info].
    quad maps a span index (-1: none open) to [calls, neval]; warnings
    holds (span index, message) pairs.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.ops: list = []
        self.op = -1
        self.quad: dict = {}
        self.warnings: list = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def _wrap_quad(self, fn):
        stack, quad, warnings = self.stack, self.quad, self.warnings

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            owner = stack[-1] if stack else -1
            rec = quad.setdefault(owner, [0, 0])
            rec[0] += 1
            if len(out) >= 3 and isinstance(out[2], dict):
                rec[1] += int(out[2].get("neval", 0))
            if len(out) == 4:  # full_output with ier > 0 appends the message
                warnings.append((owner, out[3]))
            return out

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site; restore the original objects on exit."""
        saved = []
        try:
            for where, attr, name, info in SITES:
                owner = resolve_owner(where)
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, info)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, info))
            owner = resolve_owner(QUAD_SITE[0])
            raw = vars(owner)[QUAD_SITE[1]]
            saved.append((owner, QUAD_SITE[1], raw))
            setattr(owner, QUAD_SITE[1], self._wrap_quad(raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def operation(self, label):
        """Root span of one benchmark operation; later spans carry its index."""
        self.ops.append(label)
        self.op = len(self.ops) - 1
        span = ["bench.op", -1, self.op, 0.0, 0.0, label]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children.setdefault(span[1], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][3]):
            lo, hi = max(spans[c][3], reach), min(spans[c][4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def warning_tally(tracer) -> dict:
    """QUADPACK message counts by message text, innermost span and operation."""
    tally: dict = {}
    for owner, message in tracer.warnings:
        text = " ".join(message.split())
        span = tracer.spans[owner] if owner >= 0 else None
        name = span[0] if span else "(no span)"
        op = tracer.ops[span[2]] if span and span[2] >= 0 else "(no operation)"
        by_span = tally.setdefault(text, {}).setdefault(name, {})
        by_span[op] = by_span.get(op, 0) + 1
    return tally


def quad_by_operation(tracer, passes: int, setup_op: int) -> dict:
    """quad calls and integrand evaluations per operation label, per pass."""
    out: dict = {}
    for owner, (calls, neval) in tracer.quad.items():
        if owner >= 0 and tracer.spans[owner][2] != setup_op:
            rec = out.setdefault(tracer.ops[tracer.spans[owner][2]], {"calls": 0, "neval": 0})
            rec["calls"] += calls / passes
            rec["neval"] += neval / passes
    return out


def layer_metrics(tracer, passes: int, setup_op: int) -> dict:
    """Per-layer metrics of a traced run.

    Counts and times of the workload's operations are per pass. Table
    builds are counted wherever they happen, setup included, because the
    setup builds them once for the whole run.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    count, total, self_sum = Counter(), Counter(), Counter()
    quad_calls, quad_neval, quad_warn = Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        if span[2] == setup_op:
            continue
        name = span[0]
        count[name] += 1
        total[name] += span[4] - span[3]
        self_sum[name] += selfs[i]
    for owner, (calls, neval) in tracer.quad.items():
        if owner < 0 or spans[owner][2] == setup_op:
            continue
        layer = spans[owner][0].split(".")[0]
        quad_calls[layer] += calls
        quad_neval[layer] += neval
    for owner, _ in tracer.warnings:
        if owner >= 0 and spans[owner][2] != setup_op:
            quad_warn[spans[owner][0].split(".")[0]] += 1

    seen, build_s, build_err = set(), 0.0, 0.0
    for span in spans:
        if span[0] == "stable.for_alpha" and id(span[5]) not in seen:
            seen.add(id(span[5]))
            build_s += span[4] - span[3]
            build_err = max(build_err, span[5].table_error)
    scan_errors = [s[5] for s in spans if s[0] == "drift.tail_scan"
                   and s[2] != setup_op and math.isfinite(s[5])]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def layer_sum(counter, layer):
        return sum(v for k, v in counter.items() if k.split(".")[0] == layer)

    n = max(passes, 1)
    ensemble_s = sum(total[k] for k in ENSEMBLE_SPANS)
    path_steps = sum(s[5] for s in spans if s[0] in ENSEMBLE_SPANS and s[2] != setup_op)
    sim_steps = sum(s[5] for s in spans if s[0] == "chain.simulate" and s[2] != setup_op)
    cms_samples = sum(s[5] for s in spans
                      if s[0] == "stable.cms_transform" and s[2] != setup_op)
    return {
        "specfun.gamma_calls": count["specfun.gamma"] / n,
        "specfun.hyp2f1_calls": count["specfun.hyp2f1"] / n,
        "thresholds.calls": layer_sum(count, "thresholds") / n,
        "thresholds.s": layer_sum(total, "thresholds") / n,
        "thresholds.quad_calls": quad_calls["thresholds"] / n,
        "thresholds.quad_warnings": quad_warn["thresholds"] / n,
        "stable.table_builds": len(seen),
        "stable.table_build_s": build_s,
        "stable.table_error_max": build_err,
        "stable.cms_calls": count["stable.cms_transform"] / n,
        "stable.cms_ns_per_sample": ratio(total["stable.cms_transform"], cms_samples, 1e9),
        "drift.tail_scans": count["drift.tail_scan"] / n,
        "drift.tail_scan_self_s": self_sum["drift.tail_scan"] / n,
        "drift.integrals": count["drift.integral"] / n,
        "drift.us_per_integral": ratio(total["drift.integral"], count["drift.integral"], 1e6),
        "drift.quad_calls": quad_calls["drift"] / n,
        "drift.quad_neval": quad_neval["drift"] / n,
        "drift.quad_warnings": quad_warn["drift"] / n,
        "drift.scan_error_max": max(scan_errors, default=0.0),
        "classify.scans_per_verdict": ratio(count["drift.tail_scan"],
                                            count["classify.classify"]),
        "classify.self_s": self_sum["classify.classify"] / n,
        "mc.path_steps": path_steps / n,
        "mc.ns_per_path_step": ratio(ensemble_s, path_steps, 1e9),
        "mc.self_s": layer_sum(self_sum, "mc") / n,
        "chain.profile_at_calls": count["chain.profile_at"] / n,
        "chain.profile_at_s": total["chain.profile_at"] / n,
        "chain.simulate_steps": sim_steps / n,
        "chain.us_per_step": ratio(total["chain.simulate"], sim_steps, 1e6),
        "cli.self_s": self_sum["cli.main"] / n,
    }
