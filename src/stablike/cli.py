"""Command-line front end.

One canonical YAML config format, versioned by schema_version, drives
five subcommands:

  thresholds   CSV of the r1/r2/t constants over requested grids
  classify     JSON verdict report plus a one-line summary on stdout
  drift-scan   CSV of every (x, delta, d) point of one condition scan
  simulate     CSV of a single trajectory
  mc-diagnose  CSV of return/occupation statistics and the TV proxy

Every output file starts with a comment line carrying the tool version
and a hash of the canonical config, so results are traceable to the
exact inputs. Floats are written in shortest round-trip form. Exit
codes: 0 success with a decisive result, 2 for an Inconclusive
classification, 1 for any failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import yaml

from . import __version__
from .chain import ChainSpec, ProfileFn, SasJump, simulate
from .classify import ScanSettings, classify
from .drift import (
    ALL_CONDITIONS,
    DEFAULT_DELTA_GRID,
    _NEEDS_BETA,
    default_x_grid,
    tail_scan,
)
from .errors import ConfigError, StablikeError
# return_stats and occupation are unused here; perfbench's tracer wraps them by name
from .mc import _ball, _compact, interval_stats, occupation, return_stats, tv_convergence
from .thresholds import r1, r2, t as t_threshold

SCHEMA_VERSION = 1

_PROFILE_KINDS = ("constant", "two_valued", "periodic", "piecewise")


@dataclass(frozen=True)
class ScanConfig:
    x_decades: tuple = (2.0, 5.0)
    x_per_side: int = 13
    delta_ladder: tuple = DEFAULT_DELTA_GRID
    d_ladder: tuple | None = None
    betas: tuple | None = None
    condition: str = "mom_rec"


@dataclass(frozen=True)
class ThresholdsConfig:
    kinds: tuple = ("r1", "r2", "t")
    alphas: tuple = (0.5, 1.0, 1.5)
    betas: tuple = (0.5,)


@dataclass(frozen=True)
class McConfig:
    seed: int
    n_paths: int = 1000
    n_steps: int = 10000
    x0: float = 50.0
    x0_b: float = -50.0
    radius: float = 10.0
    compact: tuple = (-50.0, 50.0)
    time_points: tuple = (100, 1000, 10000)
    bin_width: float = 5.0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    json_out: bool = True
    csv_out: bool = True


@dataclass(frozen=True)
class RunConfig:
    schema_version: int
    chain: ChainSpec
    scan: ScanConfig
    thresholds: ThresholdsConfig
    mc: McConfig | None
    output: OutputConfig

    def canonical_dict(self) -> dict:
        """Fully-materialized config (defaults filled) for hashing/saving."""
        doc = {
            "schema_version": self.schema_version,
            "chain": {
                "alpha": _profile_to_dict(self.chain.alpha_profile),
                "gamma": _profile_to_dict(self.chain.family.gamma_profile),
                "delta": _profile_to_dict(self.chain.family.delta_profile),
            },
            "scan": {
                "x_decades": list(self.scan.x_decades),
                "x_per_side": self.scan.x_per_side,
                "delta_ladder": list(self.scan.delta_ladder),
                "d_ladder": None if self.scan.d_ladder is None
                else list(self.scan.d_ladder),
                "betas": None if self.scan.betas is None
                else list(self.scan.betas),
                "condition": self.scan.condition,
            },
            "thresholds": {
                "kinds": list(self.thresholds.kinds),
                "alphas": list(self.thresholds.alphas),
                "betas": list(self.thresholds.betas),
            },
            "output": {
                "directory": self.output.directory,
                "json": self.output.json_out,
                "csv": self.output.csv_out,
            },
        }
        if self.mc is not None:
            doc["mc"] = {
                "seed": self.mc.seed,
                "n_paths": self.mc.n_paths,
                "n_steps": self.mc.n_steps,
                "x0": self.mc.x0,
                "x0_b": self.mc.x0_b,
                "radius": self.mc.radius,
                "compact": list(self.mc.compact),
                "time_points": list(self.mc.time_points),
                "bin_width": self.mc.bin_width,
            }
        return doc

    def config_hash(self) -> str:
        text = yaml.safe_dump(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _profile_to_dict(p: ProfileFn) -> dict:
    doc: dict = {"kind": p.kind, "values": list(p.values)}
    if p.kind == "periodic":
        doc["period"] = p.period
    if p.kind == "piecewise":
        doc["breakpoints"] = list(p.breakpoints)
    return doc


def _parse_profile(doc, where: str, problems: list) -> ProfileFn | None:
    if not isinstance(doc, dict):
        problems.append(f"{where}: expected a mapping with kind/values")
        return None
    kind = doc.get("kind")
    if kind not in _PROFILE_KINDS:
        problems.append(f"{where}.kind: expected one of {_PROFILE_KINDS}, got {kind!r}")
        return None
    extra = set(doc) - {"kind", "values", "period", "breakpoints"}
    if extra:
        problems.append(f"{where}: unknown keys {sorted(extra)}")
    values = doc.get("values")
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        problems.append(f"{where}.values: expected a non-empty list of numbers")
        return None
    values = [float(v) for v in values]
    try:
        if kind == "constant":
            if len(values) != 1:
                problems.append(f"{where}.values: constant profile takes 1 value")
                return None
            return ProfileFn.constant(values[0])
        if kind == "two_valued":
            if len(values) != 2:
                problems.append(f"{where}.values: two_valued profile takes 2 values")
                return None
            return ProfileFn.two_valued(values[0], values[1])
        if kind == "periodic":
            period = doc.get("period")
            if not isinstance(period, (int, float)) or not period > 0:
                problems.append(f"{where}.period: expected a number > 0")
                return None
            return ProfileFn.periodic(float(period), values)
        breakpoints = doc.get("breakpoints")
        if not isinstance(breakpoints, list):
            problems.append(f"{where}.breakpoints: expected a list of numbers")
            return None
        return ProfileFn.piecewise([float(b) for b in breakpoints], values)
    except StablikeError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _float_list(doc, where, problems, allow_none=False):
    if doc is None and allow_none:
        return None
    if not isinstance(doc, list) or not doc or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc
    ):
        problems.append(f"{where}: expected a non-empty list of numbers")
        return None
    return tuple(float(v) for v in doc)


def _get_scalar(section, key, where, problems, types, default=None, required=False):
    if key not in section:
        if required:
            problems.append(f"{where}.{key}: required field missing")
        return default
    v = section[key]
    if not isinstance(v, types) or isinstance(v, bool):
        problems.append(f"{where}.{key}: wrong type {type(v).__name__}")
        return default
    return v


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML config; collects every problem found."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"malformed YAML: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a mapping"])

    problems: list = []
    known = {"schema_version", "chain", "scan", "thresholds", "mc", "output"}
    for key in set(doc) - known:
        problems.append(f"unknown top-level section {key!r}")

    sv = doc.get("schema_version")
    if sv != SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {SCHEMA_VERSION}, got {sv!r}"
        )

    chain_doc = doc.get("chain")
    alpha = gamma = delta = None
    if not isinstance(chain_doc, dict):
        problems.append("chain: required section missing or not a mapping")
    else:
        for key in set(chain_doc) - {"alpha", "gamma", "delta"}:
            problems.append(f"chain: unknown key {key!r}")
        alpha = _parse_profile(chain_doc.get("alpha"), "chain.alpha", problems)
        gamma = _parse_profile(
            chain_doc.get("gamma", {"kind": "constant", "values": [1.0]}),
            "chain.gamma", problems,
        )
        delta = _parse_profile(
            chain_doc.get("delta", {"kind": "constant", "values": [0.0]}),
            "chain.delta", problems,
        )
    if alpha is not None:
        for i, v in enumerate(alpha.values):
            if not 0.0 < v < 2.0:
                problems.append(f"chain.alpha.values[{i}]: {v} outside (0, 2)")
    if gamma is not None:
        for i, v in enumerate(gamma.values):
            if not v > 0.0:
                problems.append(f"chain.gamma.values[{i}]: {v} must be > 0")
    if delta is not None:
        for i, v in enumerate(delta.values):
            if not math.isfinite(v):
                problems.append(f"chain.delta.values[{i}]: must be finite")

    scan = ScanConfig()
    scan_doc = doc.get("scan")
    if scan_doc is not None:
        if not isinstance(scan_doc, dict):
            problems.append("scan: expected a mapping")
        else:
            allowed = {"x_decades", "x_per_side", "delta_ladder", "d_ladder",
                       "betas", "condition"}
            for key in set(scan_doc) - allowed:
                problems.append(f"scan: unknown key {key!r}")
            x_dec = _float_list(
                scan_doc.get("x_decades", list(scan.x_decades)),
                "scan.x_decades", problems,
            ) or scan.x_decades
            if len(x_dec) != 2 or not x_dec[0] < x_dec[1]:
                problems.append("scan.x_decades: expected [lo, hi] with lo < hi")
                x_dec = scan.x_decades
            n_side = _get_scalar(scan_doc, "x_per_side", "scan", problems,
                                 int, scan.x_per_side)
            deltas = _float_list(
                scan_doc.get("delta_ladder", list(scan.delta_ladder)),
                "scan.delta_ladder", problems,
            ) or scan.delta_ladder
            if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])) or any(
                not 0.0 < d < 1.0 for d in deltas
            ):
                problems.append(
                    "scan.delta_ladder: expected strictly decreasing values in (0, 1)"
                )
            ds = _float_list(scan_doc.get("d_ladder"), "scan.d_ladder",
                             problems, allow_none=True)
            betas = _float_list(scan_doc.get("betas"), "scan.betas",
                                problems, allow_none=True)
            if betas is not None and any(not 0.0 < b <= 1.0 for b in betas):
                problems.append("scan.betas: values must lie in (0, 1]")
            cond = scan_doc.get("condition", scan.condition)
            if cond not in ALL_CONDITIONS:
                problems.append(
                    f"scan.condition: {cond!r} not one of {ALL_CONDITIONS}"
                )
            scan = ScanConfig(tuple(x_dec), n_side, tuple(deltas), ds, betas, cond)

    thr = ThresholdsConfig()
    thr_doc = doc.get("thresholds")
    if thr_doc is not None:
        if not isinstance(thr_doc, dict):
            problems.append("thresholds: expected a mapping")
        else:
            for key in set(thr_doc) - {"kinds", "alphas", "betas"}:
                problems.append(f"thresholds: unknown key {key!r}")
            kinds = thr_doc.get("kinds", list(thr.kinds))
            if not isinstance(kinds, list) or not kinds or not all(
                k in ("r1", "r2", "t") for k in kinds
            ):
                problems.append("thresholds.kinds: expected a subset of [r1, r2, t]")
                kinds = thr.kinds
            alphas = _float_list(thr_doc.get("alphas", list(thr.alphas)),
                                 "thresholds.alphas", problems) or thr.alphas
            betas = _float_list(thr_doc.get("betas", list(thr.betas)),
                                "thresholds.betas", problems) or thr.betas
            thr = ThresholdsConfig(tuple(kinds), tuple(alphas), tuple(betas))

    mc_cfg = None
    mc_doc = doc.get("mc")
    if mc_doc is not None:
        if not isinstance(mc_doc, dict):
            problems.append("mc: expected a mapping")
        else:
            allowed = {"seed", "n_paths", "n_steps", "x0", "x0_b", "radius",
                       "compact", "time_points", "bin_width"}
            for key in set(mc_doc) - allowed:
                problems.append(f"mc: unknown key {key!r}")
            seed = _get_scalar(mc_doc, "seed", "mc", problems, int, required=True)
            n_paths = _get_scalar(mc_doc, "n_paths", "mc", problems, int, 1000)
            n_steps = _get_scalar(mc_doc, "n_steps", "mc", problems, int, 10000)
            x0 = _get_scalar(mc_doc, "x0", "mc", problems, (int, float), 50.0)
            x0_b = _get_scalar(mc_doc, "x0_b", "mc", problems, (int, float), -50.0)
            radius = _get_scalar(mc_doc, "radius", "mc", problems, (int, float), 10.0)
            compact = _float_list(mc_doc.get("compact", [-50.0, 50.0]),
                                  "mc.compact", problems) or (-50.0, 50.0)
            if len(compact) != 2:
                problems.append("mc.compact: expected [lo, hi]")
                compact = (-50.0, 50.0)
            tps = mc_doc.get("time_points", [100, 1000, 10000])
            if not isinstance(tps, list) or not tps or not all(
                isinstance(v, int) and v > 0 for v in tps
            ) or any(b <= a for a, b in zip(tps, tps[1:])):
                problems.append(
                    "mc.time_points: expected strictly increasing positive integers"
                )
                tps = [100, 1000, 10000]
            bw = _get_scalar(mc_doc, "bin_width", "mc", problems, (int, float), 5.0)
            if not (isinstance(bw, (int, float)) and bw > 0):
                problems.append("mc.bin_width: must be > 0")
                bw = 5.0
            for name, v in (("n_paths", n_paths), ("n_steps", n_steps)):
                if not isinstance(v, int) or v < 1:
                    problems.append(f"mc.{name}: must be a positive integer")
            if seed is not None:
                mc_cfg = McConfig(
                    seed, n_paths, n_steps, float(x0), float(x0_b),
                    float(radius), tuple(compact), tuple(tps), float(bw),
                )

    out = OutputConfig()
    out_doc = doc.get("output")
    if out_doc is not None:
        if not isinstance(out_doc, dict):
            problems.append("output: expected a mapping")
        else:
            for key in set(out_doc) - {"directory", "json", "csv"}:
                problems.append(f"output: unknown key {key!r}")
            directory = out_doc.get("directory", ".")
            if not isinstance(directory, str):
                problems.append("output.directory: expected a string")
                directory = "."
            json_out = out_doc.get("json", True)
            csv_out = out_doc.get("csv", True)
            if not isinstance(json_out, bool) or not isinstance(csv_out, bool):
                problems.append("output.json/output.csv: expected booleans")
                json_out, csv_out = True, True
            out = OutputConfig(directory, json_out, csv_out)

    if problems:
        raise ConfigError(problems)

    spec = ChainSpec(alpha, SasJump(gamma, delta))
    return RunConfig(SCHEMA_VERSION, spec, scan, thr, mc_cfg, out)


def save_config(config: RunConfig, path: str):
    """Write the canonical (defaults-filled) form; reloads identically."""
    with open(path, "w") as fh:
        yaml.safe_dump(config.canonical_dict(), fh, sort_keys=True)


def _comment_line(config: RunConfig) -> str:
    return f"# stablike {__version__} config_sha256={config.config_hash()}"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _write_csv(path: str, config: RunConfig, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_comment_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _scan_settings(config: RunConfig) -> ScanSettings:
    lo, hi = config.scan.x_decades
    return ScanSettings(
        x_grid=default_x_grid(config.scan.x_per_side, 10.0 ** lo, 10.0 ** hi),
        delta_grid=config.scan.delta_ladder,
        d_grid=config.scan.d_ladder,
        betas=config.scan.betas,
    )


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output.directory, exist_ok=True)
    return os.path.join(config.output.directory, name)


def _run_thresholds(config: RunConfig) -> int:
    rows = []
    for kind in config.thresholds.kinds:
        for a in config.thresholds.alphas:
            if kind == "r1":
                rows.append(("r1", a, None, r1(a), 0.0))
            else:
                for b in config.thresholds.betas:
                    tv = r2(a, b) if kind == "r2" else t_threshold(a, b)
                    rows.append((kind, a, b, tv.value, tv.est_abs_error))
    _write_csv(
        _out_path(config, "thresholds.csv"), config,
        ("kind", "alpha", "beta", "value", "est_abs_error"), rows,
    )
    print(f"wrote {len(rows)} threshold rows")
    return 0


def _run_classify(config: RunConfig) -> int:
    result = classify(config.chain, _scan_settings(config))
    print(result.summary_line())
    if config.output.json_out:
        with open(_out_path(config, "classification.json"), "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 2 if result.verdict == "Inconclusive" else 0


def _run_drift_scan(config: RunConfig) -> int:
    settings = _scan_settings(config)
    beta = None
    if config.scan.condition in _NEEDS_BETA:
        beta = settings.betas[0] if settings.betas else 0.5
    report = tail_scan(
        config.chain,
        x_grid=settings.x_grid,
        delta_grid=settings.delta_grid,
        d_grid=settings.d_grid,
        condition_id=config.scan.condition,
        beta=beta,
    )
    rows = [
        (p.x, p.delta, p.d, p.raw_integral, p.normalized_lhs, p.quadrature_error)
        for p in report.points
    ]
    _write_csv(
        _out_path(config, "drift_scan.csv"), config,
        ("x", "delta", "d", "raw_integral", "normalized_lhs", "quadrature_error"),
        rows,
    )
    print(
        f"{report.condition_id}: tail_sup={report.tail_sup_estimate!r} "
        f"tail_inf={report.tail_inf_estimate!r} threshold={report.threshold!r} "
        f"margin={report.margin!r} scan_error={report.scan_error!r} "
        f"trend={report.trend_flag}"
    )
    return 0


def _run_simulate(config: RunConfig) -> int:
    if config.mc is None:
        raise ConfigError(["simulate needs an mc section (for seed and x0)"])
    traj = simulate(config.chain, config.mc.x0, config.mc.n_steps, config.mc.seed)
    rows = [(i + 1, float(s)) for i, s in enumerate(traj.states)]
    _write_csv(
        _out_path(config, "trajectory.csv"), config, ("step", "state"), rows
    )
    print(f"simulated {config.mc.n_steps} steps from x0={config.mc.x0!r}")
    return 0


def _run_mc_diagnose(config: RunConfig) -> int:
    if config.mc is None:
        raise ConfigError(["mc-diagnose needs an mc section"])
    mc = config.mc
    # both intervals are checked before the one sweep draws anything
    intervals = [_ball(mc.radius), _compact(mc.compact, mc.n_steps)]
    rs, occ = interval_stats(
        config.chain, mc.x0, intervals, mc.n_steps, mc.n_paths, mc.seed
    )
    tv = tv_convergence(
        config.chain, mc.x0, mc.x0_b, mc.time_points, mc.n_paths,
        mc.bin_width, mc.seed,
    )
    _write_csv(
        _out_path(config, "mc_stats.csv"), config,
        ("statistic", "value"),
        [
            ("return_fraction", rs.return_fraction),
            ("mean_return_time", rs.mean_return_time),
            ("ball_occupation_fraction", rs.occupation_fraction),
            ("compact_occupation_fraction", occ.occupation_fraction),
            ("compact_return_fraction", occ.return_fraction),
            ("n_paths", float(mc.n_paths)),
            ("n_steps", float(mc.n_steps)),
        ],
    )
    _write_csv(
        _out_path(config, "tv_convergence.csv"), config,
        ("time_point", "tv"),
        list(zip(tv.time_points, tv.tv_values)),
    )
    print(
        f"return_fraction={rs.return_fraction!r} "
        f"tv_final={tv.tv_values[-1]!r}"
    )
    return 0


def run(subcommand: str, config: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if subcommand == "thresholds":
        return _run_thresholds(config)
    if subcommand == "classify":
        return _run_classify(config)
    if subcommand == "drift-scan":
        return _run_drift_scan(config)
    if subcommand == "simulate":
        return _run_simulate(config)
    if subcommand == "mc-diagnose":
        return _run_mc_diagnose(config)
    raise ConfigError([f"unknown subcommand {subcommand!r}"])


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(
        prog="stablike",
        description="Recurrence/transience/ergodicity diagnostics for "
                    "stable-like Markov chains.",
    )
    parser.add_argument(
        "subcommand",
        choices=("thresholds", "classify", "drift-scan", "simulate", "mc-diagnose"),
    )
    parser.add_argument("--config", required=True, help="path to a YAML config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        return run(args.subcommand, config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except StablikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
