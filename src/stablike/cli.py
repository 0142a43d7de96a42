"""Command-line front end.

One canonical YAML config format, versioned by schema_version, drives
the subcommands of SUBCOMMANDS; `stablike --help` lists each one with
the runner's summary of what it writes.

The config has one section per dataclass: ChainConfig for chain and
SECTIONS for scan, thresholds, mc and output. Each field is one YAML
key: it declares its default and the function that parses and checks
its value. A missing key takes the default, and a missing section takes
every default, except mc, which stays absent because mc.seed has none,
and chain, whose alpha is required. ProfileFn and ChainSpec own the
model's rules: what they reject is a config problem. output.json gates
the JSON artifact and output.csv every CSV artifact.

Every output file starts with a comment line carrying the tool version
and a hash of the canonical config, so results are traceable to the
exact inputs. Floats are written in shortest round-trip form. Exit
codes: 0 success with a decisive result, 2 for an Inconclusive
classification, 1 for any failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass

import yaml

from . import __version__
from .chain import ChainSpec, ProfileFn, SasJump, simulate
from .classify import BETA_DOMAINS, ScanSettings, _beta_ladders, classify
from .drift import (CONDITIONS, DEFAULT_DELTA_GRID, decreasing, default_x_grid,
                    spans_three_decades, tail_scan)
from .errors import ConfigError, DomainError, StablikeError
# return_stats, occupation and tv_convergence are unused here; perfbench's tracer wraps
# them by name
from .mc import MIN_BIN_WIDTH, _ball, _compact, diagnose, occupation, return_stats, tv_convergence
from .thresholds import r1, r2, t as t_threshold

SCHEMA_VERSION = 1


def _key(default, parse):
    """A config field: its default (MISSING if required) and its parser.

    The parser takes the YAML value and returns the field value, or
    raises ValueError with the problem text. A YAML list is stored as a
    tuple.
    """
    return dataclasses.field(default=default, metadata={"parse": parse})


def _same(v):
    return v


def _int(v):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"wrong type {type(v).__name__}")
    return v


def _float(v):
    return v if isinstance(v, float) else float(_int(v))


def _floats(v):
    if not isinstance(v, list) or not v or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        raise ValueError("expected a non-empty list of numbers")
    return tuple(float(x) for x in v)


def _optional(parse):
    return lambda v: None if v is None else parse(v)


def _checked(parse, ok, problem):
    """parse, then reject a value that fails ok; problem.format(value) says why."""
    def checked(v):
        v = parse(v)
        if not ok(v):
            raise ValueError(problem.format(v))
        return v

    return checked


_positive_int = _checked(_int, lambda v: v >= 1, "must be a positive integer")
_interval = _checked(
    _floats, lambda v: len(v) == 2 and v[0] < v[1], "expected [lo, hi] with lo < hi")
_bool = _checked(_same, lambda v: isinstance(v, bool), "expected a boolean")
_finite = _checked(_float, math.isfinite, "must be finite")
_betas = _checked(_floats, lambda v: all(0.0 < b <= 1.0 for b in v), "values must lie in (0, 1]")
_DECADES = (sys.float_info.min_10_exp, sys.float_info.max_10_exp)  # 10**d is a normal float
_PROFILE_PARTS = {"kind": _same, "values": _floats, "period": _float,
                  "breakpoints": lambda v: () if v == [] else _floats(v)}


def _profile(doc):
    """A chain profile from its YAML mapping; ProfileFn checks the kind's shape."""
    if not isinstance(doc, dict):
        raise ValueError("expected a mapping with kind/values")
    parts = {}
    for key, v in doc.items():
        if key not in _PROFILE_PARTS:
            raise ValueError(f"unknown key {key!r}")
        try:
            parts[key] = _PROFILE_PARTS[key](v)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return ProfileFn(parts.pop("kind", None), **parts)  # its DomainError is a ValueError


@dataclass(frozen=True)
class ChainConfig:
    alpha: ProfileFn = _key(MISSING, _profile)
    gamma: ProfileFn = _key(ProfileFn.constant(1.0), _profile)
    delta: ProfileFn = _key(ProfileFn.constant(0.0), _profile)


@dataclass(frozen=True)
class ScanConfig:
    # x_decades and both ladders obey tail_scan's grid rules, checked here to name the key
    x_decades: tuple = _key((2.0, 5.0), _checked(_checked(
        _interval, lambda v: _DECADES[0] <= v[0] and v[1] <= _DECADES[1],
        f"bounds must lie in [{_DECADES[0]}, {_DECADES[1]}]"),
        lambda v: spans_three_decades((10.0 ** v[0], 10.0 ** v[1])),
        "must span at least 3 decades"))
    x_per_side: int = _key(13, _checked(_int, lambda v: v >= 2, "must be an integer >= 2"))
    delta_ladder: tuple = _key(DEFAULT_DELTA_GRID, _checked(_checked(
        _floats, lambda v: decreasing(v) and all(0.0 < d < 1.0 for d in v),
        "expected strictly decreasing values in (0, 1)"),
        lambda v: len(v) >= 2, "expected at least two levels"))
    d_ladder: tuple | None = _key(None, _optional(_checked(
        _floats, decreasing, "expected strictly decreasing values")))
    betas: tuple | None = _key(None, _optional(_betas))
    condition: str = _key("mom_rec", _checked(
        _same, lambda v: isinstance(v, str) and v in CONDITIONS,
        f"{{!r}} not one of {tuple(CONDITIONS)}"))


@dataclass(frozen=True)
class ThresholdsConfig:
    kinds: tuple = _key(("r1", "r2", "t"), _checked(
        _same, lambda v: isinstance(v, list) and v and all(k in ("r1", "r2", "t") for k in v),
        "expected a subset of [r1, r2, t]"))
    alphas: tuple = _key((0.5, 1.0, 1.5), _checked(
        _floats, lambda v: all(0.0 < a < 2.0 for a in v), "values must lie in (0, 2)"))
    betas: tuple = _key((0.5,), _betas)


@dataclass(frozen=True)
class McConfig:
    seed: int = _key(MISSING, _int)
    n_paths: int = _key(1000, _positive_int)
    n_steps: int = _key(10000, _positive_int)
    x0: float = _key(50.0, _finite)
    x0_b: float = _key(-50.0, _finite)
    radius: float = _key(10.0, _checked(_float, lambda v: v > 0, "must be > 0"))  # inf allowed
    compact: tuple = _key((-50.0, 50.0), _interval)
    time_points: tuple = _key((100, 1000, 10000), _checked(
        lambda v: [_int(t) for t in v] if isinstance(v, list) else v,
        lambda v: isinstance(v, list) and all(t > 0 for t in v) and decreasing(v[::-1]),
        "expected strictly increasing positive integers"))
    bin_width: float = _key(5.0, _checked(
        _checked(_finite, lambda v: v > 0, "must be > 0"), lambda v: v >= MIN_BIN_WIDTH,
        f"must be >= {MIN_BIN_WIDTH:g} (at most 10^6 bins)"))


@dataclass(frozen=True)
class OutputConfig:
    directory: str = _key(".", _checked(
        _same, lambda v: isinstance(v, str), "expected a string"))
    json: bool = _key(True, _bool)
    csv: bool = _key(True, _bool)


SECTIONS = {"scan": ScanConfig, "thresholds": ThresholdsConfig, "mc": McConfig,
            "output": OutputConfig}


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
        }
        for name in SECTIONS:
            section = getattr(self, name)
            if section is not None:
                doc[name] = {key: list(v) if isinstance(v, tuple) else v
                             for key, v in dataclasses.asdict(section).items()}
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


def _parse_section(doc, cls, where: str, problems: list):
    """One config section from its YAML mapping; appends every problem.

    An absent section takes the defaults, or is None if a field has no
    default. Returns None when the section has a problem.
    """
    fields = dataclasses.fields(cls)
    if doc is None:
        return None if any(f.default is MISSING for f in fields) else cls()
    if not isinstance(doc, dict):
        problems.append(f"{where}: expected a mapping")
        return None
    names = {f.name for f in fields}
    problems.extend(f"{where}: unknown key {key!r}" for key in doc if key not in names)
    found = len(problems)
    values = {}
    for f in fields:
        if f.name not in doc:
            if f.default is MISSING:
                problems.append(f"{where}.{f.name}: required field missing")
            continue
        try:
            v = f.metadata["parse"](doc[f.name])
        except (ValueError, OverflowError) as exc:  # an int too large for a float
            problems.append(f"{where}.{f.name}: {exc}")
        else:
            values[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**values) if len(problems) == found else None


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
    for key in set(doc) - {"schema_version", "chain", *SECTIONS}:
        problems.append(f"unknown top-level section {key!r}")

    sv = doc.get("schema_version")
    if sv != SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {SCHEMA_VERSION}, got {sv!r}"
        )

    chain = _parse_section(doc.get("chain") or {}, ChainConfig, "chain", problems)
    if chain is not None:
        try:
            spec = ChainSpec(chain.alpha, SasJump(chain.gamma, chain.delta))
        except DomainError as exc:
            problems.append(f"chain: {exc}")

    sections = {name: _parse_section(doc.get(name), cls, name, problems)
                for name, cls in SECTIONS.items()}
    if problems:
        raise ConfigError(problems)
    return RunConfig(SCHEMA_VERSION, spec, **sections)


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


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output.directory, exist_ok=True)
    return os.path.join(config.output.directory, name)


def _write_csv(config: RunConfig, name: str, header, rows) -> bool:
    """Write one CSV artifact unless output.csv is off; True if written."""
    if not config.output.csv:
        return False
    with open(_out_path(config, name), "w", newline="") as fh:
        fh.write(_comment_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return True


def _scan_settings(config: RunConfig) -> ScanSettings:
    lo, hi = config.scan.x_decades
    return ScanSettings(
        x_grid=default_x_grid(config.scan.x_per_side, 10.0 ** lo, 10.0 ** hi),
        delta_grid=config.scan.delta_ladder,
        d_grid=config.scan.d_ladder,
        betas=config.scan.betas,
    )


def _run_thresholds(config: RunConfig) -> int:
    """CSV of the r1/r2/t constants over requested grids."""
    rows = []
    for kind in config.thresholds.kinds:
        for a in config.thresholds.alphas:
            if kind == "r1":
                rows.append(("r1", a, None, r1(a), 0.0))
                continue
            for b in config.thresholds.betas:
                try:  # beta >= alpha for r2, beta = 1 for t
                    tv = r2(a, b) if kind == "r2" else t_threshold(a, b)
                except DomainError as exc:
                    print(f"skipped {kind} at alpha={a!r}, beta={b!r}: {exc}")
                    continue
                rows.append((kind, a, b, tv.value, tv.est_abs_error))
    if _write_csv(config, "thresholds.csv",
                  ("kind", "alpha", "beta", "value", "est_abs_error"), rows):
        print(f"wrote {len(rows)} threshold rows")
    return 0


def _run_classify(config: RunConfig) -> int:
    """JSON verdict report plus a one-line summary on stdout."""
    result = classify(config.chain, _scan_settings(config))
    print(result.summary_line())
    if config.output.json:
        with open(_out_path(config, "classification.json"), "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 2 if result.verdict == "Inconclusive" else 0


def _run_drift_scan(config: RunConfig) -> int:
    """CSV of every (x, delta, d) point of one condition scan."""
    settings = _scan_settings(config)
    cond = CONDITIONS[config.scan.condition]
    beta = None
    if cond.needs_beta:  # the first beta that classify's ladder cut keeps
        betas = settings.betas or (0.5,)
        ladders = _beta_ladders(config.chain, dataclasses.replace(settings, betas=betas))
        if not ladders[cond.conclusion]:
            raise ConfigError([f"scan.betas: no beta of {list(betas)} lies in the domain of "
                               f"{config.scan.condition}'s threshold {BETA_DOMAINS}"])
        beta = ladders[cond.conclusion][0]
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
        config, "drift_scan.csv",
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
    """CSV of a single trajectory."""
    if config.mc is None:
        raise ConfigError(["simulate needs an mc section (for seed and x0)"])
    traj = simulate(config.chain, config.mc.x0, config.mc.n_steps, config.mc.seed)
    rows = [(i + 1, float(s)) for i, s in enumerate(traj.states)]
    _write_csv(config, "trajectory.csv", ("step", "state"), rows)
    print(f"simulated {config.mc.n_steps} steps from x0={config.mc.x0!r}")
    return 0


def _run_mc_diagnose(config: RunConfig) -> int:
    """CSV of return/occupation statistics and the TV proxy."""
    if config.mc is None:
        raise ConfigError(["mc-diagnose needs an mc section"])
    mc = config.mc
    # every check runs before any draw; one sweep from x0 gives the ball and compact-set
    # statistics and TV start a, side by side with start b
    intervals = [_ball(mc.radius), _compact(mc.compact, mc.n_steps)]
    (rs, occ), tv = diagnose(config.chain, mc.x0, mc.x0_b, intervals, mc.n_steps,
                             mc.time_points, mc.n_paths, mc.bin_width, mc.seed)
    _write_csv(
        config, "mc_stats.csv",
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
        config, "tv_convergence.csv",
        ("time_point", "tv"),
        list(zip(tv.time_points, tv.tv_values)),
    )
    print(
        f"return_fraction={rs.return_fraction!r} "
        f"tv_final={tv.tv_values[-1]!r}"
    )
    return 0


SUBCOMMANDS = {
    "thresholds": _run_thresholds,
    "classify": _run_classify,
    "drift-scan": _run_drift_scan,
    "simulate": _run_simulate,
    "mc-diagnose": _run_mc_diagnose,
}


def run(subcommand: str, config: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    return SUBCOMMANDS[subcommand](config)


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
        epilog="subcommands:\n" + "\n".join(
            f"  {name:12} {runner.__doc__}" for name, runner in SUBCOMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
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
