"""Recurrence, transience and ergodicity diagnostics for stable-like chains.

A stable-like chain on the real line jumps from x with a symmetric
alpha-stable step whose index alpha(x), scale gamma(x) and shift
delta(x) depend on the current position through finitely-many-valued
profiles. This package evaluates the drift-criterion integrals that
decide long-run behaviour, compares them against closed-form threshold
constants, and corroborates the verdicts with Monte Carlo diagnostics.
It runs on numpy and the standard library (PyYAML reads the CLI's
configs); one tanh-sinh quadrature rule serves the stable densities and
hyp2f1's Euler integral.
"""

__version__ = "0.1.0"

from .chain import ChainSpec, ProfileFn, SasJump, Trajectory, make_chain, simulate
from .classify import (
    Classification,
    Evidence,
    ScanSettings,
    classify,
    classify_null,
    classify_transient_smallalpha,
    f_ergodic_check,
)
from .drift import (
    DriftKernel,
    DriftPoint,
    TailScanReport,
    normalized_lhs,
    tail_scan,
    truncated_integral,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    QuadratureError,
    StablikeError,
)
from .mc import (
    TrajectoryStats,
    TvEstimate,
    interval_stats,
    invariant_histogram,
    occupation,
    return_stats,
    tv_convergence,
)
from .specfun import SpecFunResult, digamma, gamma, hyp2f1, real_binom
from .stable import DensityGrid, StableParams, sas_density, tail_constant
from .thresholds import ThresholdValue, r1, r2, t

__all__ = [
    "ChainSpec",
    "Classification",
    "ConfigError",
    "ConvergenceError",
    "DensityGrid",
    "DomainError",
    "DriftKernel",
    "DriftPoint",
    "Evidence",
    "ProfileFn",
    "QuadratureError",
    "SasJump",
    "ScanSettings",
    "SpecFunResult",
    "StableParams",
    "StablikeError",
    "TailScanReport",
    "ThresholdValue",
    "Trajectory",
    "TrajectoryStats",
    "TvEstimate",
    "__version__",
    "classify",
    "classify_null",
    "classify_transient_smallalpha",
    "digamma",
    "f_ergodic_check",
    "gamma",
    "hyp2f1",
    "interval_stats",
    "invariant_histogram",
    "make_chain",
    "normalized_lhs",
    "occupation",
    "r1",
    "r2",
    "real_binom",
    "return_stats",
    "sas_density",
    "simulate",
    "t",
    "tail_constant",
    "tail_scan",
    "truncated_integral",
    "tv_convergence",
]
