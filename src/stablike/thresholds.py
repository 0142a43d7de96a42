"""Threshold constants for the drift-criterion classification.

Three families of critical constants, all functions of the jump
stability index alpha (and an auxiliary exponent beta):

  r1(alpha)        -pi*cot(pi*alpha/2)/alpha, root at alpha = 1
  r2(alpha, beta)  R(alpha, beta), root at alpha = 1 + beta
  t(alpha, beta)   -R(alpha, -beta), root at alpha = 1 - beta

Both r2 and t are values of one function,

  R(alpha, s) = -PV int (|1+y|^s - 1) |y|^(-1-alpha) dy,

the fractional Laplacian of |x|^s at x = 1, which has a closed form in
Gamma functions (B. Dyda, "Fractional calculus for power functions and
eigenvalues of the fractional Laplacian", Fract. Calc. Appl. Anal. 15,
2012):

  R(alpha, s) = sqrt(pi) |Gamma(-alpha/2)| Gamma((alpha-s)/2) Gamma((1+s)/2)
                / [Gamma((1+alpha)/2) Gamma(-s/2) Gamma((1-alpha+s)/2)].

Every Gamma is taken at a positive argument, through |Gamma(-alpha/2)| =
pi / (sin(pi*alpha/2) Gamma(1+alpha/2)) and, for z < 1, 1/Gamma(z) =
sin(pi*z) Gamma(1-z)/pi, which is exactly 0 on the lines alpha = 1 +- beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
# hyp2f1 is unused here; perfbench's tracer wraps it by name
from .specfun import hyp2f1


@dataclass(frozen=True)
class ThresholdValue:
    kind: str  # "R1" | "R2" | "T"
    alpha: float
    beta: float | None
    value: float
    est_abs_error: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")


def r1(alpha: float) -> float:
    """Critical constant -pi*cot(pi*alpha/2)/alpha; exactly 0 at alpha=1."""
    _check_alpha(alpha)
    if alpha == 1.0:
        return 0.0
    return -math.pi / (math.tan(math.pi * alpha / 2.0) * alpha)


def _r(alpha: float, s: float) -> tuple[float, float]:
    """R(alpha, s) = rest * sin(pi*z), z = (1 - alpha + s)/2, with an error that adds to a
    relative term one for the rounding of sin(pi*z), which vanishes on the critical line."""
    g = math.gamma
    z = ((1.0 - alpha) + s) / 2.0  # exact near the critical line for alpha >= 1/2
    # sin(pi*alpha/2) with 2 - alpha exact, so that it keeps its digits near alpha = 2
    sin_half = math.sin(math.pi * (2.0 - alpha if alpha >= 1.0 else alpha) / 2.0)
    rest = (g((alpha - s) / 2.0) * g((1.0 + s) / 2.0) * math.sin(-math.pi * s / 2.0)
            * g(1.0 + s / 2.0) * g(1.0 - z)
            / (math.sqrt(math.pi) * sin_half * g(1.0 + alpha / 2.0) * g((1.0 + alpha) / 2.0)))
    value = rest * math.sin(math.pi * z)
    return value, 2e-14 * abs(value) + 1e-15 * abs(rest)


def r2(alpha: float, beta: float) -> ThresholdValue:
    """Recurrence-side threshold; strictly increasing in alpha, root at 1+beta."""
    _check_alpha(alpha)
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"r2 requires beta in (0, 1], got {beta}")
    if not beta < alpha:
        raise DomainError(f"r2 requires beta < alpha, got beta={beta}, alpha={alpha}")
    return ThresholdValue("R2", alpha, beta, *_r(alpha, beta))


def t(alpha: float, beta: float) -> ThresholdValue:
    """Transience-side threshold; strictly increasing in alpha, root at 1-beta."""
    _check_alpha(alpha)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"t requires beta in (0, 1), got {beta}")
    value, err = _r(alpha, -beta)
    return ThresholdValue("T", alpha, beta, -value, err)
