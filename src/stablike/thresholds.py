"""Threshold constants for the drift-criterion classification.

Three families of critical constants, all functions of the jump
stability index alpha (and an auxiliary exponent beta):

  r1(alpha)        closed form -pi*cot(pi*alpha/2)/alpha, root at alpha=1
  r2(alpha, beta)  series + two 2F1 values at z = -1 and z = +1,
                   root at alpha = 1 + beta
  t(alpha, beta)   series + two 2F1 values at z = +1 and z = -1,
                   root at alpha = 1 - beta

The infinite series sum_{n>=1} binom(s, 2n) * 2/(2n - alpha) (with
s = +beta for r2 and s = -beta for t) is evaluated through its exact
integral representation

  int_0^1 u^(-alpha-1) * [(1+u)^s + (1-u)^s - 2] du

because direct term-by-term summation cannot reach the 1e-8 error
contract within any reasonable cap when s < 0 (terms decay like
n^(-1-s)/n). The u^2 and u^4 Taylor terms of the bracket are pulled
out and integrated analytically so the remaining integrand stays
regular even as alpha approaches 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import DomainError, QuadratureError
from .specfun import hyp2f1, real_binom


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


def _bracket_series(s: float, u: float) -> float:
    # (1+u)^s + (1-u)^s - 2 - g2 u^2 - g4 u^4 via the even binomial series;
    # used for small u where the direct form loses all its digits
    total = 0.0
    p = u ** 6
    u2 = u * u
    for n in range(3, 60):
        term = 2.0 * real_binom(s, 2 * n) * p
        total += term
        if abs(term) < 1e-30:
            break
        p *= u2
    return total


def _quad(f, a: float, b: float, **options) -> tuple[float, float]:
    # a QUADPACK message means the error estimate may be low: refuse the value
    out = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=400,
                         full_output=1, **options)
    if len(out) > 3:
        raise QuadratureError(f"threshold series integral on [{a}, {b}]: {out[3]}",
                              partial=out[0], est_abs_error=out[1])
    return out[0], out[1]


def _even_series_integral(alpha: float, s: float) -> tuple[float, float]:
    """sum_{n>=1} binom(s,2n)*2/(2n-alpha) by exact integral transform.

    On [0.25, 1] the (1-u)^s term is integrated apart, with (1-u)^s as
    QUADPACK's algebraic weight, because its endpoint singularity at
    u = 1 defeats plain adaptive quadrature.
    """
    g2 = 2.0 * real_binom(s, 2)
    g4 = 2.0 * real_binom(s, 4)

    def integrand(u: float) -> float:
        if u < 0.25:
            rem = _bracket_series(s, u)
        else:  # the whole bracket but its (1-u)^s term
            rem = math.expm1(s * math.log1p(u)) - 1.0 - g2 * u * u - g4 * u ** 4
        return u ** (-alpha - 1.0) * rem

    val, err = _quad(integrand, 0.0, 1.0, points=[0.25])
    edge, edge_err = _quad(lambda u: u ** (-alpha - 1.0), 0.25, 1.0,
                           weight="alg", wvar=(0.0, s))
    val += edge + g2 / (2.0 - alpha) + g4 / (4.0 - alpha)
    return val, err + edge_err + 1e-15 * abs(val)


def _r(alpha: float, s: float) -> tuple[float, float]:
    """R = -S + 2/alpha - [F(-1) + F(1)]/(alpha - s), F(z) = 2F1(-s, alpha-s; 1+alpha-s; z),
    S the even series, with its error: r2(alpha, beta) = R(alpha, beta), t = -R(alpha, -beta)."""
    if s == 1.0:
        series_val, series_err = 0.0, 0.0  # binom(1, 2n) = 0 for n >= 1
    else:
        series_val, series_err = _even_series_integral(alpha, s)
    h_minus = hyp2f1(-s, alpha - s, 1.0 + alpha - s, -1.0)
    h_plus = hyp2f1(-s, alpha - s, 1.0 + alpha - s, 1.0)
    denom = alpha - s
    value = -series_val + 2.0 / alpha - (h_minus.value + h_plus.value) / denom
    err = series_err + (h_minus.est_abs_error + h_plus.est_abs_error) / abs(denom)
    return value, err


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
