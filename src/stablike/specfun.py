"""Real-argument special functions: Gamma, digamma, binomial, Gauss 2F1.

Evaluators for the special functions of the stable densities and the
drift kernels, on the standard library and numpy. The tanh-sinh levels
here (Takahasi & Mori 1974) are the package's one quadrature rule: they
sum hyp2f1's Euler integral and, in `stable`, Zolotarev's density
integral. Everything here is pure and reentrant. The hypergeometric
evaluator returns a value together with an estimated absolute error so
downstream margins can be honest; terminating cases run the power
series, and every route passes one finiteness-and-tolerance check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, QuadratureError

# Bernoulli numbers B_2..B_14 for the digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_SERIES_CAP = 10_000
_HYP_TOL = 1e-9  # of max(1, |value|): large values are judged relative
_TS_REACH = 3.5  # tanh-sinh abscissa cut: nodes past it weigh under 1e-20
_EULER_LEVELS = 9  # step halvings before the Euler integral must converge
_EULER_RTOL = 1e-15
# rounding of the Gamma prefactor and the node powers, relative to the value;
# the worst seen against 40-digit mpmath over 2000 random points was 6.7 eps
_EULER_ROUNDING = 16 * 2.220446049250313e-16


@dataclass(frozen=True)
class SpecFunResult:
    """Value plus an estimated absolute truncation/quadrature error."""

    value: float
    est_abs_error: float


def gamma(z: float) -> float:
    """Gamma function for z > 0; inf above 171.6, where doubles overflow."""
    if not z > 0.0:
        raise DomainError(f"gamma requires z > 0, got {z}")
    if z > 171.6:
        return math.inf
    return math.gamma(z)


def digamma(z: float) -> float:
    """Digamma for z > 0: recurrence shift to z >= 10, then asymptotics."""
    if not z > 0.0:
        raise DomainError(f"digamma requires z > 0, got {z}")
    acc = 0.0
    w = z
    while w < 10.0:
        acc -= 1.0 / w
        w += 1.0
    inv2 = 1.0 / (w * w)
    tail = 0.0
    p = inv2
    for m, b2m in enumerate(_BERNOULLI, start=1):
        tail += b2m / (2 * m) * p
        p *= inv2
    return acc + math.log(w) - 0.5 / w - tail


def real_binom(r: float, n: int) -> float:
    """Generalized binomial coefficient C(r, n) by the exact product."""
    if n != int(n) or n < 0:
        raise DomainError(f"real_binom requires integer n >= 0, got {n}")
    out = 1.0
    for k in range(1, int(n) + 1):
        out *= (r - k + 1) / k
    return out


def _is_nonpos_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _series(a: float, b: float, c: float, z: float) -> SpecFunResult:
    # power series sum_n (a)_n (b)_n / (c)_n z^n / n! with term recurrence
    term = 1.0
    total = 1.0
    scale = 1.0
    for n in range(_SERIES_CAP):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        scale = max(scale, abs(total))
        if abs(term) < 1e-16 * (1.0 + abs(total)) and n > 3:
            q = abs(z)
            tail = abs(term) * q / (1.0 - q) if q < 1.0 else abs(term) * (n + 2)
            return SpecFunResult(total, tail + 1e-16 * scale * (n + 2))
    raise ConvergenceError(
        f"hyp2f1 series did not converge within {_SERIES_CAP} terms "
        f"(a={a}, b={b}, c={c}, z={z})",
        partial=total,
        est_abs_error=abs(term) * _SERIES_CAP,
    )


@functools.lru_cache(maxsize=None)
def _ts_level(level: int):
    """Abscissae t >= 0 that tanh-sinh level `level` adds, as (q, w).

    The step is 2^-level, and later levels add only its odd multiples. A t
    names the two nodes q*L from either end of a length-L interval, with
    q = (1 - tanh(pi/2 sinh t))/2 exact near the ends, each weighing w*L.
    """
    h = 0.5 ** level
    t = h * np.arange(0 if level == 0 else 1, int(_TS_REACH / h) + 1, 1 if level == 0 else 2)
    e = np.exp(-math.pi * np.sinh(t))
    w = h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    return e / (1.0 + e), np.where(t == 0.0, 0.5 * w, w)  # t = 0 is one node, named twice


def _euler_integral(a: float, b: float, c: float, z: float) -> SpecFunResult:
    # Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1)(1-t)^(c-b-1)(1-tz)^(-a) dt
    # for c > b > 0. t = s^(1/b) on [0, 1/2] and 1 - t = r^(1/(c-b)) on [1/2, 1]
    # absorb both endpoint powers, so the tanh-sinh levels sum bounded
    # integrands over s in [0, 2^-b] and r in [0, 2^-(c-b)]. Near z = 1 and
    # for a > 0, (1 - tz)^(-a) = (z(rho + 1 - t))^(-a) peaks on the scale
    # rho = (1 - z)/z in 1 - t: r then stops at rho^(c-b), and 1 - t in
    # [rho, 1/2] is summed in log(1 - t), over which the integrand is smooth
    d = c - b
    rho = min(0.5, (1.0 - z) / z) if a > 0.0 else 0.5
    ls, lr, lv = 0.5 ** b, rho ** d, math.log(0.5 / rho)
    # the nodes nearest t = 0 and t = 1 sit q_end*L inside their ends; the mass
    # they miss is about the bounded integrand's end value times q_end*L
    q_end = float(_ts_level(1)[0][-1])
    cut = q_end * (ls / b + lr / d * (1.0 - z) ** -a
                   + lv * lr * (1.0 - rho) ** (b - 1.0) * (2.0 * (1.0 - z)) ** -a)
    pref = gamma(c) / (gamma(b) * gamma(d))
    total = 0.0
    for level in range(_EULER_LEVELS + 1):
        q, w = _ts_level(level)
        ends = np.stack([q, 1.0 - q])  # nodes from the t = 0 or 1 end, then from t = 1/2
        t = (ls * ends) ** (1.0 / b)
        u = (lr * ends) ** (1.0 / d)  # 1 - t in [0, rho]
        f = (ls / b * (1.0 - t) ** (d - 1.0) * (1.0 - t * z) ** -a
             + lr / d * (1.0 - u) ** (b - 1.0) * (1.0 - z + u * z) ** -a)
        if lv:  # 1 - t = rho e^v, v in [0, lv]
            u = rho * np.exp(lv * ends)
            f += lv * u ** d * (1.0 - u) ** (b - 1.0) * (1.0 - z + u * z) ** -a
        new = float(f.sum(axis=0) @ w) + 0.5 * total
        diff, total = abs(new - total), new
        err = pref * (diff + cut + _EULER_ROUNDING * total)
        if level and diff <= _EULER_RTOL * total:
            return SpecFunResult(pref * total, err)
    raise QuadratureError(
        f"hyp2f1 Euler integral (a={a}, b={b}, c={c}, z={z}): no convergence in "
        f"{_EULER_LEVELS} tanh-sinh levels",
        partial=pref * total,
        est_abs_error=err,
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> SpecFunResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z in [-1, 1].

    Strategy: power series when a or b is a nonpositive integer (any z;
    the terms end at an exact zero) or |z| <= 1/2; Gauss summation at
    z = 1 when c > a and c > b; Pfaff transform into the series region
    for z < -1/2; Euler integral for z > 1/2 when c > b > 0 (or
    c > a > 0, by argument symmetry). Any other z > 1/2 has no route and
    raises a domain error. Every route's value then passes one check: a
    convergence error is raised when the value is not finite (as when the
    Gauss sum's Gammas overflow) or its estimated error exceeds 1e-9,
    absolute up to |value| = 1 and relative to |value| above it. A
    quadrature error is raised when the tanh-sinh levels of the Euler
    integral do not converge.
    """
    if _is_nonpos_int(c):
        raise DomainError(f"hyp2f1 undefined for nonpositive integer c = {c}")
    if not -1.0 <= z <= 1.0:
        raise DomainError(f"hyp2f1 implemented for z in [-1, 1], got {z}")
    if z == 1.0 and c - a - b <= 0.0 and not (_is_nonpos_int(a) or _is_nonpos_int(b)):
        raise DomainError(
            f"hyp2f1 divergent at z = 1 when c - a - b <= 0 (got {c - a - b})"
        )

    if _is_nonpos_int(a) or _is_nonpos_int(b) or abs(z) <= 0.5:
        # a terminating series ends at its exact zero term, or earlier with its tail
        res = _series(a, b, c, z)
    elif z == 1.0 and c - a > 0.0 and c - b > 0.0:
        # Gauss summation at the right endpoint, exact where the Euler route
        # degrades (tiny c - a - b); the ratio is positive, so 0 means overflow
        val = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        res = SpecFunResult(val, 4e-15 * val if val else math.inf)
    elif z < 0.0:
        # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
        # and z/(z-1) lands in (0, 1/2] for z in [-1, -1/2); this beats
        # the Euler integral by several digits at the z = -1 endpoint
        inner = _series(a, c - b, c, z / (z - 1.0))
        fac = (1.0 - z) ** (-a)
        res = SpecFunResult(fac * inner.value, abs(fac) * inner.est_abs_error)
    elif c > b > 0.0:
        res = _euler_integral(a, b, c, z)
    elif c > a > 0.0:
        res = _euler_integral(b, a, c, z)
    else:
        raise DomainError(
            f"hyp2f1 needs c > b > 0 or c > a > 0 for z in (1/2, 1] "
            f"(a={a}, b={b}, c={c}, z={z})"
        )

    finite = math.isfinite(res.value)
    if finite and res.est_abs_error <= _HYP_TOL * max(1.0, abs(res.value)):
        return res
    why = (f"estimated error {res.est_abs_error:.2e} above tolerance" if finite
           else f"value {res.value} is not finite")
    raise ConvergenceError(f"hyp2f1 {why} (a={a}, b={b}, c={c}, z={z})",
                           partial=res.value, est_abs_error=res.est_abs_error)
