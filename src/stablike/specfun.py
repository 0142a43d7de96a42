"""Real-argument special functions: Gamma, digamma, binomial, Gauss 2F1.

Self-contained evaluators for the special functions of the stable
densities and the drift kernels. Everything here is pure and reentrant.
The hypergeometric evaluator returns a value together with an
estimated absolute error so downstream margins can be honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

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
_HYP_TOL = 1e-9


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


def _euler_integral(a: float, b: float, c: float, z: float) -> SpecFunResult:
    # Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1)(1-t)^(c-b-1)(1-tz)^(-a) dt
    # caller guarantees c > b > 0. Both endpoint powers go into QUADPACK's
    # algebraic weight (QAWS), so the integrand left over is smooth; plain
    # adaptive quadrature on the bare singularities loses up to ~2e-9.
    pref = gamma(c) / (gamma(b) * gamma(c - b))
    if z == 1.0:
        # (1-tz)^(-a) merges into the (1-t) power and the integrand is 1
        wvar = (b - 1.0, c - b - a - 1.0)

        def f(t):
            return 1.0
    else:
        wvar = (b - 1.0, c - b - 1.0)

        def f(t):
            return (1.0 - t * z) ** (-a)

    out = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=wvar, epsabs=1e-14,
                         epsrel=1e-13, limit=300, full_output=1)
    val, err = pref * out[0], abs(pref) * out[1]
    if len(out) > 3:
        # QUADPACK flagged the result (ier > 0): its error estimate may be
        # low, so the value cannot carry an honest bound
        raise QuadratureError(
            f"hyp2f1 Euler integral (a={a}, b={b}, c={c}, z={z}): {out[3]}",
            partial=val,
            est_abs_error=err,
        )
    # QUADPACK's estimate can sit a few ulps under the true error once the
    # rule has converged; a relative floor of 4e-15 covers that
    return SpecFunResult(val, err + 4e-15 * abs(val))


def hyp2f1(a: float, b: float, c: float, z: float) -> SpecFunResult:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z in [-1, 1].

    Strategy: terminating polynomial when a or b is a nonpositive integer;
    Gauss summation at z = 1 when c > a and c > b; power series for
    |z| <= 1/2; Pfaff transform into the series region for z < -1/2;
    Euler integral for z > 1/2 when c > b > 0 (or c > a > 0, by argument
    symmetry). Any other z > 1/2 has no route and raises a domain error.
    Raises a convergence error when the estimated error exceeds 1e-9,
    and a quadrature error when QUADPACK flags the Euler integral.
    """
    if _is_nonpos_int(c):
        raise DomainError(f"hyp2f1 undefined for nonpositive integer c = {c}")
    if not -1.0 <= z <= 1.0:
        raise DomainError(f"hyp2f1 implemented for z in [-1, 1], got {z}")
    if z == 1.0 and c - a - b <= 0.0 and not (_is_nonpos_int(a) or _is_nonpos_int(b)):
        raise DomainError(
            f"hyp2f1 divergent at z = 1 when c - a - b <= 0 (got {c - a - b})"
        )

    if _is_nonpos_int(a) or _is_nonpos_int(b):
        # finite polynomial; exact up to roundoff
        if _is_nonpos_int(b) and not _is_nonpos_int(a):
            a, b = b, a
        n_terms = int(-a)
        term = 1.0
        total = 1.0
        scale = 1.0
        for n in range(n_terms):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            total += term
            scale = max(scale, abs(total))
        return SpecFunResult(total, 1e-16 * scale * (n_terms + 1))

    if z == 1.0 and c - a > 0.0 and c - b > 0.0:
        # Gauss summation at the right endpoint; the quadrature route
        # degrades badly when c - a - b is tiny, this stays exact
        val = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        return SpecFunResult(val, 4e-15 * abs(val))

    if abs(z) <= 0.5:
        res = _series(a, b, c, z)
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

    if res.est_abs_error > _HYP_TOL:
        raise ConvergenceError(
            f"hyp2f1 estimated error {res.est_abs_error:.2e} above tolerance "
            f"(a={a}, b={b}, c={c}, z={z})",
            partial=res.value,
            est_abs_error=res.est_abs_error,
        )
    return res
