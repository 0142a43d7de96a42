"""Symmetric alpha-stable distribution support.

Parameterization: S(alpha, gamma, delta) has characteristic function
exp(i*delta*t - (gamma*|t|)^alpha). alpha = 1 is Cauchy(delta, gamma),
alpha = 2 is Normal(delta, 2*gamma^2). Densities come from inverting
the characteristic function,

    f(y) = (1/pi) * int_0^inf exp(-(gamma t)^alpha) cos(t (y-delta)) dt,

reduced to the standard scale z = (y-delta)/gamma. Method selection
(worked out against a Taylor-series arbiter at small z and the power
tail law at large z):

  alpha < 0.7   rotate the contour t -> i*r, which turns the oscillatory
                integral into int_0^inf exp(-r^a cos(pi a/2) - r z)
                * sin(r^a sin(pi a/2)) dr / pi: total phase is bounded by
                ~40*tan(pi a/2) so plain adaptive quadrature converges;
                the bound grows without limit as a -> 1, and from
                a = 0.99 up QUADPACK gives up
  alpha >= 0.7  plain quadrature on [0, T] for z < 0.05 (under a quarter
                period of the cosine), finite-range cosine-weighted
                quadrature (QAWO) on [0, T] otherwise, T = 41.45^(1/a)
                so the discarded envelope tail is below 1e-17
  |z| > 30      power-tail series sum_k (-1)^(k+1) Gamma(k a + 1)/k!
                * sin(k pi a / 2) z^(-k a - 1) / pi, convergent for a < 1
                and asymptotic (min-term truncation) for a > 1; at z = 30
                it agrees with quadrature to ~1e-12 relative. One
                coefficient set per alpha, cut at z = 30, serves both
                sas_density and DensityTable

Sampling is exact through the Chambers-Mallows-Stuck transform of a
uniform angle and a standard exponential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, QuadratureError
from .specfun import gamma as gamma_fn

_TAIL_Z = 30.0
_SMALL_Z = 0.05
_ENVELOPE_CUT = 41.45  # exp(-41.45) ~ 1e-18
_TAIL_RATIO = 1.1  # geometric tail panels of DensityTable.rule
# 3-point Gauss-Legendre nodes (0, +-sqrt(3/5)) and weights on [-1, 1]
_GL_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True)
class StableParams:
    """Index, scale and shift of a symmetric stable law."""

    alpha: float
    gamma_scale: float = 1.0
    delta_shift: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.gamma_scale > 0.0:
            raise DomainError(f"gamma_scale must be > 0, got {self.gamma_scale}")
        if not math.isfinite(self.delta_shift):
            raise DomainError(f"delta_shift must be finite, got {self.delta_shift}")


@dataclass(frozen=True)
class DensityGrid:
    """Density values sampled on a sorted grid of points."""

    points: tuple
    values: tuple
    quadrature_error: float


def tail_constant(params: StableParams) -> float:
    """Coefficient gamma^alpha Gamma(alpha+1) sin(pi alpha/2)/pi of the |y|^(-alpha-1) tail."""
    a, g = params.alpha, params.gamma_scale
    if a == 2.0:
        raise DomainError("no power tail at alpha = 2")
    return g ** a * gamma_fn(a + 1.0) * math.sin(math.pi * a / 2.0) / math.pi


@functools.lru_cache(maxsize=None)
def _tail_coefficients(alpha: float):
    """Power-tail series f(z) = sum_k c_k z^(-k alpha - 1) of the standard density.

    Returns the c_k, highest k first, and the sine-free envelope
    Gamma(K alpha + 1) / (K! pi) of the last kept term k = K. The sum is
    cut where it stops improving at z = 30, the smallest z it serves;
    every later term is smaller still at larger z. It converges for
    alpha < 1 and is asymptotic (min-term truncation) for alpha > 1.
    The stopping tests run on the envelope, because sine zeros at
    rational alpha (every 4th coefficient vanishes at alpha = 1/2) must
    not stop the sum early.
    """
    za = _TAIL_Z ** -alpha
    w = za / _TAIL_Z
    total, prev, coefs, last = 0.0, math.inf, [], 0.0
    k = 1
    while k * alpha + 1.0 < 170.0 and k <= 80:
        env = gamma_fn(k * alpha + 1.0) / gamma_fn(k + 1.0) / math.pi
        if env * w > prev:
            break  # divergence onset: stop at the minimal term
        signed = (-1.0) ** (k + 1) * env * math.sin(k * math.pi * alpha / 2.0)
        coefs.append(signed)
        last = env
        total += signed * w
        prev = env * w
        if prev < 1e-17 * abs(total):
            break
        w *= za
        k += 1
    return tuple(coefs[::-1]), last


def _tail_std(alpha: float, z):
    """Standard density at z > 30 (scalar or array) by Horner's rule in w = z^(-alpha)."""
    w = z ** -alpha
    return np.polyval(_tail_coefficients(alpha)[0], w) * w / z


def _density_quad(alpha: float, z: float, f, upper: float, **options):
    """Integral of f over [0, upper], over pi, with its error estimate.

    A QUADPACK message (ier > 0) raises QuadratureError: its error
    estimate may then be low, so the value carries no honest bound.
    """
    out = integrate.quad(f, 0.0, upper, epsabs=1e-14, epsrel=1e-12, full_output=1,
                         **options)
    val, err = out[0] / math.pi, out[1] / math.pi
    if len(out) > 3:
        raise QuadratureError(
            f"density quadrature at alpha={alpha}, z={z}: {out[3]}",
            partial=val,
            est_abs_error=err,
        )
    return val, err


def _contour_quad(alpha: float, z: float) -> tuple[float, float]:
    # alpha < 0.7: non-oscillatory rotated-contour representation
    th = math.pi * alpha / 2.0
    c, s = math.cos(th), math.sin(th)

    def f(r):
        ra = r ** alpha
        return math.exp(-ra * c - r * z) * math.sin(ra * s)

    return _density_quad(alpha, z, f, np.inf, limit=400)


def _direct_quad(alpha: float, z: float) -> tuple[float, float]:
    # alpha >= 0.7, small z: the cosine barely varies across the envelope
    def f(t):
        return math.exp(-(t ** alpha)) * math.cos(t * z)

    return _density_quad(alpha, z, f, _ENVELOPE_CUT ** (1.0 / alpha), limit=200)


def _qawo_quad(alpha: float, z: float) -> tuple[float, float]:
    # alpha >= 0.7, moderate z: cosine-weighted quadrature on the finite range
    return _density_quad(alpha, z, lambda u: math.exp(-(u ** alpha)),
                         _ENVELOPE_CUT ** (1.0 / alpha), weight="cos", wvar=z,
                         limit=300, maxp1=100)


def _std_density(alpha: float, z: float) -> tuple[float, float]:
    """Standard-scale density at z >= 0 with an absolute error estimate."""
    z = abs(z)
    if alpha == 1.0:
        return 1.0 / (math.pi * (1.0 + z * z)), 0.0
    if alpha == 2.0:
        return math.exp(-z * z / 4.0) / (2.0 * math.sqrt(math.pi)), 0.0
    if z > _TAIL_Z:
        coefs, last = _tail_coefficients(alpha)
        return float(_tail_std(alpha, z)), last * z ** (-len(coefs) * alpha - 1.0)
    if z == 0.0:
        return gamma_fn(1.0 + 1.0 / alpha) / math.pi, 1e-16
    if alpha < 0.7:
        val, err = _contour_quad(alpha, z)
    elif z < _SMALL_Z:
        val, err = _direct_quad(alpha, z)
    else:
        val, err = _qawo_quad(alpha, z)
    # the density is unimodal with mode at 0, so the z = 0 closed form
    # bounds every value; the peak exceeds 1 once alpha < ~0.42
    peak = gamma_fn(1.0 + 1.0 / alpha) / math.pi
    if not math.isfinite(val) or not 0.0 <= val <= peak * (1.0 + 1e-9) or err > 1e-8:
        raise QuadratureError(
            f"density quadrature failed at alpha={alpha}, z={z}",
            partial=val,
            est_abs_error=err,
        )
    return val, err


def sas_density(params: StableParams, y):
    """Density of S(alpha, gamma, delta) at y (scalar or array)."""
    g = params.gamma_scale
    z = (np.asarray(y, dtype=float) - params.delta_shift) / g
    if z.ndim == 0:
        return _std_density(params.alpha, float(z))[0] / g
    flat = [_std_density(params.alpha, float(w))[0] / g for w in z.ravel()]
    return np.array(flat).reshape(z.shape)


def cms_transform(alpha, u, e):
    """Chambers-Mallows-Stuck map of (uniform angle, exponential) to S(alpha,1,0).

    Vectorized over numpy arrays; u in (-pi/2, pi/2), e > 0. The single
    expression covers all alpha in (0, 2]: at alpha = 1 the second factor
    has exponent 0 and the formula collapses to tan(u); at alpha = 2 it
    reduces to 2 sin(u) sqrt(e), which is Normal(0, 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    e = np.asarray(e, dtype=float)
    cu = np.cos(u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = (
            np.sin(alpha * u)
            * cu ** (-1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
        )
    return out


def sas_sample_n(params: StableParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n exact samples, vectorized: n uniform angles, then n exponentials."""
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    e = rng.standard_exponential(n)
    return params.delta_shift + params.gamma_scale * cms_transform(params.alpha, u, e)


class DensityTable:
    """Cubic-spline table of the standard-scale density on z in [0, 30].

    Built once per alpha (the scale and shift reduce to the standard
    grid by affine change of variables) and shared by every drift
    integral at that alpha. Spline error is measured off-knot and kept
    as table_error; beyond the table the power-tail series takes over,
    truncated where it stops improving at z = 30 and summed by Horner's
    rule. Both pieces are plain arrays, so every lookup is vectorised.

    rule() lays a fixed 3-point Gauss-Legendre rule on every spline
    segment and on geometric tail panels (ratio 1.1, nodes in log z),
    with the density folded into the weights once per table. Each cell
    also carries Simpson's rule, which shares the Gauss midpoint, so
    the difference of the two rules estimates the quadrature error. The
    Gauss rule integrates the spline times a quadratic exactly and the
    power tail of a panel to ~1e-14 relative; the Simpson difference
    overstates its error by orders of magnitude.
    """

    _cache: dict = {}

    def __init__(self, alpha: float):
        from scipy.interpolate import CubicSpline

        self.alpha = alpha
        # zone layout (start, step, knot count); small alpha gets a much
        # finer head because the peak sharpens into a near-cusp as the
        # index drops (f(0) ~ Gamma(1 + 1/alpha)/pi grows without bound)
        if alpha < 0.6:
            zones = ((0.0, 2e-4, 500), (0.1, 0.005, 580),
                     (3.0, 0.02, 350), (10.0, 0.1, 200))
        else:
            zones = ((0.0, 0.005, 600), (3.0, 0.02, 350), (10.0, 0.1, 200))
        zs = np.concatenate(
            [start + step * np.arange(count) for start, step, count in zones]
        )
        zs = np.append(zs, _TAIL_Z)
        vals = np.empty_like(zs)
        worst = 0.0
        for i, z in enumerate(zs):
            v, e = _std_density(alpha, float(z))
            vals[i] = v
            worst = max(worst, e)
        # below alpha ~ 0.006 the peak f(0) = Gamma(1 + 1/alpha)/pi or its
        # knot slopes overflow a double
        if not np.isfinite(np.diff(vals) / np.diff(zs)).all():
            raise DomainError(f"density table overflows at alpha={alpha}: f(0) = {vals[0]:.3g}")
        # even extension so the spline is smooth through z = 0, then keep
        # only the z >= 0 coefficient block
        full_z = np.concatenate([-zs[:0:-1], zs])
        full_v = np.concatenate([vals[:0:-1], vals])
        spline = CubicSpline(full_z, full_v)
        self._knots = zs
        self._coef = np.ascontiguousarray(spline.c[:, len(zs) - 1:])
        # measure the interpolation error off-knot instead of assuming it:
        # the peak turns cusp-like as alpha drops and the head segments
        # carry visibly more error than the smooth body
        probes = np.concatenate(
            [(zs[:20] + zs[1:21]) / 2.0, np.geomspace(0.01, zs[-2], 40)]
        )
        direct = np.array([_std_density(alpha, float(z))[0] for z in probes])
        interp_err = float(np.max(np.abs(self._spline_std(probes) - direct)))
        self.table_error = float(worst + interp_err + 1e-13)
        self._rule = None

    @classmethod
    def for_alpha(cls, alpha: float) -> "DensityTable":
        tab = cls._cache.get(alpha)
        if tab is None:
            tab = cls(alpha)
            cls._cache[alpha] = tab
        return tab

    def _spline_std(self, z):
        # z in [0, 30]: cubic of the segment that holds z
        c = self._coef
        i = np.minimum(np.searchsorted(self._knots, z, side="right") - 1, c.shape[1] - 1)
        dz = z - self._knots[i]
        return ((c[0, i] * dz + c[1, i]) * dz + c[2, i]) * dz + c[3, i]

    def pdf_std(self, z):
        """Standard-scale density, vectorized; series beyond the table."""
        z = np.abs(np.asarray(z, dtype=float))
        scalar_in = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        inside = z <= _TAIL_Z
        out[inside] = self._spline_std(z[inside])
        if not inside.all():
            out[~inside] = _tail_std(self.alpha, z[~inside])
        return out[0] if scalar_in else out

    def cells(self, lo, hi):
        """Weights of the Gauss and Simpson rules for g(z) * density on [lo, hi].

        Each [lo_i, hi_i] must lie inside one spline segment or one tail
        panel; tail panels are integrated in log z. Returns (nodes,
        weights, diff, left, right): the Gauss rule is sum(weights *
        g(nodes)) per row, and the Gauss minus Simpson difference is
        sum(diff * g(nodes)) - left * g(lo) - right * g(hi).
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        tail = lo >= _TAIL_Z
        a = np.where(tail, np.log(np.maximum(lo, _TAIL_Z)), lo)
        b = np.where(tail, np.log(np.maximum(hi, _TAIL_Z)), hi)
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        nodes = np.where(tail[:, None], np.exp(s), s)
        # density times the Jacobian dz/ds of the log-z substitution
        pts = np.concatenate([nodes.ravel(), lo, hi])
        jac = np.concatenate([np.where(tail[:, None], nodes, 1.0).ravel(),
                              np.where(tail, lo, 1.0), np.where(tail, hi, 1.0)])
        dens = self.pdf_std(pts) * jac
        k = nodes.size
        weights = half[:, None] * _GL_WEIGHTS * dens[:k].reshape(nodes.shape)
        sixth = (b - a) / 6.0
        diff = weights.copy()
        diff[:, 1] -= 4.0 * sixth * dens[1:k:3]
        left = sixth * dens[k:k + len(lo)]
        right = sixth * dens[k + len(lo):]
        return nodes, weights, diff, left, right

    def rule(self, z_max: float):
        """Cached cells() over all of [0, z_max] and beyond, with their edges.

        The edges are the spline knots, then 30 * 1.1^k; a request past
        the cached reach rebuilds with more panels, which leaves every
        existing cell unchanged.
        """
        if self._rule is None or self._rule[0][-1] <= z_max:
            reach = math.log(max(z_max, _TAIL_Z) / _TAIL_Z) / math.log(_TAIL_RATIO)
            n = max(160, math.ceil(reach) + 1)
            edges = np.concatenate(
                [self._knots, _TAIL_Z * _TAIL_RATIO ** np.arange(1, n + 1)]
            )
            self._rule = (edges,) + self.cells(edges[:-1], edges[1:])
        return self._rule
