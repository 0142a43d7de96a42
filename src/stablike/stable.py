"""Symmetric alpha-stable distribution support.

Parameterization: S(alpha, gamma, delta) has characteristic function
exp(i*delta*t - (gamma*|t|)^alpha). alpha = 1 is Cauchy(delta, gamma),
alpha = 2 is Normal(delta, 2*gamma^2). Densities come from inverting
the characteristic function,

    f(y) = (1/pi) * int_0^inf exp(-(gamma t)^alpha) cos(t (y-delta)) dt,

reduced to the standard scale z = (y-delta)/gamma. One numpy engine
serves every z of an array at once:

  z < z_0       f(0) = Gamma(1 + 1/alpha)/pi, where z_0 puts the z^2 term
                of the Taylor series at 0 under eps/2 of f(0)
  z <= 30       Zolotarev's integral in Nolan's form, f(z) = alpha/(pi
                |alpha-1| z) int_0^(pi/2) g e^(-g) dtheta with g monotone,
                split at its peak g = 1 and summed by nested tanh-sinh
                levels; within 1e-5 of alpha = 1, where alpha/(alpha-1)
                amplifies the rounding of log g, the first-order expansion
                about the Cauchy law
  |z| > 30      power-tail series sum_k (-1)^(k+1) Gamma(k a + 1)/k!
                * sin(k pi a / 2) z^(-k a - 1) / pi, convergent for a < 1
                and asymptotic (min-term truncation) for a > 1; at z = 30
                it agrees with the integral to ~1e-12 relative. One
                coefficient set per alpha, cut at z = 30, serves both
                sas_density and DensityTable

alpha = 1 (Cauchy) and alpha = 2 (Normal) are closed forms.

Sampling is exact through the Chambers-Mallows-Stuck transform of a
uniform angle and a standard exponential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, TableOverflowError
from .specfun import gamma as gamma_fn

_TAIL_Z = 30.0
_HALF_PI = 0.5 * math.pi
_EPS = 2.220446049250313e-16
_TS_REACH = 3.5  # tanh-sinh abscissa cut: nodes past it weigh under 1e-20
_TS_LEVELS = 9  # step halvings before a value must converge
_TS_RTOL = 1e-13
_BLOCK = 1 << 13  # float64 entries of one node temporary (64 KB): a block needs < 1 MB
_NEAR_ONE = 1e-5  # |alpha - 1| served by the expansion about the Cauchy law
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


def _log_g(alpha: float, z, th, ph):
    # log g(theta) with cos(theta) = sin(ph), ph = pi/2 - theta
    return (alpha / (alpha - 1.0) * np.log(z * np.sin(ph) / np.sin(alpha * th))
            + np.log(np.cos((alpha - 1.0) * th) / np.sin(ph)))


def _zolotarev(alpha: float, z):
    """Standard density at every z of a 1-d array, from Zolotarev's integral.

    Bisection on log theta finds the theta* where the monotone g crosses
    1. Only the z whose last two levels still differ by more than the
    tolerance go on, in row blocks of under 1 MB, each row summed on its
    own, so no value depends on its batch. The error estimate is the last
    level difference plus 4 (1 + |alpha/(alpha-1)|) eps of the value, the
    rounding of log g.
    """
    rising = alpha < 1.0  # g climbs from 0 to inf, or falls for alpha > 1
    floor = 4.0 * (1.0 + abs(alpha / (alpha - 1.0))) * _EPS
    pref = alpha / (math.pi * abs(alpha - 1.0) * z)
    # log theta from the smallest double to log(pi/2): 64 halvings reach an ulp
    lo, hi = np.full_like(z, -745.0), np.full_like(z, math.log(_HALF_PI))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        th = np.exp(mid)
        past = (_log_g(alpha, z, th, _HALF_PI - th) > 0.0) == rising
        lo, hi = np.where(past, lo, mid), np.where(past, mid, hi)
    t_star = np.exp(0.5 * (lo + hi))
    p_star = _HALF_PI - t_star
    total, err, active = np.zeros_like(z), np.zeros_like(z), np.arange(z.size)
    for level in range(_TS_LEVELS + 1):
        q, w = _ts_level(level)
        sums = np.empty(active.size)
        rows = max(1, _BLOCK // (4 * q.size))
        for s in range(0, active.size, rows):
            i = active[s:s + rows]
            ts, ps = t_star[i, None], p_star[i, None]
            a, b = ts * q, ps * q  # node offsets on [0, theta*] and [theta*, pi/2]
            th = np.concatenate([a, ts - a, ts + b, _HALF_PI - b], axis=1)
            ph = np.concatenate([_HALF_PI - a, ps + a, ps - b, b], axis=1)
            lg = _log_g(alpha, z[i, None], th, ph)
            wt = np.concatenate([ts * w, ts * w, ps * w, ps * w], axis=1)
            sums[s:s + rows] = (np.exp(lg - np.exp(lg)) * wt).sum(axis=1)
        new = sums + 0.5 * total[active]
        diff = np.abs(new - total[active])
        total[active], err[active] = new, diff + floor * new
        active = active[diff > max(_TS_RTOL, floor) * new] if level else active
        if not active.size:
            return pref * total, pref * err
    k = active[0]
    raise QuadratureError(f"density quadrature at alpha={alpha}, z={z[k]}: no convergence in "
                          f"{_TS_LEVELS} tanh-sinh levels", pref[k] * total[k], pref[k] * err[k])


def _std_density(alpha: float, z):
    """Standard-scale density at |z| (scalar or array) with absolute error estimates."""
    z = np.abs(np.asarray(z, dtype=float))
    flat, shape = z.ravel(), z.shape
    if alpha in (1.0, 2.0):
        val = (1.0 / (math.pi * (1.0 + flat * flat)) if alpha == 1.0
               else np.exp(-flat * flat / 4.0) / (2.0 * math.sqrt(math.pi)))
        return val.reshape(shape)[()], np.zeros(shape)[()]
    peak = gamma_fn(1.0 + 1.0 / alpha) / math.pi
    val, err = np.full_like(flat, peak), np.full_like(flat, 4.0 * _EPS * peak)
    tail = flat > _TAIL_Z
    if tail.any():
        coefs, last = _tail_coefficients(alpha)
        val[tail] = _tail_std(alpha, flat[tail])
        err[tail] = last * flat[tail] ** (-len(coefs) * alpha - 1.0)
    # below z_0 the z^2 term of the Taylor series at 0 is under eps/2 of f(0)
    z_0 = math.exp(0.5 * (math.log(_EPS) + math.lgamma(1.0 / alpha) - math.lgamma(3.0 / alpha)))
    body = (flat >= z_0) & (flat > 0.0) & ~tail
    zb = flat[body]
    if abs(alpha - 1.0) < _NEAR_ONE:
        # first order about the Cauchy law: df/dalpha at 1 is
        # -Re[(psi(2) - log p) / p^2] / pi, p = 1 - iz; |d2f/dalpha2| < 0.63
        p = 1.0 - 1j * zb
        v = ((1.0 - (alpha - 1.0) * (1.0 - np.euler_gamma - np.log(p)) / p) / p).real / math.pi
        e = 0.315 * (alpha - 1.0) ** 2 + 4.0 * _EPS * v
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v, e = _zolotarev(alpha, zb)
        # the density is unimodal with mode at 0, so the z = 0 closed form
        # bounds every value; the peak exceeds 1 once alpha < ~0.42
        ok = np.isfinite(v) & (v >= 0.0) & (v <= peak * (1.0 + 1e-9)) & (e <= 1e-8)
        if not ok.all():
            k = np.argmin(ok)
            raise QuadratureError(f"density quadrature failed at alpha={alpha}, z={zb[k]}",
                                  v[k], e[k])
    val[body], err[body] = v, e
    val[np.isnan(flat)] = err[np.isnan(flat)] = np.nan  # no mask above takes NaN
    return val.reshape(shape)[()], err.reshape(shape)[()]


def sas_density(params: StableParams, y):
    """Density of S(alpha, gamma, delta) at y (scalar or array)."""
    g = params.gamma_scale
    z = (np.asarray(y, dtype=float) - params.delta_shift) / g
    return _std_density(params.alpha, z)[0] / g


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
    integral at that alpha. The knots and 60 off-knot probes come from
    one call of the density engine each; table_error is the largest
    error estimate of a knot (the difference of its last two tanh-sinh
    levels plus the rounding of log g) plus the spline error measured
    at the probes. A table whose values, spline or table_error overflow
    a double (alpha below ~0.0065) raises TableOverflowError. Beyond
    the table the power-tail series takes over, truncated where it
    stops improving at z = 30 and summed by Horner's rule. Both pieces
    are plain arrays, so every lookup is vectorised.

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
        vals, errs = _std_density(alpha, zs)
        # even extension so the spline is smooth through z = 0, then keep
        # only the z >= 0 coefficient block
        full_z = np.concatenate([-zs[:0:-1], zs])
        full_v = np.concatenate([vals[:0:-1], vals])
        self._knots = zs
        # measure the interpolation error off-knot instead of assuming it:
        # the peak turns cusp-like as alpha drops and the head segments
        # carry visibly more error than the smooth body
        probes = np.concatenate(
            [(zs[:20] + zs[1:21]) / 2.0, np.geomspace(0.01, zs[-2], 40)]
        )
        # below alpha ~ 0.0065 the peak f(0) = Gamma(1 + 1/alpha)/pi, its knot
        # slopes, the spline through them or its off-knot error overflow
        overflow = TableOverflowError(
            f"density table overflows at alpha={alpha}: f(0) = {vals[0]:.3g}")
        with np.errstate(invalid="ignore", over="ignore"):
            if not np.isfinite(np.diff(vals) / np.diff(zs)).all():
                raise overflow
            spline = CubicSpline(full_z, full_v)
            self._coef = np.ascontiguousarray(spline.c[:, len(zs) - 1:])
            interp_err = np.max(np.abs(self._spline_std(probes) - _std_density(alpha, probes)[0]))
        self.table_error = float(errs.max() + interp_err + 1e-13)
        if not (np.isfinite(self._coef).all() and math.isfinite(self.table_error)):
            raise overflow
        self._rule = None

    @classmethod
    def for_alpha(cls, alpha: float) -> "DensityTable":
        if alpha not in cls._cache:
            try:
                cls._cache[alpha] = cls(alpha)
            except TableOverflowError as exc:
                cls._cache[alpha] = str(exc)  # raised afresh on every lookup
        if isinstance(cls._cache[alpha], str):
            raise TableOverflowError(cls._cache[alpha])
        return cls._cache[alpha]

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
