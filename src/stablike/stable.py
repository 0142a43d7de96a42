"""Symmetric alpha-stable distribution support.

Parameterization: S(alpha, gamma, delta) has characteristic function
exp(i*delta*t - (gamma*|t|)^alpha). alpha = 1 is Cauchy(delta, gamma),
alpha = 2 is Normal(delta, 2*gamma^2). Densities come from inverting
the characteristic function,

    f(y) = (1/pi) * int_0^inf exp(-(gamma t)^alpha) cos(t (y-delta)) dt,

reduced to the standard scale z = (y-delta)/gamma. One numpy engine
serves every z of an array at once:

  z < z_1       Taylor series at 0, cut where its terms stop decreasing; z_1
                is 4e-15 at a = 0.12, 0.006 at 0.5, ~0.8 near 1, 1.6 at 1.5, 2 near 2
  z <= 30       Zolotarev's integral in Nolan's form, f(z) = alpha/(pi
                |alpha-1| z) int_0^(pi/2) g e^(-g) dtheta with g monotone,
                split at its peak g = 1 and summed by the nested tanh-sinh
                levels of specfun._ts_level, which hyp2f1 shares; within
                1e-5 of alpha = 1, where alpha/(alpha-1) amplifies the
                rounding of log g, the first-order expansion about the
                Cauchy law
  |z| > 30      power-tail series sum_k (-1)^(k+1) Gamma(k a + 1)/k!
                * sin(k pi a / 2) z^(-k a - 1) / pi, convergent for a < 1
                and asymptotic (min-term truncation) for a > 1; at z = 30
                it agrees with the integral to ~1e-12 relative; one
                coefficient set per alpha, cut at z = 30

alpha = 1 (Cauchy) and alpha = 2 (Normal) are closed forms.

DensityTable feeds the engine's values, at the nodes of a fixed
15-point Gauss-Kronrod rule, straight into the drift integrals; no
interpolant stands between the engine and an integral.

Sampling is exact through the Chambers-Mallows-Stuck transform of a
uniform angle and a standard exponential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, TableOverflowError
from .specfun import _ts_level, gamma as gamma_fn

_TAIL_Z = 30.0
_HALF_PI = 0.5 * math.pi
_EPS = 2.220446049250313e-16
_TS_LEVELS = 9  # step halvings before a value must converge
_TS_RTOL = 1e-13
_BLOCK = 1 << 13  # float64 entries of one node temporary (64 KB): a block needs < 1 MB
_NEAR_ONE = 1e-5  # |alpha - 1| served by the expansion about the Cauchy law
_BODY_LO = _TAIL_Z * 2.0 ** -38  # first geometric edge of DensityTable's body (~1.1e-10)
_ROUNDING = 8.0 * _EPS  # summation rounding of a rule value, relative to sum |w kern f|
# QUADPACK's 15-point Kronrod rule on [-1, 1] (qk15): the nodes +-_XK and 0,
# their weights _WK, and the weights _WG of the 7-point Gauss rule that
# shares the nodes +-_XK[1], +-_XK[3], +-_XK[5] and 0
_XK = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245]
_WK = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714]
_WG = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327]
_KR_NODES = np.array([-x for x in _XK] + [0.0] + _XK[::-1])
_KR_WEIGHTS = np.array(_WK + _WK[-2::-1])
_KR_MINUS_G7 = _KR_WEIGHTS - np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                                        0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])


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


@functools.lru_cache(maxsize=None)
def _head_coefficients(alpha: float):
    """Taylor series sum_k (-1)^k Gamma((2k+1)/alpha) z^(2k) / (pi alpha (2k)!) at 0.

    Returns its c_k, highest k first, and the reach z_1 where the first
    dropped term is eps/2 of f(0) = c_0. The cut (<= 80 terms, Gamma finite)
    is the longest whose terms, the dropped one too, decrease at z_1: the
    minimal term for alpha < 1, bounded cancellation for alpha > 1.
    """
    log_c = [math.lgamma((2 * k + 1) / alpha) - math.lgamma(2 * k + 1.0) for k in range(81)]
    keep, steep = 0, math.inf
    for k in range(1, 81):  # keep the k terms below term k
        steep = min(steep, log_c[k - 1] - log_c[k])  # log of the least |c_j / c_(j+1)|
        log_r = (math.log(0.5 * _EPS) + log_c[0] - log_c[k]) / (2 * k)
        if 2.0 * log_r > steep or (k > 1 and (2 * k - 1) / alpha > 170.0):
            break
        keep, reach = k, math.exp(log_r)
    return tuple((-1.0) ** k * gamma_fn((2 * k + 1) / alpha) / gamma_fn(2 * k + 1.0)
                 / (math.pi * alpha) for k in range(keep - 1, -1, -1)), reach


def _log_g(alpha: float, z, th, ph):
    # log g(theta) with cos(theta) = sin(ph), ph = pi/2 - theta
    cos_th = np.sin(ph)
    return (alpha / (alpha - 1.0) * np.log(z * cos_th / np.sin(alpha * th))
            + np.log(np.cos((alpha - 1.0) * th) / cos_th))


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
    coefs, reach = _head_coefficients(alpha)
    val, err = np.full_like(flat, np.nan), np.full_like(flat, np.nan)
    head = flat < reach  # the first dropped term is eps/2 of f(0) at the reach
    zh = flat[head]
    val[head] = np.polyval(coefs, zh * zh)
    err[head] = _EPS * (0.5 * coefs[-1] * (zh / reach) ** (2 * len(coefs))
                        + 4.0 * np.polyval(np.abs(coefs), zh * zh))
    tail = flat > _TAIL_Z
    if tail.any():
        tail_c, last = _tail_coefficients(alpha)
        zt = flat[tail]
        w = zt ** -alpha  # Horner's rule in w
        val[tail] = np.polyval(tail_c, w) * w / zt
        err[tail] = last * zt ** (-len(tail_c) * alpha - 1.0)
    body = (flat >= reach) & ~tail
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
        # the density is unimodal with mode at 0, so f(0) = c_0 bounds
        # every value; the peak exceeds 1 once alpha < ~0.42
        ok = np.isfinite(v) & (v >= 0.0) & (v <= coefs[-1] * (1.0 + 1e-9)) & (e <= 1e-8)
        if not ok.all():
            k = np.argmin(ok)
            raise QuadratureError(f"density quadrature failed at alpha={alpha}, z={zb[k]}",
                                  v[k], e[k])
    val[body], err[body] = v, e
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
    # sin(alpha u) * cos(u) ** (-1/alpha) * (cos((1 - alpha) u) / e) ** ((1 - alpha)/alpha),
    # in that order, in two arrays of the broadcast shape
    out = np.empty(np.broadcast_shapes(alpha.shape, u.shape, e.shape))
    w = np.empty_like(out)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.sin(np.multiply(alpha, u, out=out), out=out)
        out *= np.cos(u) ** (-1.0 / alpha)
        np.cos(np.multiply(1.0 - alpha, u, out=w), out=w)
        w /= e
        w **= (1.0 - alpha) / alpha
        out *= w
    return out[()]


def sas_sample_n(params: StableParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n exact samples, vectorized: n uniform angles, then n exponentials."""
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    e = rng.standard_exponential(n)
    return params.delta_shift + params.gamma_scale * cms_transform(params.alpha, u, e)


class DensityTable:
    """Fixed Gauss-Kronrod rule for integrals against the standard-scale density.

    Built once per alpha (the scale and shift reduce to the standard
    variable z by an affine change) and shared by every drift integral
    at that alpha. The rule lays QUADPACK's 15-point Kronrod nodes on
    the panel [0, 30 * 2^-38] and on geometric panels of ratio 2 from
    there up to z = 30, and beyond z = 30 on panels of ratio 2 laid in
    log z. One call of the density engine fills every body node; beyond
    z = 30 the engine's power-tail series serves. The density is folded
    into the weights once per table. Each cell also carries the embedded
    7-point Gauss rule, so the K15 minus G7 difference estimates the
    rule's error, and the engine's own error estimate at every node,
    plus a few ulp of the value for summation rounding, bounds what the
    density's error adds. table_error is the largest engine error over
    the body nodes.

    A cell cut by an integration bound v, [edge below v, v], gets its
    own 15 engine values, kept in a memo: one row of each of the four
    cut arrays (nodes, weights, diff, bound) per bound, and a dict from
    v to its row. An integral then depends only on its own bounds, and
    every kernel and pass that reads v reuses them. Below alpha ~ 0.112
    the engine does not converge at bottom-panel nodes (z = 4.7e-13 to
    1.4e-11, above the head's reach), and from alpha ~ 1.9997 up it fails
    near z = 8 to 14; the build, or a cut cell there, raises its
    QuadratureError. Where f(0) = Gamma(1 + 1/alpha)/pi overflows a
    double (alpha below ~0.00586) the build raises TableOverflowError.
    for_alpha caches a failed build and raises it afresh on every lookup.
    """

    _cache: dict = {}

    def __init__(self, alpha: float):
        self.alpha = alpha
        peak = gamma_fn(1.0 + 1.0 / alpha) / math.pi
        if not math.isfinite(peak):
            raise TableOverflowError(f"density table overflows at alpha={alpha}: f(0) = {peak:.3g}")
        self._edges = np.concatenate([[0.0], _BODY_LO * 2.0 ** np.arange(39)])
        *self._rule, err = self._cells(self._edges[:-1], self._edges[1:])
        self.table_error = float(err.max())
        self._cut_cells = [np.empty((0, _KR_NODES.size)) for _ in range(4)]
        self._cut_row = {}

    @classmethod
    def for_alpha(cls, alpha: float) -> "DensityTable":
        if alpha not in cls._cache:
            try:
                cls._cache[alpha] = cls(alpha)
            except (TableOverflowError, QuadratureError) as exc:
                cls._cache[alpha] = (type(exc), str(exc))  # raised afresh on every lookup
        if isinstance(cls._cache[alpha], tuple):
            kind, message = cls._cache[alpha]
            raise kind(message)
        return cls._cache[alpha]

    def _cells(self, lo, hi):
        """Kronrod nodes on each [lo_i, hi_i] and the weights to apply to g(nodes).

        Cells from z = 30 on are laid in log z. Returns (nodes, weights,
        diff, bound, err), each of shape (cells, 15): per cell the rule
        is sum(weights * g), its distance from the Gauss rule is
        |sum(diff * g)|, the density's error and the summation rounding
        add at most sum(bound * |g|), and err is the engine's error at
        each node.
        """
        tail = lo >= _TAIL_Z
        a = np.where(tail, np.log(np.maximum(lo, _TAIL_Z)), lo)
        b = np.where(tail, np.log(np.maximum(hi, _TAIL_Z)), hi)
        half = 0.5 * (b - a)[:, None]
        s = 0.5 * (a + b)[:, None] + half * _KR_NODES
        nodes = np.where(tail[:, None], np.exp(s), s)
        dens, err = _std_density(self.alpha, nodes)
        jac = half * np.where(tail[:, None], nodes, 1.0)  # dz/ds of the log-z substitution
        return (nodes, jac * _KR_WEIGHTS * dens, jac * _KR_MINUS_G7 * dens,
                jac * _KR_WEIGHTS * (err + _ROUNDING * dens), err)

    def rule(self, z_max: float):
        """(edges, nodes, weights, diff, bound) of whole cells over [0, z_max] and beyond.

        A request past the cached reach appends tail panels, which
        leaves every existing cell unchanged.
        """
        top = self._edges[-1]
        if top <= z_max:
            new = top * 2.0 ** np.arange(1, math.floor(math.log2(z_max / top)) + 2)
            cells = self._cells(np.concatenate([[top], new[:-1]]), new)[:4]
            self._edges = np.concatenate([self._edges, new])
            self._rule = [np.concatenate(pair) for pair in zip(self._rule, cells)]
        return (self._edges, *self._rule)

    def cut(self, v):
        """(nodes, weights, diff, bound) of the cells [edge below v_i, v_i].

        v is 1-d and must lie within the rule's reach. The bounds not yet
        in the memo are filled by one engine call and appended as rows;
        the result is one fancy index of each memo array by v's rows.
        """
        bounds = v.tolist()
        new = [u for u in dict.fromkeys(bounds) if u not in self._cut_row]
        if new:
            hi = np.array(new)
            lo = self._edges[np.searchsorted(self._edges, hi, side="right") - 1]
            cells = self._cells(lo, hi)[:4]
            base = len(self._cut_row)
            self._cut_row.update((u, base + i) for i, u in enumerate(new))
            self._cut_cells = [np.concatenate(pair) for pair in zip(self._cut_cells, cells)]
        rows = [self._cut_row[u] for u in bounds]
        return [c[rows] for c in self._cut_cells]
