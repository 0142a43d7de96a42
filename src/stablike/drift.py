"""Drift-criterion integrals and tail scans.

The classification conditions compare a normalized truncated jump
integral against a threshold constant. Writing t = y/(1+|x|) or
t = y/|x| and s = sgn(x), the test kernels are

  LogShift      g(y) = log(1 + s*t),        t = y/(1+|x|)
  PowerBeta     g(y) = (1 + s*t)^beta - 1,  t = y/|x|
  BoundedBeta   g(y) = 1 - (1 + s*t)^(-beta), t = y/(1+|x|)
  FirstMoment   g(y) = y

integrated against the jump density over |y| <= delta*|x|. Every
kernel splits into even and odd parts in y with the sign s carried by
the odd part, so the integral over [-L, L] collapses onto [0, L]:

  int g f = int_0^L [ E(y)(f(y) + f(-y)) + s*O(y)(f(y) - f(-y)) ] dy

with E, O the even/odd kernel parts. For symmetric jump families the
odd density difference vanishes identically and the FirstMoment
integral is exactly zero by construction rather than by cancellation.

One engine integrates a whole x grid in one call (_integrals): the x
that share (alpha, gamma, shift) read one cumulative rule from 0 at
their bounds, a few rows (_BLOCK node entries) at a time. A shifted
density adds a pass over z < 0 folded onto u = -z, so a shift larger
than delta*|x| needs no branch of its own.

CONDITIONS declares each display once. Its kernel fixes the prefactor
(|x|^(a-1)/c times sgn(x) for the first moment, |x|^a/c otherwise) and
the threshold (r2 for the power kernel, t for the bounded kernel, r1
otherwise); transience displays read ">", the others "<":

  log_rec    log kernel                         recurrence
  pow_rec    power kernel                       recurrence
  log_erg    log kernel + d                     ergodicity
  pow_erg    power kernel + d|x|^(-beta)        ergodicity
  mom_rec    first moment                       recurrence
  mom_erg    first moment + d|x|                ergodicity
  mom_erg_b  first moment + d|x|^(1-beta)/beta  ergodicity
  bnd_trans  bounded kernel                     transience
  mom_trans  first moment                       transience

Recurrence and ergodicity conditions take the threshold at the smallest
limiting alpha, transience at the largest. The mom_* conditions are
valid simplifications only when alpha stays bounded away from 2 and
c(x)|x|^(2-alpha(x)) diverges; the classifier checks that before
using them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, alpha_at, c_at, delta_at, gamma_at
from .errors import DomainError
from .specfun import real_binom
from .stable import DensityTable
from .thresholds import r1, r2, t as t_threshold

_BLOCK = 1 << 14  # float64 entries of one x block's node temporary (128 KB); ~4 per rule cell
_T_MAX = 1.0 - 2.0 ** -53  # largest double below 1

@dataclass(frozen=True)
class DriftKernel:
    kind: str  # log_shift | power_beta | bounded_beta | first_moment
    beta: float | None = None

    def __post_init__(self):
        if self.kind == "power_beta" and not (self.beta and 0.0 < self.beta <= 1.0):
            raise DomainError(f"power_beta requires beta in (0, 1], got {self.beta}")
        if self.kind == "bounded_beta" and not (self.beta and 0.0 < self.beta < 1.0):
            raise DomainError(f"bounded_beta requires beta in (0, 1), got {self.beta}")

    @classmethod
    def log_shift(cls):
        return cls("log_shift")

    @classmethod
    def power_beta(cls, beta: float):
        return cls("power_beta", beta)

    @classmethod
    def bounded_beta(cls, beta: float):
        return cls("bounded_beta", beta)

    @classmethod
    def first_moment(cls):
        return cls("first_moment")


@dataclass(frozen=True)
class DriftPoint:
    x: float
    delta: float
    d: float
    raw_integral: float
    normalized_lhs: float
    quadrature_error: float


@dataclass(frozen=True)
class TailScanReport:
    condition_id: str
    points: tuple  # of DriftPoint, all (x, delta, d) combinations
    tail_sup_estimate: float
    tail_inf_estimate: float
    threshold: float
    margin: float
    beta: float | None = None
    scan_error: float = 0.0
    trend_flag: str = "ok"  # "ok" | "non-monotone" | "extrapolated" | "diverging"
    threshold_error: float = 0.0
    # finest (d, delta) level, outer half of the grid: the worst
    # quadrature error and the delta-extrapolation gap of tail_inf
    quad_error: float = 0.0
    inf_delta_gap: float = 0.0


@dataclass(frozen=True)
class Condition:
    """One drift display; see the module docstring for what follows from it."""

    kernel: str  # a DriftKernel kind
    conclusion: str  # "rec" | "erg" | "trans"
    needs_beta: bool = False
    d_term: object = None  # (x, d, beta) -> the shift added before the prefactor

    def kernel_at(self, beta: float | None) -> DriftKernel:
        # mom_erg_b's beta is not its kernel's: it shares mom_rec's integrals
        takes_beta = self.kernel in ("power_beta", "bounded_beta")
        return DriftKernel(self.kernel, beta if takes_beta else None)

    def threshold(self, alpha: float, beta: float | None) -> tuple[float, float]:
        """Threshold constant at alpha and its error estimate."""
        if self.kernel == "power_beta":
            tv = r2(alpha, beta)
        elif self.kernel == "bounded_beta":
            tv = t_threshold(alpha, beta)
        else:
            # the beta in mom_erg_b only shapes the d-term
            return r1(alpha), 0.0
        return tv.value, tv.est_abs_error


CONDITIONS = {
    "log_rec": Condition("log_shift", "rec"),
    "pow_rec": Condition("power_beta", "rec", True),
    "log_erg": Condition("log_shift", "erg", False, lambda x, d, beta: d),
    "pow_erg": Condition("power_beta", "erg", True, lambda x, d, beta: d * abs(x) ** (-beta)),
    "mom_rec": Condition("first_moment", "rec"),
    "mom_erg": Condition("first_moment", "erg", False, lambda x, d, beta: d * abs(x)),
    "mom_erg_b": Condition("first_moment", "erg", True,
                           lambda x, d, beta: d * abs(x) ** (1.0 - beta) / beta),
    "bnd_trans": Condition("bounded_beta", "trans", True),
    "mom_trans": Condition("first_moment", "trans"),
}


@functools.lru_cache(maxsize=64)
def _binom_coefs(s: float, odd: bool) -> tuple:
    # binomial-series coefficients of (1+t)^s restricted to odd/even powers
    ks = range(1, 23, 2) if odd else range(2, 24, 2)
    return tuple(real_binom(s, k) for k in ks)


def kernel_parts(kernel: DriftKernel, x: float):
    """Evaluator y -> (E(y), O(y)) over arrays, with sgn(x) factored out.

    E and O are the even and odd parts of the shifted kernel in y; the
    caller multiplies O by sgn(x). Small |t| goes through the binomial
    series (the expm1/log1p route loses all digits below t ~ 1e-8). t is
    clipped an ulp inside (-1, 1), so a block of rows may evaluate a row
    past its integration range, which lies in |t| <= delta < 1.
    """
    ax = abs(x)
    kind = kernel.kind
    if kind == "first_moment":
        return lambda y: (np.zeros_like(y), y)
    if kind == "log_shift":
        den = 1.0 + ax

        def eo_log(y):
            t = np.clip(np.divide(y, den), -_T_MAX, _T_MAX)
            return 0.5 * np.log1p(-t * t), np.arctanh(t)

        return eo_log
    if kind == "power_beta":
        s, den, flip = kernel.beta, ax, 1.0
    else:  # bounded_beta: 1 - (1+t)^(-b) negates both parts of (1+t)^(-b)
        s, den, flip = -kernel.beta, 1.0 + ax, -1.0
    ev = tuple(reversed(_binom_coefs(s, odd=False)))
    od = tuple(reversed(_binom_coefs(s, odd=True)))

    def eo_pow(y):
        t = np.atleast_1d(np.clip(np.divide(y, den), -_T_MAX, _T_MAX))
        e, o = np.empty_like(t), np.empty_like(t)
        small = np.abs(t) < 1e-2
        ts = t[small]
        t2 = ts * ts
        e[small] = np.polyval(ev, t2) * t2
        o[small] = np.polyval(od, t2) * ts
        tb = t[~small]
        pp = np.expm1(s * np.log1p(tb))
        pm = np.expm1(s * np.log1p(-tb))
        e[~small] = 0.5 * (pp + pm)
        o[~small] = 0.5 * (pp - pm)
        shape = np.shape(y)
        return flip * e.reshape(shape), flip * o.reshape(shape)

    return eo_pow


def truncated_integral(
    spec: ChainSpec, x: float, delta: float, kernel: DriftKernel
) -> float:
    value, _ = truncated_integral_with_error(spec, x, delta, kernel)
    return value


def truncated_integral_with_error(
    spec: ChainSpec, x: float, delta: float, kernel: DriftKernel
) -> tuple[float, float]:
    """Integral of kernel(y) times the jump density from x over |y| <= delta*|x|.

    One point of the engine that tail scans run over whole grids: a
    fixed 3-point Gauss-Legendre rule on every spline segment of the
    per-alpha density table and on geometric panels of its power tail
    (DensityTable.rule). The error estimate is the Gauss minus Simpson
    difference summed over the cells, plus table_error * min(L, 100
    gamma) for the density table's own error.
    """
    value, err = _integrals(spec, kernel, (x,), (delta,))
    return float(value[0, 0]), float(err[0, 0])


def _cumulative(table: DensityTable, kern, v):
    """Integrals of kern(u) * density(u) over [0, v] and their errors.

    v holds the bounds of a block of x rows, one row per x, and kern maps
    u of shape (rows, n) to the rows' kernel values. One cumsum per row
    sums the whole rule cells below each bound; only the cell that a
    bound cuts gets nodes of its own. A row reads no cell past its own
    bounds, so its values depend neither on its block nor on its number
    of bounds.
    """
    edges, nodes, weights, diff, left, right = table.rule(v.max())
    ip = np.searchsorted(edges, v, side="right") - 1
    n, (rows, k) = ip.max(), v.shape
    lo = edges[ip]
    c_nodes, c_weights, c_diff, c_left, c_right = table.cells(lo.ravel(), v.ravel())
    g_full = kern(np.broadcast_to(nodes[:n].ravel(), (rows, 3 * n))).reshape(rows, n, 3)
    g_edge = kern(np.broadcast_to(edges[:n + 1], (rows, n + 1)))
    g_cut = kern(c_nodes.reshape(rows, 3 * k)).reshape(-1, 3)
    val = (weights[:n] * g_full).sum(axis=2)
    err = np.abs((diff[:n] * g_full).sum(axis=2)
                 - left[:n] * g_edge[:, :-1] - right[:n] * g_edge[:, 1:])
    pv = (c_weights * g_cut).sum(axis=1)
    pe = np.abs((c_diff * g_cut).sum(axis=1)
                - c_left * kern(lo).ravel() - c_right * kern(v).ravel())
    cum_v, cum_e = (np.cumsum(np.pad(a, ((0, 0), (1, 0))), axis=1) for a in (val, err))
    return (np.take_along_axis(cum_v, ip, axis=1) + pv.reshape(rows, k),
            np.take_along_axis(cum_e, ip, axis=1) + pe.reshape(rows, k))


def _integrals(spec: ChainSpec, kernel: DriftKernel, xs, deltas):
    """Raw integrals and their error estimates, both of shape (x, delta).

    In z = (y - shift)/gamma the jump density is the table's. A pass
    over z >= 0 (side 1), or over z < 0 folded onto u = -z (side -1),
    reads _cumulative at its bounds +-(L -+ shift)/gamma clipped at 0:
    the integral is the upper read minus the lower one. A symmetric
    group needs only the first pass, of twice the even kernel part.
    """
    xs = np.asarray(xs, dtype=float)
    if (xs == 0.0).any():
        raise DomainError("truncated_integral requires x != 0")
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {delta}")
    L = np.asarray(deltas, dtype=float) * np.abs(xs)[:, None]
    k = L.shape[1]
    val, err = np.zeros_like(L), np.zeros_like(L)
    groups = {}
    for i, x in enumerate(xs.tolist()):
        groups.setdefault((alpha_at(spec, x), gamma_at(spec, x), delta_at(spec, x)), []).append(i)
    for (alpha, g, m), idx in groups.items():
        if kernel.kind == "first_moment" and m == 0.0:
            # odd kernel against an even density: exactly zero
            continue
        table = DensityTable.for_alpha(alpha)
        edges = table.rule((L[idx].max() + abs(m)) / g)[0]
        step = max(1, _BLOCK // (4 * len(edges)))
        for b in range(0, len(idx), step):
            rows = idx[b:b + step]
            x, Lr = xs[rows, None], L[rows]
            eo = kernel_parts(kernel, x)
            # the shifted kernels compose as g(sgn(x) * t), so their odd
            # part carries sgn(x); the first-moment kernel is plain y and
            # must not, the display-level sgn(x) is applied by _lhs instead
            sgn = np.where((x > 0) | (kernel.kind == "first_moment"), 1.0, -1.0)

            def whole(y):
                ev, od = eo(y)
                return 2.0 * ev if m == 0.0 else ev + sgn * od

            v = e = 0.0
            for side in (1.0,) if m == 0.0 else (1.0, -1.0):
                ends = np.maximum(np.concatenate([Lr - side * m, -Lr - side * m], axis=1) / g, 0.0)
                cv, ce = _cumulative(table, lambda u: whole(side * g * u + m), ends)
                v, e = v + cv[:, :k] - cv[:, k:], e + ce[:, :k] + ce[:, k:]
            val[rows], err[rows] = v, e + table.table_error * np.minimum(Lr, 100.0 * g)
    return val, err


def _condition(condition_id: str, beta: float | None) -> Condition:
    cond = CONDITIONS.get(condition_id)
    if cond is None:
        raise DomainError(f"unknown condition id {condition_id}")
    if cond.needs_beta and beta is None:
        raise DomainError(f"{condition_id} requires beta")
    return cond


def _lhs(spec, x_grid, d_grid, cond, beta, raw, d_weight=None):
    """Normalized left-hand sides lhs[d, delta, x] and errors err[delta, x].

    raw is the (values, errors) pair of _integrals, each of shape (x,
    delta). The first-moment displays carry sgn(x); the d-term
    (times d_weight) is evaluated per x in Python floats, where numpy's
    vectorised power would differ by an ulp.
    """
    moment = cond.kernel == "first_moment"
    power = -1.0 if moment else 0.0
    prefs = np.array([abs(x) ** (alpha_at(spec, x) + power) / c_at(spec, x) for x in x_grid])
    sign = np.sign(x_grid) if moment else 1.0
    dterm = cond.d_term or (lambda x, d, beta: 0.0)
    weights = [1.0 if d_weight is None else d_weight(x) for x in x_grid]
    shift = np.array([
        [p * (dterm(x, d, beta) * w) for x, p, w in zip(x_grid, prefs, weights)]
        for d in d_grid
    ])
    lhs = prefs * (sign * raw[0].T) + shift[:, None, :]
    return lhs, prefs * raw[1].T


def normalized_lhs(
    spec: ChainSpec,
    x: float,
    delta: float,
    d: float,
    condition_id: str,
    beta: float | None = None,
) -> DriftPoint:
    """Left-hand side of the named condition at one (x, delta, d).

    One point of the tail-scan arithmetic (_lhs) on one raw integral.
    """
    cond = _condition(condition_id, beta)
    raw = _integrals(spec, cond.kernel_at(beta), (x,), (delta,))
    lhs, err = _lhs(spec, (x,), (d,), cond, beta, raw)
    return DriftPoint(x, delta, d, float(raw[0][0, 0]), float(lhs[0, 0, 0]), float(err[0, 0]))


def default_x_grid(n_per_side: int = 13, lo: float = 1e2, hi: float = 1e5) -> tuple:
    mags = np.geomspace(lo, hi, n_per_side)
    return tuple(np.concatenate([-mags[::-1], mags]))


def spans_three_decades(mags) -> bool:  # tail_scan's rule for |x| over x_grid
    return len(mags) > 0 and np.min(mags) > 0 and np.max(mags) / np.min(mags) >= 1e3


def decreasing(grid) -> bool:  # tail_scan's rule for delta_grid and d_grid
    return all(a > b for a, b in zip(grid, grid[1:]))


DEFAULT_DELTA_GRID = (0.5, 0.2, 0.1, 0.05)
DEFAULT_D_GRID = (0.1, 0.01, 0.001)


def threshold_for(
    spec: ChainSpec, condition_id: str, beta: float | None
) -> tuple[float, float]:
    """Threshold constant and its error estimate for a condition.

    Recurrence/ergodicity conditions compare against the threshold at
    the smallest limiting alpha (the display must hold for the worst
    index the chain keeps visiting); transience conditions use the
    largest limiting alpha.
    """
    cond = CONDITIONS[condition_id]
    alphas = spec.alpha_profile.limit_values()
    return cond.threshold(max(alphas) if cond.conclusion == "trans" else min(alphas), beta)


def tail_scan(
    spec: ChainSpec,
    x_grid=None,
    delta_grid=DEFAULT_DELTA_GRID,
    d_grid=None,
    condition_id: str = "mom_rec",
    beta: float | None = None,
    d_weight=None,
    integrals: dict | None = None,
) -> TailScanReport:
    """Scan the condition over (d, delta, x) in the display's nesting order.

    The reported tail_sup/tail_inf estimates are the extrema over the
    outer half (by |x|) of the grid at the smallest (delta, d). The
    scan error combines the worst quadrature error at that level,
    Richardson-style extrapolation gaps across the two smallest delta
    (and d) levels and across the outermost |x| magnitudes, and the
    threshold's own error estimate. When the per-magnitude aggregate
    is still moving toward the threshold side at the grid edge with
    non-decaying increments, the limiting value is not bracketed by
    any finite grid (trend_flag "diverging") and the margin is -inf.

    d_weight, if given, is a position-dependent multiplier on the
    d-term (the weighted-ergodicity displays use the target weight
    function there); it has no effect on conditions without a d-term.

    The raw integrals depend only on the kernel and the (x, delta) grid,
    not on d or the prefactor. integrals, if given, is a dict shared by
    scans of one classification: each raw-integral set is computed once
    and stored there for the other scans with the same kernel.
    """
    cond = _condition(condition_id, beta)
    kernel = cond.kernel_at(beta)
    if x_grid is None:
        x_grid = default_x_grid()
    x_grid = tuple(float(x) for x in x_grid)
    mags = np.abs(x_grid)
    if not spans_three_decades(mags):
        raise DomainError("x_grid must span at least 3 decades of |x|")
    delta_grid = tuple(delta_grid)
    if not decreasing(delta_grid):
        raise DomainError("delta_grid must be strictly decreasing")
    if d_grid is None:
        d_grid = DEFAULT_D_GRID if cond.d_term else (0.0,)
    d_grid = tuple(d_grid)
    if not decreasing(d_grid):
        raise DomainError("d_grid must be strictly decreasing")

    integrals = {} if integrals is None else integrals
    key = (spec, kernel, x_grid, delta_grid)
    if key not in integrals:
        integrals[key] = _integrals(spec, kernel, x_grid, delta_grid)
    raw = integrals[key]
    lhs, quad = _lhs(spec, x_grid, d_grid, cond, beta, raw, d_weight)
    raw_l, quad_l = raw[0].T.tolist(), quad.tolist()
    points = tuple(
        DriftPoint(x, delta, d, r, v, e)
        for d, lhs_d in zip(d_grid, lhs.tolist())
        for delta, lhs_dd, raw_d, quad_d in zip(delta_grid, lhs_d, raw_l, quad_l)
        for x, v, r, e in zip(x_grid, lhs_dd, raw_d, quad_d)
    )

    # every aggregate runs over the outer half (by |x|) of the grid;
    # sup/inf per (d, delta) level, and the finest level per magnitude
    outer = mags >= np.median(mags)
    sup = lhs[:, :, outer].max(axis=2).tolist()
    inf = lhs[:, :, outer].min(axis=2).tolist()
    worst_q = float(quad[-1, outer].max())
    is_lt = cond.conclusion != "trans"
    agg = sup if is_lt else inf
    final = agg[-1][-1]

    # Richardson-style linear extrapolation gaps toward delta -> 0, d -> 0
    def delta_gap_of(levels):
        if len(delta_grid) < 2:
            return 0.0
        v1, v2 = levels[-1][-2], levels[-1][-1]
        extrap = v2 + (v2 - v1) * delta_grid[-1] / (delta_grid[-2] - delta_grid[-1])
        return abs(v2 - extrap)

    inf_gap = delta_gap_of(inf)
    delta_gap = delta_gap_of(sup) if is_lt else inf_gap
    trend = "ok"
    if len(delta_grid) >= 3:
        v0, v1 = agg[-1][-3], agg[-1][-2]
        if (v1 - v0) * (final - v1) < 0 and abs(final - v1) > 1e-12:
            trend = "non-monotone"
    d_gap = 0.0
    if len(d_grid) >= 2:
        w1 = agg[-2][-1]
        extrap = final + (final - w1) * d_grid[-1] / (d_grid[-2] - d_grid[-1])
        d_gap = abs(final - extrap)

    # |x|-direction trend at the finest (d, delta) level: a grid extremum
    # only brackets the limiting sup/inf when the per-magnitude aggregate
    # has stopped drifting toward the threshold side. Geometric decay of
    # the increments gets extrapolated; non-decaying adverse increments
    # mean the limit is off the grid entirely (e.g. a d-term growing like
    # a power of |x|), so the condition must never certify.
    adverse = 1.0 if is_lt else -1.0
    level_agg = np.max if is_lt else np.min
    per_mag = [float(level_agg(lhs[-1, -1, mags == m])) for m in np.unique(mags[outer])]
    cert = final
    x_gap = 0.0
    noise = 4.0 * worst_q + 1e-12 * (1.0 + abs(final))
    if len(per_mag) >= 3:
        d1 = per_mag[-2] - per_mag[-3]
        d2 = per_mag[-1] - per_mag[-2]
        if adverse * d2 > noise:
            if adverse * d1 <= noise or abs(d2) >= 0.95 * abs(d1):
                trend = "diverging"
            else:
                ratio = abs(d2) / abs(d1)
                step = d2 * ratio / (1.0 - ratio)
                cert = per_mag[-1] + step
                x_gap = abs(step) + noise
                if trend == "ok":
                    trend = "extrapolated"

    thr, thr_err = threshold_for(spec, condition_id, beta)
    if trend == "diverging":
        margin = -math.inf
    else:
        margin = thr - cert if is_lt else cert - thr
    scan_error = worst_q + delta_gap + d_gap + x_gap + thr_err
    return TailScanReport(
        condition_id=condition_id,
        points=points,
        tail_sup_estimate=sup[-1][-1],
        tail_inf_estimate=inf[-1][-1],
        threshold=thr,
        margin=margin,
        beta=beta,
        scan_error=scan_error,
        trend_flag=trend,
        threshold_error=thr_err,
        quad_error=worst_q,
        inf_delta_gap=inf_gap,
    )
