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
The three shifted kernels are one closed form in the even and odd parts
of log(1 + t), log1p(-t^2)/2 and atanh(t) (kernel_parts).

One engine integrates a whole x grid in one call (_integrals): the x
that share (alpha, gamma, shift) read one cumulative Gauss-Kronrod rule
from 0 at their bounds (DensityTable), a few rows (_BLOCK node entries)
at a time. A shifted density adds a pass over z < 0 folded onto u = -z,
so a shift larger than delta*|x| needs no branch of its own. An
unshifted group evaluates each |x| once, for x and -x; the kernels take
the whole-cell nodes as one 1-d vector and work in arrays of their own.

A tail scan is array-native: it keeps its (d, delta, x) arrays of
left-hand sides, raw integrals and errors, and builds the DriftPoint of
each (x, delta, d) only when report.points is first read (the
drift-scan CSV and tests read it; classify does not). The per-x data of
one (spec, x grid), the (alpha, gamma, shift) regimes with their tail
constants and the display prefactors |x|^(a+p)/c(x), is looked up once
(_Grid) and shared by the scans of one classification beside their
raw-integral sets; nothing is kept from one classification to the next.

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
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec
from .errors import DomainError
from .stable import DensityTable, StableParams, tail_constant
from .thresholds import r1, r2, t as t_threshold

_BLOCK = 1 << 14  # float64 entries of one x block's node temporary (128 KB); ~16 per rule cell
_T_MAX = 1.0 - 2.0 ** -53  # largest double below 1
_SETTLING = 0.95  # tail_scan's |x| trend: increments shrinking slower per grid step diverge

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
    """Aggregates of one tail scan, with its grids and (d, delta, x) arrays.

    points, the DriftPoint of every (x, delta, d) in the display's
    nesting order, is built from the arrays when first read.
    """

    condition_id: str
    tail_sup_estimate: float
    tail_inf_estimate: float
    threshold: float
    margin: float
    beta: float | None = None
    scan_error: float = 0.0
    trend_flag: str = "ok"  # "ok" | "non-monotone" | "extrapolated" | "diverging"
    # finest (d, delta) level, outer half of the grid: the worst
    # quadrature error and the delta-extrapolation gap of tail_inf
    quad_error: float = 0.0
    inf_delta_gap: float = 0.0
    # the scan's grids; raw_integrals[x, delta], lhs[d, delta, x], quad[delta, x]
    x_grid: tuple = field(default=(), repr=False, compare=False)
    delta_grid: tuple = field(default=(), repr=False, compare=False)
    d_grid: tuple = field(default=(), repr=False, compare=False)
    raw_integrals: np.ndarray | None = field(default=None, repr=False, compare=False)
    lhs: np.ndarray | None = field(default=None, repr=False, compare=False)
    quad: np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def points(self) -> tuple:
        if self.lhs is None:
            return ()
        raw_l, quad_l = self.raw_integrals.T.tolist(), self.quad.tolist()
        return tuple(
            DriftPoint(x, delta, d, r, v, e)
            for d, lhs_d in zip(self.d_grid, self.lhs.tolist())
            for delta, lhs_dd, raw_d, quad_d in zip(self.delta_grid, lhs_d, raw_l, quad_l)
            for x, v, r, e in zip(self.x_grid, lhs_dd, raw_d, quad_d)
        )


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


def kernel_parts(kernel: DriftKernel, x: float):
    """Evaluator y -> (E(y), O(y)) over arrays, with sgn(x) factored out.

    E and O are the even and odd parts of the shifted kernel in y; the
    caller multiplies O by sgn(x). Every shifted kernel is read off the
    same two arrays u = log1p(-t^2)/2 and a = atanh(t), the even and odd
    parts of log(1 + t). The log kernel is (u, a) itself; the power and
    bounded kernels take (1 +- t)^s = e^(su) e^(+-sa), s = beta or -beta:

      E = expm1(su) + 2 e^(su) sinh^2(sa/2),   O = e^(su) sinh(sa)

    which keeps full relative precision wherever t^2 is a normal double,
    up to the factor 1/|1 - s| that the cancellation in E ~ s(s - 1)t^2/2
    itself costs. t is clipped an ulp inside (-1, 1), so a block of rows
    may evaluate a row past its integration range, which lies in |t| <=
    delta < 1. y broadcasts against x; the evaluator writes only into
    arrays it makes, and the first moment's O is y itself, not a copy.
    """
    ax = abs(x)
    kind = kernel.kind
    if kind == "first_moment":
        return lambda y: (np.zeros_like(y), y)
    s, den, flip = None, 1.0 + ax, 1.0  # log_shift: (u, a) as they are
    if kind == "power_beta":
        s, den = kernel.beta, ax
    elif kind == "bounded_beta":  # 1 - (1+t)^(-b) negates both parts of (1+t)^(-b)
        s, flip = -kernel.beta, -1.0

    def eo(y):
        # in place, in arrays made here: t -> a -> sa -> O, u -> su -> E
        t = np.divide(y, den, out=np.empty(np.broadcast(y, den).shape))
        np.clip(t, -_T_MAX, _T_MAX, out=t)
        u = np.negative(t, out=np.empty_like(t))
        np.log1p(np.multiply(u, t, out=u), out=u)
        u *= 0.5
        a = np.arctanh(t, out=t)
        if s is None:
            return u, a
        u *= s
        a *= s
        h = np.multiply(a, 0.5, out=np.empty_like(a))
        np.sinh(h, out=h)
        g = np.exp(u, out=np.empty_like(u))
        g *= flip
        np.expm1(u, out=u)  # E = flip expm1(su) + 2 g h h
        u *= flip
        np.sinh(a, out=a)  # O = g sinh(sa)
        a *= g
        g *= 2.0
        g *= h
        g *= h
        u += g
        return u, a

    return eo


def truncated_integral(
    spec: ChainSpec, x: float, delta: float, kernel: DriftKernel
) -> float:
    value, _ = truncated_integral_with_error(spec, x, delta, kernel)
    return value


def truncated_integral_with_error(
    spec: ChainSpec, x: float, delta: float, kernel: DriftKernel
) -> tuple[float, float]:
    """Integral of kernel(y) times the jump density from x over |y| <= delta*|x|.

    One point of the engine that tail scans run over whole grids: the
    per-alpha Gauss-Kronrod rule of DensityTable, whose nodes carry the
    density engine's own values. The error estimate sums, over the
    rule's cells, the Kronrod minus Gauss difference of kernel times
    density, the engine's error weighted by |kernel|, and a few ulp of
    sum |w kernel f| for summation rounding.
    """
    value, err = _integrals(_Grid(spec, (x,)), kernel, (delta,))
    return float(value[0, 0]), float(err[0, 0])


class _Grid:
    """The one map from an x grid to regimes and tail constants.

    Each profile is read once per grid, through ProfileFn.at. groups maps
    each regime, the (alpha, gamma, shift) triple, to the indices of the
    x in it, and c to its tail constant c(alpha, gamma). Every scan over
    one (spec, x grid) and classify's small-index check read their
    regimes here. What only the scans read is built when a scan first
    reads it: prefs, outer and trend_cells.
    """

    def __init__(self, spec: ChainSpec, x_grid):
        self.xs = np.asarray(x_grid, dtype=float)
        if not (np.isfinite(self.xs) & (self.xs != 0.0)).all():
            raise DomainError("x must be finite and nonzero")
        self.groups = {}
        for i, key in enumerate(zip(*(p.at(self.xs).tolist() for p in spec.profiles))):
            self.groups.setdefault(key, []).append(i)
        self.c = {key: tail_constant(StableParams(*key[:2])) for key in self.groups}

    @functools.cached_property
    def prefs(self) -> dict:
        """moment -> the display prefactor |x|^(alpha + p)/c per x.

        p = -1 for the first-moment displays (moment True), 0 otherwise.
        """
        prefs = {moment: np.empty_like(self.xs) for moment in (False, True)}
        for key, idx in self.groups.items():
            for moment, pref in prefs.items():
                power = key[0] - 1.0 if moment else key[0]
                pref[idx] = [abs(x) ** power / self.c[key] for x in self.xs[idx].tolist()]
        return prefs

    @functools.cached_property
    def outer(self) -> np.ndarray:
        """Mask of the outer half of the grid by |x|."""
        mags = np.abs(self.xs)
        return mags >= np.median(mags)

    @functools.cached_property
    def trend_cells(self) -> tuple:
        """(cell_of, n_mags, last3, gaps): the outer x by regime and magnitude.

        cell_of numbers each outer x by its regime r (in groups' order)
        and the rank k of its |x| among the n_mags distinct outer
        magnitudes, as r * n_mags + k. Each row of last3 holds the cells
        of the three largest magnitudes of one regime; a regime with
        fewer than 3 outer magnitudes has no row. A regime's magnitudes
        need not be neighbours in rank: gaps[i] holds the two rank steps
        of row i, (1, 1) when its ranks are consecutive.
        """
        mags = np.abs(self.xs)
        ranks = np.unique(mags[self.outer], return_inverse=True)[1]
        n_mags = int(ranks.max()) + 1
        regime = np.empty(len(self.xs), dtype=int)
        for r, idx in enumerate(self.groups.values()):
            regime[idx] = r
        cell_of = regime[self.outer] * n_mags + ranks
        present = np.zeros((len(self.groups), n_mags), dtype=bool)
        present.flat[cell_of] = True
        above = present[:, ::-1].cumsum(axis=1)[:, ::-1]  # a regime's magnitudes at or above k
        regimes, ranks3 = np.nonzero(present & (above <= 3) & (above[:, :1] >= 3))
        ranks3 = ranks3.reshape(-1, 3)
        gaps = np.diff(ranks3, axis=1).tolist()
        return cell_of, n_mags, regimes[::3, None] * n_mags + ranks3, gaps


def _settling_ratio(ratio: float, g1: int, g2: int) -> float:
    """The per-rank ratio r of a geometric trend whose increments over g1,
    then g2 ranks of |x| have this ratio.

    Such increments are C r^k (1 - r^g1) and C r^(k+g1) (1 - r^g2), so
    ratio = r^g1 (1 - r^g2) / (1 - r^g1), which rises with r from 0 to
    g2/g1 on [0, 1); r is found by bisection, to 1 when ratio >= g2/g1.
    """
    if g1 == g2 == 1:
        return ratio
    lo, hi = 0.0, 1.0
    for _ in range(40):
        r = 0.5 * (lo + hi)
        if r ** g1 * (1.0 - r ** g2) / (1.0 - r ** g1) < ratio:
            lo = r
        else:
            hi = r
    return hi


def _cumulative(table: DensityTable, kern, v):
    """Integrals of kern(u) * density(u) over [0, v] and their errors.

    v holds the bounds of a block of x rows, one row per x. kern maps the
    whole cells' u, one 1-d vector for every row, and the cut cells' u,
    (rows, n), to the rows' kernel values, (rows, n). One cumsum per row
    sums the whole rule cells below each bound; the cell that a bound
    cuts comes from the table's memo of cut cells. A row reads no cell
    past its own bounds, so its values depend neither on its block nor
    on its number of bounds. The error of a cell is its Kronrod minus
    Gauss difference plus the density's error and summation rounding,
    weighted by |kern|.
    """
    edges, nodes, weights, diff, bound = table.rule(v.max())
    ip = np.searchsorted(edges, v, side="right") - 1
    n, (rows, k), m = ip.max(), v.shape, nodes.shape[1]
    c_nodes, c_weights, c_diff, c_bound = table.cut(v.ravel())
    g_full = kern(nodes[:n].ravel()).reshape(rows, n, m)
    g_cut = kern(c_nodes.reshape(rows, m * k)).reshape(-1, m)

    def sums(w, d, b, g):
        return (w * g).sum(axis=-1), np.abs((d * g).sum(axis=-1)) + (b * np.abs(g)).sum(axis=-1)

    val, err = sums(weights[:n], diff[:n], bound[:n], g_full)
    pv, pe = sums(c_weights, c_diff, c_bound, g_cut)
    cum_v, cum_e = np.zeros((2, rows, n + 1))
    np.cumsum(val, axis=1, out=cum_v[:, 1:])
    np.cumsum(err, axis=1, out=cum_e[:, 1:])
    return (np.take_along_axis(cum_v, ip, axis=1) + pv.reshape(rows, k),
            np.take_along_axis(cum_e, ip, axis=1) + pe.reshape(rows, k))


def _integrals(grid: _Grid, kernel: DriftKernel, deltas):
    """Raw integrals and their error estimates, both of shape (x, delta).

    In z = (y - shift)/gamma the jump density is the table's. A pass
    over z >= 0 (side 1), or over z < 0 folded onto u = -z (side -1),
    reads _cumulative at its bounds +-(L -+ shift)/gamma clipped at 0:
    the integral is the upper read minus the lower one. A symmetric
    group needs only the first pass, of twice the even kernel part, and
    its rows at x and -x are one row, evaluated once per distinct |x|.
    whole writes into the arrays of kernel_parts' evaluator.
    """
    xs = grid.xs
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {delta}")
    L = np.asarray(deltas, dtype=float) * np.abs(xs)[:, None]
    k = L.shape[1]
    val, err = np.zeros_like(L), np.zeros_like(L)
    for (alpha, g, m), idx in grid.groups.items():
        if kernel.kind == "first_moment" and m == 0.0:
            # odd kernel against an even density: exactly zero
            continue
        # an unshifted group's rows at x and -x are one row: one per |x|
        keys = np.abs(xs[idx]) if m == 0.0 else xs[idx]
        first, mirror = np.unique(keys, return_index=True, return_inverse=True)[1:]
        todo = [idx[i] for i in first.tolist()]
        table = DensityTable.for_alpha(alpha)
        edges = table.rule((L[todo].max() + abs(m)) / g)[0]
        step = max(1, _BLOCK // (16 * len(edges)))
        for b in range(0, len(todo), step):
            rows = todo[b:b + step]
            x, Lr = xs[rows, None], L[rows]
            eo = kernel_parts(kernel, x)
            # the shifted kernels compose as g(sgn(x) * t), so their odd
            # part carries sgn(x); the first-moment kernel is plain y and
            # must not, the display-level sgn(x) is applied by _lhs instead
            sgn = np.where((x > 0) | (kernel.kind == "first_moment"), 1.0, -1.0)

            def whole(y):
                ev, od = eo(y)
                if m == 0.0:  # never the first moment, whose od is y itself
                    return np.multiply(ev, 2.0, out=ev)
                od = sgn * od if kernel.kind == "first_moment" else np.multiply(od, sgn, out=od)
                return np.add(od, ev, out=od)

            v = e = 0.0
            for side in (1.0,) if m == 0.0 else (1.0, -1.0):
                ends = np.maximum(np.concatenate([Lr - side * m, -Lr - side * m], axis=1) / g, 0.0)
                cv, ce = _cumulative(table, lambda u: whole(side * g * u + m), ends)
                v, e = v + cv[:, :k] - cv[:, k:], e + ce[:, :k] + ce[:, k:]
            val[rows], err[rows] = v, e
        val[idx], err[idx] = val[todo][mirror], err[todo][mirror]
    return val, err


def _condition(condition_id: str, beta: float | None) -> Condition:
    cond = CONDITIONS.get(condition_id)
    if cond is None:
        raise DomainError(f"unknown condition id {condition_id}")
    if cond.needs_beta and beta is None:
        raise DomainError(f"{condition_id} requires beta")
    return cond


def _lhs(grid, d_grid, cond, beta, raw, d_weight=None):
    """Normalized left-hand sides lhs[d, delta, x] and errors err[delta, x].

    raw is the (values, errors) pair of _integrals, each of shape (x,
    delta). The first-moment displays carry sgn(x); the d-term
    (times d_weight) is evaluated per x in Python floats, where numpy's
    vectorised power would differ by an ulp.
    """
    moment = cond.kernel == "first_moment"
    prefs = grid.prefs[moment]
    sign = np.sign(grid.xs) if moment else 1.0
    dterm = cond.d_term or (lambda x, d, beta: 0.0)
    x_grid = grid.xs.tolist()
    weights = [1.0 if d_weight is None else d_weight(x) for x in x_grid]
    shift = np.array([
        [p * (dterm(x, d, beta) * w) for x, p, w in zip(x_grid, prefs.tolist(), weights)]
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
    grid = _Grid(spec, (x,))
    raw = _integrals(grid, cond.kernel_at(beta), (delta,))
    lhs, err = _lhs(grid, (d,), cond, beta, raw)
    return DriftPoint(x, delta, d, float(raw[0][0, 0]), float(lhs[0, 0, 0]), float(err[0, 0]))


def default_x_grid(n_per_side: int = 13, lo: float = 1e2, hi: float = 1e5) -> tuple:
    mags = np.geomspace(lo, hi, n_per_side)
    return tuple(np.concatenate([-mags[::-1], mags]))


def spans_three_decades(mags) -> bool:  # tail_scan's rule for |x| over x_grid
    return len(mags) > 0 and np.min(mags) > 0 and np.max(mags) / np.min(mags) >= 1e3


def decreasing(grid) -> bool:  # tail_scan's rule for delta_grid and d_grid
    return len(grid) > 0 and all(a > b for a, b in zip(grid, grid[1:]))


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
    threshold's own error estimate. The delta -> 0 gap needs two delta
    levels, so a delta_grid of fewer is refused: with one, the gap would
    read 0 and a display could fire on a single truncation. When the
    per-magnitude aggregate, or the per-magnitude value of any one
    regime, is still moving toward the threshold side at the grid edge
    with non-decaying increments, the limiting value is not bracketed by
    any finite grid (trend_flag "diverging") and the margin is -inf.
    Increments that settle toward the threshold side are extrapolated,
    for the aggregate and each regime alike, and the most adverse limit
    is certified. trend_flag is "extrapolated" whenever the
    |x| extrapolation widened the error, else "non-monotone" when the
    aggregate turns over the three smallest delta levels, which widens
    nothing.

    d_weight, if given, is a position-dependent multiplier on the
    d-term (the weighted-ergodicity displays use the target weight
    function there); it has no effect on conditions without a d-term.

    The raw integrals depend only on the kernel and the (x, delta) grid,
    not on d or the prefactor. integrals, if given, is a dict shared by
    the scans of one classification: each raw-integral set is computed
    once and stored there for the other scans with the same kernel, and
    so is the per-x data of each (spec, x grid) for every scan over it.
    The report keeps the scan's arrays; its points are built on demand.
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
    if len(delta_grid) < 2 or not decreasing(delta_grid):
        raise DomainError("delta_grid must hold at least two strictly decreasing levels")
    if d_grid is None:
        d_grid = DEFAULT_D_GRID if cond.d_term else (0.0,)
    d_grid = tuple(d_grid)
    if not decreasing(d_grid):
        raise DomainError("d_grid must be non-empty and strictly decreasing")

    integrals = {} if integrals is None else integrals
    if (spec, x_grid) not in integrals:
        integrals[spec, x_grid] = _Grid(spec, x_grid)
    grid = integrals[spec, x_grid]
    key = (spec, kernel, x_grid, delta_grid)
    if key not in integrals:
        integrals[key] = _integrals(grid, kernel, delta_grid)
    raw = integrals[key]
    lhs, quad = _lhs(grid, d_grid, cond, beta, raw, d_weight)

    # every aggregate runs over the outer half (by |x|) of the grid;
    # sup/inf per (d, delta) level, and the finest level per magnitude
    outer = grid.outer
    sup = lhs[:, :, outer].max(axis=2).tolist()
    inf = lhs[:, :, outer].min(axis=2).tolist()
    worst_q = float(quad[-1, outer].max())
    is_lt = cond.conclusion != "trans"
    agg = sup if is_lt else inf
    final = agg[-1][-1]

    # Richardson-style linear extrapolation gaps toward delta -> 0, d -> 0
    def delta_gap_of(levels):
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
    # a power of |x|), so the condition must never certify. The test runs
    # first within each regime, on its three largest outer magnitudes: the
    # aggregate can turn back when its last magnitude's x lies in another
    # regime while every regime's value grows. Those magnitudes may skip
    # ranks, so a regime's increments are read per rank (_settling_ratio).
    # A regime that settles toward the adverse side is extrapolated like
    # the aggregate, and the most adverse limit is certified. A regime
    # with fewer than 3 outer magnitudes shows no trend of its own and is
    # only aggregated.
    adverse = 1.0 if is_lt else -1.0
    reduce = np.maximum if is_lt else np.minimum
    cell_of, n_mags, last3, gaps = grid.trend_cells
    per_cell = np.full(len(grid.groups) * n_mags, -adverse * math.inf)
    reduce.at(per_cell, cell_of, lhs[-1, -1, outer])
    per_mag = reduce.reduce(per_cell.reshape(-1, n_mags), axis=0).tolist()
    cert = final
    x_gap = 0.0
    noise = 4.0 * worst_q + 1e-12 * (1.0 + abs(final))

    def trend_step(d1, d2, g1=1, g2=1):
        """How far the value moves on past its last: None when it does not
        move toward the adverse side, inf when its increments there do
        not shrink by _SETTLING a rank, else the geometric remainder."""
        if adverse * d2 <= noise:
            return None
        if adverse * d1 <= noise:
            return math.inf
        ratio = _settling_ratio(abs(d2) / abs(d1), g1, g2)
        if ratio >= _SETTLING:
            return math.inf
        ratio **= g2
        return d2 * ratio / (1.0 - ratio)

    limits = []  # (last value, step) of each regime's trend toward the adverse side
    for (a, b, c), (g1, g2) in zip(per_cell[last3].tolist(), gaps):
        step = trend_step(b - a, c - b, g1, g2)
        if step is not None:
            limits.append((c, step))
    agg = None
    if len(per_mag) >= 3:
        agg = trend_step(per_mag[-2] - per_mag[-3], per_mag[-1] - per_mag[-2])
    steps = [step for _, step in limits] + ([] if agg is None else [agg])
    if math.inf in steps:
        trend = "diverging"
    elif steps:
        if agg is not None:  # the aggregate's limit replaces the grid extremum
            cert = per_mag[-1] + agg
        worst = max if is_lt else min
        cert = worst([cert] + [last + step for last, step in limits])
        x_gap = max(abs(step) for step in steps) + noise
        trend = "extrapolated"  # the label that says the error was widened

    thr, thr_err = threshold_for(spec, condition_id, beta)
    if trend == "diverging":
        margin = -math.inf
    else:
        margin = thr - cert if is_lt else cert - thr
    scan_error = worst_q + delta_gap + d_gap + x_gap + thr_err
    return TailScanReport(
        condition_id=condition_id,
        tail_sup_estimate=sup[-1][-1],
        tail_inf_estimate=inf[-1][-1],
        threshold=thr,
        margin=margin,
        beta=beta,
        scan_error=scan_error,
        trend_flag=trend,
        quad_error=worst_q,
        inf_delta_gap=inf_gap,
        x_grid=x_grid,
        delta_grid=delta_grid,
        d_grid=d_grid,
        raw_integrals=raw[0],
        lhs=lhs,
        quad=quad,
    )
