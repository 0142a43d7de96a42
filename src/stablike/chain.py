"""Stable-like chain model: position-dependent jump profiles and stepping.

A chain is specified by three profiles over the real line: the jump
stability index alpha(x) in (0, 2), the finite scale gamma(x) > 0 and
the finite shift delta(x). From state x the chain jumps to x + J where
J is S(alpha(x), gamma(x), delta(x)). Profiles taking finitely many
values keep the heavy-tail uniformity assumptions valid by construction.
These rules are checked here only, however a chain is built: ProfileFn
checks each kind's fields and shape and ChainSpec the profile values.
Arbitrary callables are accepted behind an `unchecked` flag that marks
downstream verdicts as conditional.

simulate runs one path (an enumerable alpha profile only). Between the
edges of its profiles the chain is a plain random walk, so simulate
looks each profile up only when the path leaves the span its last
lookup gave, and every step still uses the values a lookup at x would
give; its docstring has the mechanics. A path that reaches
|x| >= FREEZE stays at +-FREEZE, the same rule the Monte Carlo
ensembles in `mc` apply.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, StablikeError
from .stable import cms_transform

FREEZE = 1e300  # overflow guard: transient low-index chains overflow doubles
_STEP_BLOCK = 4096  # steps per block of simulate's random stream
_HOLD = 256  # steps a stay in one cell takes one at a time before simulate sums the rest
_ABOVE_FREEZE = math.nextafter(-FREEZE, 0.0)  # the least state a path keeps
# the fields each profile kind takes beside its kind
_KINDS = {"constant": ("values",), "two_valued": ("values",), "periodic": ("values", "period"),
          "piecewise": ("values", "breakpoints"), "custom": ("fn",)}


@dataclass(frozen=True)
class ProfileFn:
    """Piecewise-constant (or custom callable) function of position.

    Representations:
      constant   one value everywhere
      two_valued left value for x < 0, right value for x >= 0
      periodic   step values on cells [k*w, (k+1)*w) of width w = period/len
      piecewise  breakpoints b_1 < ... < b_k with k+1 values; value[i] on
                 [b_i, b_{i+1}), value[0] left of b_1, value[k] from b_k on
      custom     arbitrary callable (no finiteness certification)

    A kind takes only its own fields: values (all but custom), period
    (periodic), breakpoints (piecewise) and fn (custom). Any other field
    must keep its default, or the profile is refused with DomainError.
    """

    kind: str
    values: tuple = ()
    breakpoints: tuple = ()
    period: float = 0.0
    fn: object = None

    def __post_init__(self):
        """Check the kind's fields and shape; cell, __call__ and at then index values safely."""
        if self.kind not in _KINDS:
            raise DomainError(f"profile kind must be one of {tuple(_KINDS)}, got {self.kind!r}")
        for f in fields(self)[1:]:  # every field but kind
            if f.name not in _KINDS[self.kind] and getattr(self, f.name) != f.default:
                raise DomainError(f"{self.kind} profile takes no {f.name}")
        if self.kind == "custom":
            if not callable(self.fn):
                raise DomainError("custom profile needs a callable fn")
            return
        n = len(self.values)
        want = n if self.kind == "periodic" else len(self.edges) + 1
        if not n or n != want:
            raise DomainError(f"{self.kind} profile takes {want or '>= 1'} value(s), got {n}")
        # a cell of width period / n must be a finite float > 0
        if self.kind == "periodic" and not 0.0 < self.period / n < math.inf:
            raise DomainError(f"periodic profile needs a finite period > 0, got {self.period}")
        b = self.breakpoints
        if not all(map(math.isfinite, b)) or any(b1 >= b2 for b1, b2 in zip(b, b[1:])):
            raise DomainError("piecewise breakpoints must be finite and strictly increasing")

    @classmethod
    def constant(cls, v: float) -> "ProfileFn":
        return cls("constant", values=(float(v),))

    @classmethod
    def two_valued(cls, left: float, right: float) -> "ProfileFn":
        return cls("two_valued", values=(float(left), float(right)))

    @classmethod
    def periodic(cls, period: float, values) -> "ProfileFn":
        return cls("periodic", values=tuple(float(v) for v in values), period=float(period))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "ProfileFn":
        return cls("piecewise", values=tuple(float(v) for v in values),
                   breakpoints=tuple(float(b) for b in breakpoints))

    @classmethod
    def custom(cls, fn) -> "ProfileFn":
        return cls("custom", fn=fn)

    def __call__(self, x: float) -> float:
        return self.cell(x)[2]

    def cell(self, x: float) -> tuple:
        """(lo, hi, value): the value at x and a span [lo, hi) that keeps it.

        The profile takes value at every position of [lo, hi), which holds
        x, unless lo == hi: an empty span tells nothing, and the caller
        looks up again at its next position. The span may be smaller than
        the profile's true cell; a custom profile's is always empty. A
        non-finite x raises DomainError.
        """
        if not -math.inf < x < math.inf:
            raise DomainError(f"profile position must be finite, got {x}")
        v = self.values
        if self.kind == "periodic":
            n = len(v)
            cell_w = self.period / n
            r = x % self.period
            i = min(math.floor(r / cell_w), n - 1)
            # within one period r is x minus a fixed multiple of the period,
            # rounded at most once, so the index never falls as x grows; the
            # cell [i*w, (i+1)*w) moved back around x is off by under 4 ulps
            # of |x| + period, and 8 ulps trimmed from each end keep it inside
            end = (i + 1) * cell_w if i < n - 1 else self.period
            trim = 8.0 * math.ulp(abs(x) + self.period)
            lo, hi = x - (r - i * cell_w) + trim, x + (end - r) - trim
            return (lo, hi, v[i]) if lo <= x < hi else (x, x, v[i])
        if self.kind == "custom":
            return x, x, float(self.fn(x))
        b = self.edges
        i = bisect.bisect_right(b, x)  # as searchsorted(side="right") in at; -0.0 is 0.0
        return (b[i - 1] if i else -math.inf), (b[i] if i < len(b) else math.inf), v[i]

    @property
    def edges(self) -> tuple:
        """Where a constant, two-valued or piecewise profile changes value.

        (0.0,) for two-valued, the breakpoints otherwise (() for a
        constant); values[i] holds on [edges[i - 1], edges[i]).
        """
        return (0.0,) if self.kind == "two_valued" else self.breakpoints

    def at(self, x) -> np.ndarray:
        """Vectorized lookup over an array of positions; the ensembles step through it.

        The result is a float array of x's shape, 0-d for a 0-d x. A two-valued
        profile is np.where(x < 0, left, right) bit for bit, taken without
        np.where's branch, which mispredicts on states of mixed sign. A periodic
        or piecewise profile rejects a non-finite position with DomainError;
        constant and two-valued ones take any position. A custom fn is called
        once on the whole array, and once per position only if that call returns
        no float array of x's shape or raises anything but a StablikeError.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.values[0])
        if self.kind == "two_valued":
            return np.take(self.values, ~(x < 0))[...]  # [...]: a 0-d x gives a 0-d array
        if self.kind != "custom" and not np.isfinite(x).all():
            raise DomainError("profile positions must be finite")
        if self.kind == "periodic":
            cell_w = self.period / len(self.values)
            idx = np.floor((x % self.period) / cell_w).astype(int)
            idx = np.minimum(idx, len(self.values) - 1)
            return np.asarray(self.values)[idx, ...]  # a 0-d idx gives a 0-d array
        if self.kind == "piecewise":
            idx = np.searchsorted(self.breakpoints, x, side="right")
            return np.asarray(self.values)[idx, ...]
        try:
            v = self.fn(x)
        except StablikeError:
            raise  # a fault the fn reports on purpose, whatever its input
        except Exception:  # a scalar-only fn; the per-position calls raise a real fault
            v = None
        if isinstance(v, np.ndarray) and v.dtype == float and v.shape == x.shape:
            return v
        return np.vectorize(self.fn, otypes=[float])(x)

    def value_set(self) -> tuple:
        """All attainable values; undecidable for custom profiles."""
        if self.kind == "custom":
            raise DomainError("custom profiles have no enumerable value set")
        return tuple(sorted(set(self.values)))

    def limit_values(self) -> tuple:
        """Values attained at arbitrarily large |x| (both directions)."""
        if self.kind == "custom":
            raise DomainError("custom profiles have no enumerable limit set")
        if self.kind == "piecewise":
            return tuple(sorted({self.values[0], self.values[-1]}))
        return self.value_set()


@dataclass(frozen=True)
class SasJump:
    """Jump family: symmetric stable steps with profile-driven parameters."""

    gamma_profile: ProfileFn
    delta_profile: ProfileFn


@dataclass(frozen=True)
class ChainSpec:
    """Full chain description; immutable and shareable across workers."""

    alpha_profile: ProfileFn
    family: SasJump
    unchecked: bool = False

    def __post_init__(self):
        if self.unchecked:
            return
        if any(p.kind == "custom" for p in self.profiles):
            raise DomainError(
                "custom profiles require the unchecked=True constructor flag"
            )
        a_fn, g_fn, d_fn = self.profiles
        for a in a_fn.value_set():
            if not 0.0 < a < 2.0:
                raise DomainError(f"alpha profile value {a} outside (0, 2)")
        for g in g_fn.value_set():
            if not 0.0 < g < math.inf:
                raise DomainError(f"gamma profile value {g} must be finite and > 0")
        for d in d_fn.value_set():
            if not np.isfinite(d):
                raise DomainError(f"delta profile value {d} must be finite")

    @property
    def profiles(self) -> tuple:
        """(alpha, gamma, delta): the chain's three profiles."""
        return self.alpha_profile, self.family.gamma_profile, self.family.delta_profile


@dataclass(frozen=True)
class Trajectory:
    start: float
    states: np.ndarray
    seed: int


def _whole(value) -> bool:
    """value is a whole number (2.0 is one), and no bool, which would count as 0 or 1."""
    return not isinstance(value, (bool, np.bool_)) and float(value).is_integer()


def _count(name: str, value, least: int) -> int:
    """value as an int if it is a whole number >= least; DomainError otherwise."""
    if not (value >= least and _whole(value)):
        raise DomainError(f"{name} must be >= {least} and whole, got {value}")
    return int(value)


def _start(x0: float) -> float:
    """x0 as a float if it is finite; DomainError otherwise."""
    if not -math.inf < x0 < math.inf:
        raise DomainError(f"start point must be finite, got {x0}")
    return float(x0)


def make_chain(alpha, gamma=1.0, delta=0.0, unchecked: bool = False) -> ChainSpec:
    """ChainSpec from profiles or bare numbers (numbers become constants)."""

    def as_profile(v) -> ProfileFn:
        return v if isinstance(v, ProfileFn) else ProfileFn.constant(float(v))

    return ChainSpec(
        as_profile(alpha),
        SasJump(as_profile(gamma), as_profile(delta)),
        unchecked=unchecked,
    )


def simulate(spec: ChainSpec, x0: float, n_steps: int, seed: int) -> Trajectory:
    """Single path of n_steps transitions from x0 with a derived stream.

    states[0] is the state after the first step. default_rng(
    SeedSequence(seed)) is read in whole blocks of 4096 steps: 4096
    uniform angles on (-pi/2, pi/2), then 4096 standard exponentials, so
    a longer run extends a shorter one. One cms_transform call per block
    gives each step a jump J for every alpha value, and a step sets
    x <- x + delta(x) + gamma(x) * J with J from the row of alpha(x).

    A chain whose profiles are all constant, two-valued or piecewise has
    finitely many joint cells. It builds their table once (_joint_cells),
    and a step that leaves its cell reads the next one with one bisect.
    A periodic or custom profile is looked up (ProfileFn.cell) only when
    x has left the span its last lookup gave; custom gamma and delta
    give empty spans, so they are looked up on every step. Either way
    every step uses the values a lookup at x would give, and the states
    do not depend on how often the lookups run. A custom alpha profile
    raises DomainError, and so do a non-finite x0 and an n_steps that is
    not a whole number >= 1 (2.0 is 2; a bool is refused). Once |x| >= FREEZE
    or x is not finite, the path stays at +-FREEZE.

    Inside the joint span of the three profiles the chain is a plain
    random walk, so a long stay in one cell is a running sum. Short stays
    run in a per-step loop; once a stay has lasted _HOLD steps without a
    lookup, _finish_stay sums the rest of it in numpy windows up to the
    block end, in the same operations and order, so the states are the
    same floats. _HOLD trades the per-step loop's cost on a long stay
    (some 0.2 us a step) against a window's fixed cost (some 10 us),
    which is lost on a stay that ends soon after the window opens; a
    chain whose stays are all short never opens one.
    """
    n_steps = _count("n_steps", n_steps, 1)
    a_fn, g_fn, d_fn = profiles = spec.profiles
    alphas = a_fn.value_set()
    row_of = {a: i for i, a in enumerate(alphas)}
    a_col = np.array(alphas)[:, None]
    x = _start(x0)
    edges, cells = _joint_cells(profiles, row_of)
    bisect_right = bisect.bisect_right
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    states = np.empty(n_steps)
    buf = np.empty(2 * _STEP_BLOCK + 1)  # one window: [x, d, g*J, d, g*J, ...]
    # nan spans hold no x, so the first step looks every profile up
    lo = hi = a_lo = a_hi = g_lo = g_hi = d_lo = d_hi = math.nan
    row = 0
    last = 0  # the step of the last lookup, counted from the block's start
    for start in range(0, n_steps, _STEP_BLOCK):
        u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, _STEP_BLOCK)
        e = rng.standard_exponential(_STEP_BLOCK)
        table = cms_transform(a_col, u, e)
        rows = None  # the table as Python floats, made once the per-step loop needs it
        m = min(_STEP_BLOCK, n_steps - start)
        block = []  # the per-step loop's states, from states[start + j - len(block)]
        j = 0
        while j < m:
            if j - last > _HOLD:
                if cells is None:
                    lo = max(a_lo, g_lo, d_lo, _ABOVE_FREEZE)
                    hi = min(a_hi, g_hi, d_hi, FREEZE)
                if lo <= x < hi:
                    at = start + j
                    states[at - len(block):at] = block
                    block = []
                    kept = _finish_stay(buf, states[at:start + m], x, d, g,
                                        table[row, j:m], lo, hi, j - last - 1)
                    if kept:
                        x = float(states[at + kept - 1])
                        j += kept
                    if j == m:
                        break
            # up to the step at which the stay would reach _HOLD, one step at least
            stop = last + _HOLD + 1
            if stop > m:
                stop = m
            elif stop <= j:
                stop = j + 1
            if rows is None:
                rows = table.tolist()
                jumps = rows[row]
            if cells is not None:
                for j in range(j, stop):
                    if not lo <= x < hi:
                        lo, hi, row, g, d = cells[bisect_right(edges, x)]
                        jumps = rows[row]
                        last = j
                    x_new = x + d + g * jumps[j]
                    if not -FREEZE < x_new < FREEZE:
                        return _frozen(x0, states, block, start + j, x, x_new, seed)
                    x = x_new
                    block.append(x)
            else:
                for j in range(j, stop):
                    if not a_lo <= x < a_hi:
                        a_lo, a_hi, a = a_fn.cell(x)
                        row = row_of[a]
                        jumps = rows[row]
                        last = j
                    if not g_lo <= x < g_hi:
                        g_lo, g_hi, g = g_fn.cell(x)
                        last = j
                    if not d_lo <= x < d_hi:
                        d_lo, d_hi, d = d_fn.cell(x)
                        last = j
                    x_new = x + d + g * jumps[j]
                    if not -FREEZE < x_new < FREEZE:
                        return _frozen(x0, states, block, start + j, x, x_new, seed)
                    x = x_new
                    block.append(x)
            j = stop
        states[start + m - len(block):start + m] = block
        last -= _STEP_BLOCK
    return Trajectory(float(x0), states, seed)


def _joint_cells(profiles, row_of):
    """simulate's table of joint cells: (edges, cells), or (None, None).

    A chain whose profiles are all constant, two-valued or piecewise has
    finitely many joint cells. edges is the sorted union of the
    profiles' edges (ProfileFn.edges), and cells[bisect_right(edges, x)]
    is (lo, hi, alpha row, gamma, delta) for the cell that holds x: its
    span, clipped to the open span of FREEZE, and the values
    ProfileFn.cell gives at its left edge. No profile changes value
    inside a joint cell, so these are the values a lookup at any x of
    the cell gives; -0.0 sorts as 0.0, into the cell right of an edge at
    0. A periodic or custom profile has no finite union of edges, and
    gives (None, None).
    """
    if any(p.kind in ("periodic", "custom") for p in profiles):
        return None, None
    edges = sorted({b for p in profiles for b in p.edges})
    bounds = [-math.inf, *edges, math.inf]
    cells = []
    for lo, hi in zip(bounds, bounds[1:]):
        # the leftmost cell is read at -max float; if that is its right edge, it holds no x
        a, g, d = (p.cell(max(lo, -sys.float_info.max))[2] for p in profiles)
        cells.append((max(lo, _ABOVE_FREEZE), min(hi, FREEZE), row_of[a], g, d))
    return edges, cells


def _frozen(x0, states, block, at, x, x_new, seed) -> Trajectory:
    """The path whose step at left the open span of FREEZE: +-FREEZE from there on.

    block holds the per-step loop's states before at. A nan step (inf *
    0 in the transform) keeps the sign of the state before it.
    """
    states[at:] = math.copysign(FREEZE, x if math.isnan(x_new) else x_new)
    states[at - len(block):at] = block
    return Trajectory(float(x0), states, seed)


def _finish_stay(buf, out, x, d, g, jumps, lo, hi, held) -> int:
    """States of a stay in one cell from x on; returns how many it wrote.

    out and jumps are equal-length views: the states from the stay's next
    step to the block end, and the jumps they take. buf holds
    [x, d, g*J_0, d, g*J_1, ...]; summed left to right by np.add.accumulate
    it holds at every other place exactly the per-step loop's
    x + d + g * J. It is summed in windows: the stay has lasted held steps,
    and each window takes as many more, so windows double, and each starts
    from the last state of the one before. The first state outside
    [lo, hi) ends the stay: one that left the cell is kept, one at
    +-FREEZE or nan is left to the per-step loop (lo and hi are clipped to
    the open span of FREEZE).
    """
    done, n = 0, len(out)
    buf[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # inf jumps meet in the sums
        while done < n:
            w = min(held, n - done)
            acc = buf[2 * done:2 * (done + w) + 1]
            acc[1::2] = d
            s = acc[2::2]
            np.multiply(jumps[done:done + w], g, out=s)
            np.add.accumulate(acc, out=acc)
            if not (np.minimum.reduce(s) >= lo and np.maximum.reduce(s) < hi):  # nan fails
                k = int(np.argmin((s >= lo) & (s < hi)))
                if -FREEZE < s[k] < FREEZE:
                    k += 1
                done += k
                break
            done += w
            held += w
    out[:done] = buf[2:2 * done + 1:2]
    return done
