"""Monte Carlo diagnostics for chain verdicts.

These routines corroborate classifier output empirically; they never
replace it. The return, occupation and total-variation diagnostics
run the chain as a vectorized ensemble: paths are grouped into
fixed-size blocks, each block draws from its own stream spawned off
the master seed and steps to its end in one task (_ensemble) on a pool
of os.cpu_count() threads, and every step consumes one uniform angle
and one exponential per path in a fixed order. Blocks return integer
partial statistics, added in block order. That makes every statistic
bit-reproducible for identical (spec, args, seed) on any number of
threads, and makes return events for a given seed a prefix-stable
function of n_steps (longer runs extend, never rewrite, history).

Interval statistics that share a seed are read off one sweep:
interval_stats steps the ensemble once and updates every interval's
return and occupation counters on each step. mc-diagnose runs the sweep
and both TV starts as one batch (_run).

invariant_histogram reads one path of chain.simulate (block-drawn
stream, enumerable alpha only); the ensembles also take a custom alpha.

Heavy-tail guard: a path whose |state| reaches chain.FREEZE = 1e300 is
frozen there, here and in simulate alike, and counted as non-returning;
transient low-index chains can genuinely overflow doubles. A nan step
(inf * 0 in the CMS map at tiny alpha) freezes at +-FREEZE with the
sign of the state before it.

The total-variation diagnostic is a two-start proxy: the distance
between empirical laws started from two points, on a fixed histogram,
must drain to the sampling noise floor if the chain is ergodic. The
invariant law itself is unavailable, so there is nothing else to
compare against.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .chain import FREEZE, ChainSpec, simulate
from .errors import DomainError
from .stable import DensityGrid, cms_transform

_BLOCK = 8192
_HIST_HALF_RANGE = 500.0
MIN_BIN_WIDTH = 1e-3  # at most 10^6 bins over the histogram range
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class TrajectoryStats:
    """Ensemble return/occupation summary.

    return_fraction counts paths that entered the target set after
    first leaving it (paths started outside have trivially left).
    mean_return_time averages the first-entry step over returned paths
    and is nan when no path returned. occupation_fraction is the
    time-average indicator of the target set over the second half of
    each path, averaged over paths.
    """

    n_paths: int
    n_steps: int
    return_fraction: float
    mean_return_time: float
    occupation_fraction: float
    radius_a: float


@dataclass(frozen=True)
class TvEstimate:
    time_points: tuple
    tv_values: tuple
    bin_width: float
    n_paths: int


def _ensemble(spec: ChainSpec, x0: float, n_paths: int, n_steps: int,
              stream: np.random.SeedSequence):
    """Yield the states of one block of n_paths paths from x0 after each of n_steps steps.

    Each step draws every path's angle, then every exponential; |state| >= FREEZE stays.
    """
    rng = np.random.default_rng(stream)
    x = np.full(n_paths, float(x0))
    frozen = np.zeros(n_paths, dtype=bool)
    for _ in range(n_steps):
        u = rng.uniform(-_HALF_PI, _HALF_PI, n_paths)
        e = rng.standard_exponential(n_paths)
        a = spec.alpha_profile.at(x)
        g = spec.family.gamma_profile.at(x)
        d = spec.family.delta_profile.at(x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xn = x + d + g * cms_transform(a, u, e)
        np.clip(xn, -FREEZE, FREEZE, out=xn)
        nan = np.isnan(xn)  # a nan jump (inf * 0 in the transform) keeps the old sign
        if nan.any():
            xn[nan] = np.copysign(FREEZE, x[nan])
        x = np.where(frozen, x, xn)
        frozen |= np.abs(x) >= FREEZE
        yield x


def _blocks(read, n_paths: int, root: np.random.SeedSequence) -> list:
    """A task read(n, stream) per block of n <= _BLOCK paths, streams spawned off root."""
    sizes = [min(_BLOCK, n_paths - lo) for lo in range(0, n_paths, _BLOCK)]
    return [functools.partial(read, n, child) for n, child in zip(sizes, root.spawn(len(sizes)))]


# made on first use; numpy releases the GIL while a block steps
_pool = functools.cache(lambda: ThreadPoolExecutor(os.cpu_count()))
os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has none of its threads


def _run(*jobs) -> list:
    """Each job's result; a job is (n_steps, tasks of _blocks, reduce of their results).

    Longest job first. If a task raises, the tasks not yet started are cancelled, the
    running ones finish, and the first exception in job and block order is raised.
    """
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0])
    futures = {i: [_pool().submit(task) for task in jobs[i][1]] for i in order}
    flat = [f for i in range(len(jobs)) for f in futures[i]]
    try:
        wait(flat, return_when=FIRST_EXCEPTION)
    finally:
        for f in flat:
            f.cancel()  # only a block not yet started
    wait(flat)
    # nothing is cancelled unless a block failed, and then result() raises first
    partials = iter([f.result() for f in flat if not f.cancelled()])
    return [reduce([next(partials) for _ in blocks]) for _, blocks, reduce in jobs]


def _batchable(job):
    """The diagnostic that runs the _run job that job(...) checks and returns.

    job stays reachable as .job, so that one _run can batch several diagnostics.
    """
    diagnostic = functools.wraps(job)(lambda *args, **kwargs: _run(job(*args, **kwargs))[0])
    diagnostic.job = job
    return diagnostic


def _hist_edges(bin_width: float) -> np.ndarray:
    if not bin_width >= MIN_BIN_WIDTH:
        raise DomainError(
            f"bin_width must be >= {MIN_BIN_WIDTH:g} (at most 10^6 bins), got {bin_width}")
    n_bins = max(1, int(math.ceil(2.0 * _HIST_HALF_RANGE / bin_width)))
    return -_HIST_HALF_RANGE + bin_width * np.arange(n_bins + 1)


def _clipped_counts(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram with out-of-range mass folded into the end bins."""
    counts, _ = np.histogram(x, bins=edges)
    counts = counts.astype(float)
    counts[0] += np.count_nonzero(x < edges[0])
    counts[-1] += np.count_nonzero(x > edges[-1])  # the last bin is closed
    return counts


def _ball(radius_a: float) -> tuple:
    if not radius_a > 0.0:
        raise DomainError(f"radius_a must be > 0, got {radius_a}")
    return (-radius_a, radius_a, radius_a)


def _compact(compact_c: tuple, n_steps: int) -> tuple:
    lo, hi = (float(compact_c[0]), float(compact_c[1]))
    if n_steps < 1000:
        raise DomainError(f"occupation needs n_steps >= 1000, got {n_steps}")
    return (lo, hi, max(0.0, (hi - lo) / 2.0))


@_batchable
def interval_stats(spec: ChainSpec, x0: float, intervals, n_steps: int,
                   n_paths: int, seed: int) -> tuple:
    """Return and occupation statistics of several intervals, one sweep.

    intervals is a sequence of (lo, hi, label); the label becomes the
    radius_a field of that interval's TrajectoryStats. One ensemble is
    stepped and every interval reads its statistics off the same states,
    so each result equals a one-interval call with the same seed. An
    empty interval (lo >= hi) gives (0, nan, 0); if every interval is
    empty, nothing is stepped.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    if n_steps < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    # one row per interval; an empty one becomes (inf, -inf), which no state enters
    bounds = np.array([(lo, hi) if lo < hi else (math.inf, -math.inf)
                       for lo, hi, _ in intervals], dtype=float).reshape(-1, 2)
    lo, hi = bounds[:, :1], bounds[:, 1:]
    burn = n_steps // 2

    def read(n, stream):  # per interval: paths returned, return time sum, occupation
        left = np.repeat(~((lo <= x0) & (x0 <= hi)), n, axis=1)
        returned = np.zeros_like(left)
        return_time = np.zeros(left.shape, dtype=np.int64)
        occ = np.zeros(left.shape, dtype=np.int64)
        for t, x in enumerate(_ensemble(spec, x0, n, n_steps, stream), start=1):
            inside = (x >= lo) & (x <= hi)
            hit = left & ~returned & inside
            return_time[hit] = t
            returned |= hit
            left |= ~inside
            if t > burn:
                occ += inside
        # return_time is 0 on every path that has not returned
        return np.stack([returned.sum(axis=1), return_time.sum(axis=1), occ.sum(axis=1)], 1)

    def reduce(partials):
        sums = sum(partials, np.zeros((len(bounds), 3), dtype=np.int64)).tolist()
        return tuple(
            TrajectoryStats(n_paths, n_steps, n_ret / n_paths,
                            float(rt_sum) / n_ret if n_ret else math.nan,
                            float(occ_sum) / (n_paths * (n_steps - burn)), label)
            for (n_ret, rt_sum, occ_sum), (_, _, label) in zip(sums, intervals)
        )

    root = np.random.SeedSequence(seed)
    return n_steps, _blocks(read, n_paths, root) if np.any(lo < hi) else [], reduce


def return_stats(
    spec: ChainSpec,
    x0: float,
    radius_a: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> TrajectoryStats:
    """First-return statistics for the centered ball [-a, a].

    Counts paths that enter the ball after first leaving it (a start
    outside the ball counts as already having left). Freezing at the
    overflow guard counts as never returning.
    """
    return interval_stats(spec, x0, [_ball(radius_a)], n_steps, n_paths, seed)[0]


def occupation(
    spec: ChainSpec,
    x0: float,
    compact_c: tuple,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> TrajectoryStats:
    """Time-average occupation of the interval compact_c = (lo, hi).

    Uses the second half of each path (burn-in discard). An empty
    interval has occupation 0 by convention. n_steps below 1000 gives
    a window too short to mean anything, so it is rejected.
    """
    return interval_stats(
        spec, x0, [_compact(compact_c, n_steps)], n_steps, n_paths, seed
    )[0]


@_batchable
def tv_convergence(
    spec: ChainSpec,
    x0_a: float,
    x0_b: float,
    time_points,
    n_paths: int,
    bin_width: float,
    seed: int,
) -> TvEstimate:
    """Histogram total-variation distance between two start points.

    Two independent ensembles (streams spawned from the same master
    seed) are advanced to each requested time; the TV value at a time
    point is half the L1 distance between the empirical bin laws. Bins
    are fixed on [-500, 500] with out-of-range mass folded into the
    end bins, so the estimate is a lower bound on the true TV.
    """
    tps = tuple(int(t) for t in time_points)
    if not tps or any(t < 1 for t in tps):
        raise DomainError("time_points must be positive step counts")
    if any(t2 <= t1 for t1, t2 in zip(tps, tps[1:])):
        raise DomainError("time_points must be strictly increasing")
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    edges = _hist_edges(bin_width)
    marks = set(tps)

    def read(x0, n, stream):  # the clipped counts at each time point
        states = enumerate(_ensemble(spec, x0, n, tps[-1], stream), start=1)
        return np.array([_clipped_counts(x, edges) for t, x in states if t in marks])

    def reduce(partials):  # the blocks of start a, then as many of start b
        law_a, law_b = np.sum(np.split(np.array(partials), 2), axis=1) / n_paths
        tv_values = tuple(float(0.5 * np.abs(a - b).sum()) for a, b in zip(law_a, law_b))
        return TvEstimate(tps, tv_values, float(bin_width), n_paths)

    roots = np.random.SeedSequence(seed).spawn(2)
    return tps[-1], [task for x0, root in zip((x0_a, x0_b), roots)
                     for task in _blocks(functools.partial(read, x0), n_paths, root)], reduce


def invariant_histogram(
    spec: ChainSpec,
    x0: float,
    n_steps: int,
    burn_in: int | None,
    bin_width: float,
    seed: int,
) -> DensityGrid:
    """Invariant-law estimate from one long path after burn-in.

    Returns a DensityGrid whose values are histogram densities
    (mass / bin_width) at the bin centers; the masses sum to 1 by
    construction (out-of-range states fold into the end bins). The
    error field carries the 1/sqrt(n) statistical scale, not a
    quadrature bound.
    """
    if n_steps < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    if burn_in is None:
        burn_in = n_steps // 2
    if not 0 <= burn_in < n_steps:
        raise DomainError(f"burn_in must lie in [0, n_steps), got {burn_in}")
    states = simulate(spec, x0, n_steps, seed).states[burn_in:]
    edges = _hist_edges(bin_width)
    counts = _clipped_counts(states, edges)
    total = counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass = counts / total
    return DensityGrid(
        points=centers,
        values=mass / bin_width,
        quadrature_error=1.0 / math.sqrt(total),
    )
