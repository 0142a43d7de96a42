"""Monte Carlo diagnostics for chain verdicts.

These routines corroborate classifier output empirically; they never
replace it. The return, occupation and total-variation diagnostics
run the chain as a vectorized ensemble: paths are grouped into
fixed-size blocks, each block draws from its own stream spawned off
the master seed, and every step consumes one uniform angle and one
exponential per path in a fixed order. A step reads each profile that is
not constant at the states through ProfileFn.at, the one array lookup of
a profile; a constant is read once a block.

A call steps its jobs in W worker processes, one per CPU the process
may run on (_run). Worker 0 is the caller and the others are forked
children. Worker w steps paths [N*w//W, N*(w+1)//W) of each job's N
paths, block by block: the blocks inside that share whole, and the
blocks at its two ends in lane slices, so at most W - 1 blocks of a job
are cut. Whole or cut, a block steps on one draw sequence: each step
skips the other lanes' angles and draws the block's full exponentials
(their count of 64-bit draws varies), so every path sees the same draws
for any W, and a whole block is the slice of all its lanes. Each worker
hands back integer partial statistics (counts and sums of step numbers),
which the caller adds, exactly in any order. That makes every statistic
bit-reproducible for identical (spec, args, seed) on any number of
workers, and makes return events for a given seed a prefix-stable
function of n_steps (longer runs extend, never rewrite, history).

Processes, unlike threads, step in parallel: a step is some twenty short
numpy calls, and between them a thread holds the GIL, so a second thread
made a call slower. A call whose largest job has fewer than _MIN_LANES
paths a worker takes fewer workers. A call stays in the caller alone
(W = 1) when it has fewer than _FORK_FLOOR path-steps, where a fork
costs more than it saves; when a profile is custom, because that is the
caller's own code, whose side effects belong to the caller's process and
which may not survive a fork; when other Python threads are alive, as a
fork copies none of them, whatever locks they hold; and where os.fork is
missing.
Counts (n_steps, n_paths, time points, burn-in) must be whole numbers;
an integral float such as 2.0 is the count 2, and a bool is no count.

One reader (_read) takes every statistic off a block's states: each
interval's return and occupation counts on every step, and the clipped
histogram counts at each TV time point. diagnose, which mc-diagnose
calls, steps two ensembles: one sweep from x0 on interval_stats'
streams, which gives the interval statistics and TV start a's law, and
start b on tv_convergence's stream for it.

invariant_histogram reads one path of chain.simulate, which needs an
enumerable alpha profile; the ensembles also take a custom alpha.

Heavy-tail guard: a path whose |state| reaches chain.FREEZE = 1e300 is
frozen there, here and in simulate alike, and counted as non-returning;
transient low-index chains can genuinely overflow doubles. A nan step
(inf * 0 in the CMS map at tiny alpha) freezes at +-FREEZE with the
sign of the state before it. A start must be finite.

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
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .chain import FREEZE, ChainSpec, _count, _start, _whole, simulate
from .errors import DomainError
from .stable import DensityGrid, cms_transform

_BLOCK = 8192
# When a call forks (_workers). On a 2-CPU Linux VM (Python 3.11, numpy 2.4), a fork,
# its pipe and its wait cost 3.1-3.5 ms, and a step of an n-path block costs some 30 us
# plus 50-60 ns a path, of which a worker saves under half: it repeats the block's
# draws, and two processes each step 12-15% slower than one alone. Measured there,
# W = 2 against the caller alone: 8192 paths x 32 steps ran 0.89-0.91x the time and 1000
# x 64 steps 1.34-1.42x; at 3e6 path-steps, 200-800-path blocks ran 0.91-1.11x and
# 1200-2000-path blocks 0.79-0.90x.
_FORK_FLOOR = 1 << 19  # path-steps of a call
_MIN_LANES = 512  # paths of the largest job per worker
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
              stream: np.random.SeedSequence, lanes: slice = slice(None)):
    """Yield the states of the lanes of a block of n_paths paths from x0 after each step.

    A step moves the paths of lanes, a slice [lo, hi) of range(n_paths), on one draw
    sequence: skip lo angles (one 64-bit draw each), draw the slice's, skip n_paths - hi,
    draw all n_paths exponentials and keep the slice's; |state| >= FREEZE stays. It reads
    alpha, gamma and delta through ProfileFn.at, apart from a constant, read once a block.
    """
    rng = np.random.default_rng(stream)
    a_fn, g_fn, d_fn = spec.profiles
    lo, hi, _ = lanes.indices(n_paths)
    m = hi - lo
    # a constant is read once: alpha as one array, since a float exponent takes numpy's
    # scalar power paths (cos(u) ** -1 at alpha = 1), which round otherwise than an
    # array's; gamma and delta as floats
    alpha = np.full(m, float(a_fn.values[0])) if a_fn.kind == "constant" else None
    gamma, delta = (f.values[0] if f.kind == "constant" else None for f in (g_fn, d_fn))
    x = np.full(m, float(x0))
    frozen = np.zeros(m, dtype=bool)
    for _ in range(n_steps):
        rng.bit_generator.advance(lo)
        u = rng.uniform(-_HALF_PI, _HALF_PI, m)
        rng.bit_generator.advance(n_paths - hi)
        e = rng.standard_exponential(n_paths)[lo:hi]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # x + delta + gamma * J in place: products and sums of two commute bit for bit
            xn = cms_transform(a_fn.at(x) if alpha is None else alpha, u, e)
            xn *= g_fn.at(x) if gamma is None else gamma
            xn += x + (d_fn.at(x) if delta is None else delta)
        np.clip(xn, -FREEZE, FREEZE, out=xn)
        nan = np.isnan(xn)  # a nan jump (inf * 0 in the transform) keeps the old sign
        if nan.any():
            xn[nan] = np.copysign(FREEZE, x[nan])
        x = np.where(frozen, x, xn) if frozen.any() else xn
        frozen = np.abs(x) >= FREEZE  # a frozen path keeps |x| = FREEZE
        yield x


def _read(spec: ChainSpec, x0: float, steps: int, bounds: np.ndarray, n_steps: int,
          tps: tuple, edges, n: int, stream: np.random.SeedSequence, lanes: slice) -> tuple:
    """The partial statistics of the lanes of one block, an ensemble of n paths from x0.

    The ensemble takes steps steps. For each (lo, hi) row of bounds, over steps 1 to
    n_steps: the paths that entered [lo, hi] after first leaving it, the sum of their
    first-entry steps, and the path-steps inside after the burn-in n_steps // 2; as a
    (rows, 3) int64 array. For each time point of tps: the clipped counts on edges, as
    one row of the second array.
    """
    lo, hi = bounds[:, :1], bounds[:, 1:]
    burn = n_steps // 2
    left = np.repeat(~((lo <= x0) & (x0 <= hi)), len(range(n)[lanes]), axis=1)
    returned = np.zeros_like(left)
    sums = np.zeros((len(bounds), 3), dtype=np.int64)
    laws, marks = [], set(tps)
    for t, x in enumerate(_ensemble(spec, x0, n, steps, stream, lanes), start=1):
        if t <= n_steps:
            inside = (x >= lo) & (x <= hi)
            hit = left & ~returned & inside
            returned |= hit
            left |= ~inside
            for row, hits, ins in zip(sums, hit, inside):  # cheaper than one axis=1 count
                row[1] += t * np.count_nonzero(hits)
                if t > burn:
                    row[2] += np.count_nonzero(ins)
        if t in marks:
            laws.append(_clipped_counts(x, edges))
    sums[:, 0] = returned.sum(axis=1)
    return sums, np.array(laws)


def _workers(spec: ChainSpec, jobs) -> int:
    """How many processes step the _run jobs: one per usable CPU, or fewer.

    At most one per _MIN_LANES paths of the largest job, and 1, the caller alone, for
    fewer than _FORK_FLOOR path-steps, a custom profile, other live threads or no fork.
    """
    if (sum(n_steps * n for n_steps, _, n, _ in jobs) < _FORK_FLOOR
            or any(p.kind == "custom" for p in spec.profiles)
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, max(n for _, _, n, _ in jobs) // _MIN_LANES))


def _child(work, w: int, fd: int):
    """Worker w of a forked child: pickle work(w) into fd, then exit, whatever happens."""
    try:
        done, (i, exc) = work(w)
        try:
            payload = pickle.dumps((done, (i, exc)))
        except Exception:  # an exception that does not pickle goes back as its type and text
            exc = ChildProcessError(f"{type(exc).__name__}: {exc}")
            payload = pickle.dumps((done, (i, exc)))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)  # never back into the caller's stack


def _run(spec: ChainSpec, *jobs) -> list:
    """Each job's partials, a list in no set order; a job is (n_steps, read, n_paths, root).

    A job's paths are blocks of _BLOCK paths (the last one short) on streams spawned off
    root, and read(n, stream, lanes) gives the partials of the lanes of an n-path block.
    W = _workers(spec, jobs) workers step the jobs: worker 0 in the caller, the others in
    forked children, which pickle their partials back through a pipe. Worker w steps
    paths [N*w//W, N*(w+1)//W) of each N-path job, in job and block order up to its first
    failure: the blocks inside that share whole, the blocks at its ends in lane slices.
    Once every worker is done, the first failure in (job, block, worker) order is raised:
    the caller's own exception object, or an unpickled copy of a child's; a child that
    exits without a result raises ChildProcessError before them. The partials are
    counts, so they add exactly in any order. No child outlives the call: if the caller
    is interrupted, they are killed and reaped.
    """
    jobs = [(n_steps, read, n_paths, root.spawn(-(-n_paths // _BLOCK)))  # before any fork
            for n_steps, read, n_paths, root in jobs]
    n_workers = _workers(spec, jobs)

    def work(w):
        """Worker w's (job index, partials) in order, and ((job, block), exception) of its
        first failure or (None, None)."""
        done = []
        for j, (_, read, n_paths, streams) in enumerate(jobs):
            lo, hi = n_paths * w // n_workers, n_paths * (w + 1) // n_workers
            for b in range(lo // _BLOCK, -(-hi // _BLOCK)):  # the blocks that [lo, hi) meets
                first, n = b * _BLOCK, min(_BLOCK, n_paths - b * _BLOCK)
                lanes = slice(max(lo - first, 0), min(hi - first, n))
                try:
                    done.append((j, read(n, streams[b], lanes)))
                except Exception as exc:
                    return done, ((j, b), exc)
        return done, (None, None)

    children, pipes = {}, {}
    try:
        for w in range(1, n_workers):
            r, fd = os.pipe()
            pipes[w] = open(r, "rb")
            try:
                children[w] = os.fork() or _child(work, w, fd)  # _child never returns
            finally:
                os.close(fd)
        results = [work(0)]
        for w in range(1, n_workers):
            payload = pipes[w].read()
            os.waitpid(children[w], 0)
            del children[w]
            lost = ([], ((-1, -1), ChildProcessError(f"Monte Carlo worker {w} exited early")))
            results.append(pickle.loads(payload) if payload else lost)
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [(i, w, exc) for w, (_, (i, exc)) in enumerate(results) if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return [[p for done, _ in results for i, p in done if i == j] for j in range(len(jobs))]


def _hist_edges(bin_width: float) -> np.ndarray:
    if not MIN_BIN_WIDTH <= bin_width < math.inf:
        raise DomainError(f"bin_width must be >= {MIN_BIN_WIDTH:g} (at most 10^6 bins) "
                          f"and finite, got {bin_width}")
    n_bins = max(1, int(math.ceil(2.0 * _HIST_HALF_RANGE / bin_width)))
    return -_HIST_HALF_RANGE + bin_width * np.arange(n_bins + 1)


def _clipped_counts(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram counts, as floats, with out-of-range mass folded into the end bins."""
    return np.histogram(np.clip(x, edges[0], edges[-1]), edges)[0].astype(float)


def _ball(radius_a: float) -> tuple:
    if not radius_a > 0.0:
        raise DomainError(f"radius_a must be > 0, got {radius_a}")
    return (-radius_a, radius_a, radius_a)


def _compact(compact_c: tuple, n_steps: int) -> tuple:
    lo, hi = (float(compact_c[0]), float(compact_c[1]))
    if n_steps < 1000:
        raise DomainError(f"occupation needs n_steps >= 1000, got {n_steps}")
    return (lo, hi, max(0.0, (hi - lo) / 2.0))


def _intervals(intervals, n_steps: int, n_paths: int) -> tuple:
    """Checked interval_stats arguments: (bounds, n_steps, n_paths, stats of the partials)."""
    n_paths, n_steps = _count("n_paths", n_paths, 1), _count("n_steps", n_steps, 2)
    bounds = np.array([(lo, hi) for lo, hi, _ in intervals], dtype=float).reshape(-1, 2)
    if np.isnan(bounds).any():
        raise DomainError("interval bounds must not be nan")
    # one row per interval; an empty one becomes (inf, -inf), which no state enters
    bounds[~(bounds[:, 0] < bounds[:, 1])] = (math.inf, -math.inf)
    burn = n_steps // 2

    def stats(partials):
        sums = sum((s for s, _ in partials), np.zeros((len(bounds), 3), dtype=np.int64))
        return tuple(
            TrajectoryStats(n_paths, n_steps, n_ret / n_paths,
                            float(rt_sum) / n_ret if n_ret else math.nan,
                            float(occ_sum) / (n_paths * (n_steps - burn)), label)
            for (n_ret, rt_sum, occ_sum), (_, _, label) in zip(sums.tolist(), intervals)
        )

    return bounds, n_steps, n_paths, stats


def _tv(time_points, n_paths: int, bin_width: float) -> tuple:
    """Checked tv_convergence arguments: (time points, n_paths, edges, TV of two starts)."""
    tps = tuple(int(t) if _whole(t) else 0 for t in time_points)
    if not tps or any(t < 1 for t in tps):
        raise DomainError("time_points must be positive whole step counts")
    if any(t2 <= t1 for t1, t2 in zip(tps, tps[1:])):
        raise DomainError("time_points must be strictly increasing")
    n_paths = _count("n_paths", n_paths, 2)
    edges = _hist_edges(bin_width)

    def tv(partials_a, partials_b):
        law_a, law_b = (np.sum([c for _, c in p], axis=0) / n_paths
                        for p in (partials_a, partials_b))
        tv_values = tuple(float(0.5 * np.abs(a - b).sum()) for a, b in zip(law_a, law_b))
        return TvEstimate(tps, tv_values, float(bin_width), n_paths)

    return tps, n_paths, edges, tv


def _job(spec: ChainSpec, x0: float, root, n_paths: int, bounds=np.empty((0, 2)),
         n_steps: int = 0, tps: tuple = (), edges=None) -> tuple:
    """The _run job that _read reads: n_paths paths from x0, on root's streams, to the
    later of n_steps and the last time point. No bounds, no interval statistics; no
    time points, no counts."""
    steps = max((n_steps, *tps))
    read = functools.partial(_read, spec, x0, steps, bounds, n_steps, tps, edges)
    return steps, read, n_paths, root


def interval_stats(spec: ChainSpec, x0: float, intervals, n_steps: int,
                   n_paths: int, seed: int) -> tuple:
    """Return and occupation statistics of several intervals, one sweep.

    intervals is a sequence of (lo, hi, label); the label becomes the
    radius_a field of that interval's TrajectoryStats. One ensemble is
    stepped and every interval reads its statistics off the same states,
    so each result equals a one-interval call with the same seed. An
    empty interval (lo >= hi) gives (0, nan, 0), and a nan bound is
    refused; if every interval is empty, nothing is stepped.
    """
    x0 = _start(x0)
    bounds, n_steps, n_paths, stats = _intervals(intervals, n_steps, n_paths)
    n_stepped = n_paths if np.any(bounds[:, 0] < bounds[:, 1]) else 0
    job = _job(spec, x0, np.random.SeedSequence(seed), n_stepped, bounds, n_steps)
    return stats(_run(spec, job)[0])


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

    Two independent ensembles are advanced to each requested time:
    start a on the first of two streams spawned from the master seed,
    start b on the second. The TV value at a time point is half the L1
    distance between the empirical bin laws. Bins are fixed on
    [-500, 500] with out-of-range mass folded into the end bins, so the
    estimate is a lower bound on the true TV. diagnose reads start a
    off its interval sweep instead and keeps start b's stream. Each
    worker process of the call steps its share of both starts' paths,
    so the values are the same for any number of workers.
    """
    starts = _start(x0_a), _start(x0_b)
    tps, n_paths, edges, tv = _tv(time_points, n_paths, bin_width)
    roots = np.random.SeedSequence(seed).spawn(2)
    return tv(*_run(spec, *(_job(spec, x0, root, n_paths, tps=tps, edges=edges)
                            for x0, root in zip(starts, roots))))


def diagnose(spec: ChainSpec, x0: float, x0_b: float, intervals, n_steps: int,
             time_points, n_paths: int, bin_width: float, seed: int) -> tuple:
    """(interval_stats(spec, x0, intervals, n_steps, n_paths, seed), the TV proxy).

    After every check, one sweep from x0 on interval_stats' streams steps to the later
    of n_steps and the last time point and gives both the interval statistics, bit for
    bit, and start a's law; start b steps on tv_convergence's stream for it. The TV
    values differ from tv_convergence's only in start a's sampling noise. Each worker
    process steps its share of the sweep's paths and then of start b's, so the sweep's
    longer run keeps every worker busy, and the results are the same for any number of
    workers.
    """
    x0, x0_b = _start(x0), _start(x0_b)
    bounds, n_steps, n_paths, stats = _intervals(intervals, n_steps, n_paths)
    tps, n_paths, edges, tv = _tv(time_points, n_paths, bin_width)
    partials, partials_b = _run(
        spec,
        _job(spec, x0, np.random.SeedSequence(seed), n_paths, bounds, n_steps, tps, edges),
        _job(spec, x0_b, np.random.SeedSequence(seed).spawn(2)[1], n_paths, tps=tps,
             edges=edges),
    )
    return stats(partials), tv(partials, partials_b)


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
    n_steps = _count("n_steps", n_steps, 2)
    if burn_in is None:
        burn_in = n_steps // 2
    if not (0 <= burn_in < n_steps and _whole(burn_in)):
        raise DomainError(f"burn_in must be a whole number in [0, n_steps), got {burn_in}")
    edges = _hist_edges(bin_width)
    states = simulate(spec, x0, n_steps, seed).states[int(burn_in):]
    counts = _clipped_counts(states, edges)
    total = counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass = counts / total
    return DensityGrid(
        points=centers,
        values=mass / bin_width,
        quadrature_error=1.0 / math.sqrt(total),
    )
