"""Seed-pinned Monte Carlo diagnostics."""

import dataclasses
import itertools
import math
import os
import threading
import time

import numpy as np
import pytest

from stablike import (
    DomainError,
    ProfileFn,
    interval_stats,
    invariant_histogram,
    make_chain,
    mc,
    occupation,
    return_stats,
    tv_convergence,
)
from stablike.chain import simulate
from stablike.stable import cms_transform


def test_return_stats_replay(sas15):
    a = return_stats(sas15, x0=50.0, radius_a=10.0, n_steps=500, n_paths=300, seed=8)
    b = return_stats(sas15, x0=50.0, radius_a=10.0, n_steps=500, n_paths=300, seed=8)
    assert a == b
    c = return_stats(sas15, x0=50.0, radius_a=10.0, n_steps=500, n_paths=300, seed=9)
    assert a != c


def test_return_fraction_orders_by_index():
    # recurrent walks come back far more often than transient ones
    # short horizon here; the acceptance gate runs the full 1e5 steps
    rec = return_stats(make_chain(1.5), x0=50.0, radius_a=10.0,
                       n_steps=3000, n_paths=400, seed=17)
    tra = return_stats(make_chain(0.5), x0=50.0, radius_a=10.0,
                       n_steps=3000, n_paths=400, seed=17)
    assert rec.return_fraction > 0.7
    assert tra.return_fraction < 0.6
    assert rec.return_fraction > tra.return_fraction + 0.2


def test_return_time_only_over_returned_paths(sas15):
    st = return_stats(sas15, x0=50.0, radius_a=10.0, n_steps=500,
                      n_paths=200, seed=8)
    assert 0.0 < st.return_fraction <= 1.0
    assert 1.0 <= st.mean_return_time <= 500.0
    # nobody returns from absurdly far away in a short window
    far = return_stats(make_chain(0.3), x0=1e6, radius_a=1.0, n_steps=100,
                       n_paths=50, seed=8)
    assert far.return_fraction == 0.0
    assert math.isnan(far.mean_return_time)


def test_occupation_fraction_bounds(sas15):
    st = occupation(sas15, x0=0.0, compact_c=(-5.0, 5.0), n_steps=2000,
                    n_paths=100, seed=3)
    assert 0.0 < st.occupation_fraction < 1.0
    assert st.n_paths == 100 and st.n_steps == 2000


def test_empty_interval_skips_the_stepping():
    # an empty interval has fixed stats; the alpha profile raises if a
    # single step is taken
    def no_steps(x):
        raise AssertionError("stepped an empty interval")

    spec = make_chain(ProfileFn.custom(no_steps), unchecked=True)
    st = occupation(spec, x0=0.0, compact_c=(1.0, -1.0), n_steps=2000,
                    n_paths=100, seed=3)
    assert (st.return_fraction, st.occupation_fraction, st.radius_a) == (0.0, 0.0, 0.0)
    assert math.isnan(st.mean_return_time)
    assert st.n_paths == 100 and st.n_steps == 2000


def _same_stats(a, b):
    # field for field, nan equal to nan
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        assert u == v or (math.isnan(u) and math.isnan(v)), f.name


@pytest.mark.parametrize(
    "spec, x0, compact, n_paths",
    [
        (make_chain(1.5), 50.0, (-5.0, 5.0), 8192 + 37),
        (make_chain(ProfileFn.two_valued(1.5, 1.8), delta=ProfileFn.two_valued(0.5, -0.5)),
         3.0, (-20.0, 20.0), 300),
        (make_chain(ProfileFn.custom(lambda x: 1.2 + 0.5 * np.tanh(x)), unchecked=True),
         -4.0, (-1.0, 30.0), 200),
        (make_chain(0.7), 0.0, (5.0, -5.0), 150),
    ],
    ids=["constant-two-blocks", "two-valued", "custom-alpha", "empty-compact"],
)
def test_interval_stats_matches_separate_calls(spec, x0, compact, n_paths):
    # one sweep for the ball and the compact set equals two separate runs
    n_steps, seed = 1000, 12
    lo, hi = compact
    ball, comp = interval_stats(
        spec, x0, [(-10.0, 10.0, 10.0), (lo, hi, max(0.0, (hi - lo) / 2.0))],
        n_steps, n_paths, seed,
    )
    _same_stats(ball, return_stats(spec, x0, 10.0, n_steps, n_paths, seed))
    _same_stats(comp, occupation(spec, x0, compact, n_steps, n_paths, seed))
    assert ball.return_fraction > 0.0


def test_custom_profile_is_called_once_per_step_on_the_whole_block():
    # a custom alpha that mirrors two_valued(1.5, 1.8) steps like it
    shapes = []

    def alpha(x):
        shapes.append(np.shape(x))
        return np.where(x < 0, 1.5, 1.8)

    delta = ProfileFn.two_valued(0.5, -0.5)
    intervals = [(-10.0, 10.0, 10.0), (-20.0, 30.0, 25.0)]
    want = interval_stats(make_chain(ProfileFn.two_valued(1.5, 1.8), delta=delta),
                          3.0, intervals, 300, 500, seed=4)
    got = interval_stats(make_chain(ProfileFn.custom(alpha), delta=delta, unchecked=True),
                         3.0, intervals, 300, 500, seed=4)
    for a, b in zip(got, want):
        _same_stats(a, b)
    assert shapes == [(500,)] * 300


def test_scalar_only_custom_profile_still_steps():
    # a fn that cannot take an array is called once per position instead
    alpha = ProfileFn.custom(lambda x: 1.5 if x < 0 else 1.8)
    assert alpha.at([-1.0, 2.0]).tolist() == [1.5, 1.8]
    delta = ProfileFn.two_valued(0.5, -0.5)
    want = interval_stats(make_chain(ProfileFn.two_valued(1.5, 1.8), delta=delta),
                          3.0, [(-10.0, 10.0, 10.0)], 100, 200, seed=4)
    got = interval_stats(make_chain(alpha, delta=delta, unchecked=True),
                         3.0, [(-10.0, 10.0, 10.0)], 100, 200, seed=4)
    _same_stats(got[0], want[0])


def test_occupation_scales_with_set_size(sas15):
    small = occupation(sas15, x0=0.0, compact_c=(-2.0, 2.0), n_steps=2000,
                       n_paths=100, seed=3)
    large = occupation(sas15, x0=0.0, compact_c=(-20.0, 20.0), n_steps=2000,
                       n_paths=100, seed=3)
    assert large.occupation_fraction > small.occupation_fraction


@pytest.mark.parametrize("bin_width", [0.0, 1e-300, 5e-324, math.nan, math.inf])
def test_bin_count_is_bounded(sas15, bin_width):
    # more than 10^6 bins over the fixed range is refused before any draw
    message = "bin_width must be >= 0.001"
    with pytest.raises(DomainError, match=message):
        tv_convergence(sas15, 3.0, -3.0, (20,), 10, bin_width, 4)
    with pytest.raises(DomainError, match=message):
        invariant_histogram(sas15, 0.0, 10, 0, bin_width, 4)
    assert len(mc._hist_edges(1e-3)) <= 10 ** 6 + 2


def test_clipped_counts_count_each_state_once():
    # np.histogram already puts x == edges[-1] in its closed last bin
    edges = mc._hist_edges(5.0)
    x = np.array([edges[-1], 1e300, edges[0], -1e300, 0.0])
    counts = mc._clipped_counts(x, edges)
    assert counts.sum() == len(x)
    assert counts[-1] == 2.0 and counts[0] == 2.0
    assert mc._clipped_counts(np.array([500.0, 0.0]), edges).sum() == 2.0


def test_tv_noise_floor_when_starts_coincide(sas15):
    tv = tv_convergence(sas15, x0_a=3.0, x0_b=3.0, time_points=(20,),
                        n_paths=20_000, bin_width=0.5, seed=4)
    assert tv.tv_values[0] < 0.1


def test_tv_separated_starts_detected(sas15):
    tv = tv_convergence(sas15, x0_a=-300.0, x0_b=300.0, time_points=(20,),
                        n_paths=20_000, bin_width=0.5, seed=4)
    assert tv.tv_values[0] > 0.9


def test_tv_decreases_for_ergodic_chain(ergodic_spec):
    tv = tv_convergence(ergodic_spec, x0_a=-20.0, x0_b=20.0,
                        time_points=(50, 200, 1000), n_paths=20_000,
                        bin_width=0.5, seed=5)
    vals = tv.tv_values
    assert vals[0] > vals[-1]
    assert vals[-1] < 0.15


def test_invariant_histogram_mass_and_center(ergodic_spec):
    hist = invariant_histogram(ergodic_spec, x0=0.0, n_steps=200_000,
                               burn_in=None, bin_width=0.5, seed=9)
    mass = float(np.sum(hist.values)) * 0.5
    assert mass == pytest.approx(1.0, abs=1e-9)
    # the pull concentrates the invariant law near the origin; the mean
    # itself is tail-dominated and unstable, so test mode/median/bulk
    centers = np.asarray(hist.points)
    values = np.asarray(hist.values)
    assert abs(centers[np.argmax(values)]) <= 1.0
    median = centers[np.searchsorted(np.cumsum(values) * 0.5, 0.5)]
    assert abs(median) <= 1.0
    bulk = float(np.sum(values[np.abs(centers) < 50.0]) * 0.5)
    assert bulk > 0.85


def test_histogram_replay(ergodic_spec):
    a = invariant_histogram(ergodic_spec, x0=0.0, n_steps=50_000,
                            burn_in=1000, bin_width=1.0, seed=2)
    b = invariant_histogram(ergodic_spec, x0=0.0, n_steps=50_000,
                            burn_in=1000, bin_width=1.0, seed=2)
    assert np.array_equal(a.values, b.values)


# values of the release that stepped the blocks of a call in lockstep in
# one thread: three blocks, the last one 37 paths short of full
PINNED_BLOCKS = [
    (make_chain(ProfileFn.two_valued(1.5, 1.8), delta=ProfileFn.two_valued(0.5, -0.5)),
     300, (5, 50, 200),
     [(0.9629133426709701, 86.35789273969138, 0.7466435255668554),
      (0.50764265270081, 150.83793186180424, 0.8738992753181901)],
     (0.9871505998416661, 0.25893672736130563, 0.07374703124048473)),
    (make_chain(ProfileFn.custom(lambda x: 1.2 + 0.5 * np.tanh(x)), unchecked=True),
     20, (2, 5, 10),
     [(0.2449911698434931, 12.77280636341039, 0.5984166615918641),
      (0.0439071920102308, 13.765603328710124, 0.8391084586809573)],
     (0.9724133731197855, 0.9241215516716401, 0.8453200170513366)),
]


@pytest.mark.parametrize("spec, n_steps, time_points, stats, tv_values", PINNED_BLOCKS,
                         ids=["two-valued", "custom-alpha"])
def test_blocks_reduce_bit_identically(spec, n_steps, time_points, stats, tv_values):
    n_paths = 2 * 8192 + 37
    got = interval_stats(spec, 3.0, [(-10.0, 10.0, 10.0), (-20.0, 30.0, 25.0)],
                         n_steps, n_paths, seed=7)
    assert [(s.return_fraction, s.mean_return_time, s.occupation_fraction)
            for s in got] == stats
    tv = tv_convergence(spec, -20.0, 20.0, time_points, n_paths, bin_width=0.5, seed=7)
    assert tv.tv_values == tv_values


def _failing_chain():
    """A custom-alpha chain whose first profile call raises; the exception."""
    boom = DomainError("alpha profile failed")
    calls = itertools.count()

    def alpha(x):
        if next(calls) == 0:
            raise boom
        return 1.5

    return make_chain(ProfileFn.custom(alpha), unchecked=True), boom


def test_failing_block_raises_its_exception():
    before = return_stats(make_chain(1.5), 5.0, 2.0, 50, 300, seed=3)
    spec, boom = _failing_chain()
    with pytest.raises(DomainError) as exc:
        interval_stats(spec, 0.0, [(-1.0, 1.0, 1.0)], 20, 3 * 8192, seed=1)
    assert exc.value is boom
    spec, boom = _failing_chain()
    with pytest.raises(DomainError) as exc:
        tv_convergence(spec, -5.0, 5.0, (5, 10), 3 * 8192, bin_width=1.0, seed=1)
    assert exc.value is boom
    # a failed call leaves the next one as it was
    assert return_stats(make_chain(1.5), 5.0, 2.0, 50, 300, seed=3) == before


def test_nan_steps_freeze_like_simulate():
    # at alpha ~ 0.002 the CMS map gives inf * 0 = nan in a share of draws;
    # such a path freezes at +-FREEZE with its previous sign, as in simulate
    const = make_chain(0.002)
    states = list(mc._ensemble(const, 50.0, 1000, 3, np.random.SeedSequence(1)))
    assert not any(np.isnan(x).any() for x in states)
    assert np.count_nonzero(np.abs(states[-1]) == mc.FREEZE) > 100
    periodic = dataclasses.replace(
        const, alpha_profile=ProfileFn("periodic", values=(0.002, 0.003), period=1.0))
    (stats,) = interval_stats(periodic, 50.0, [mc._ball(10.0)], 50, 200, seed=3)
    assert stats.return_fraction < 1.0
    tv = tv_convergence(periodic, 50.0, -50.0, (5, 20), 200, bin_width=5.0, seed=3)
    assert all(0.0 <= v <= 1.0 for v in tv.tv_values)


def _lookup(profile, x):
    """The profile at the states x; a two-valued one by np.where, not by ProfileFn.at."""
    if profile.kind == "two_valued":
        return np.where(x < 0, *profile.values)
    return profile.at(x)


def _reference_ensemble(spec, x0, n_paths, n_steps, stream):
    """The ensemble step as _lookup and cms_transform give it, one expression a step."""
    rng = np.random.default_rng(stream)
    x = np.full(n_paths, float(x0))
    frozen = np.zeros(n_paths, dtype=bool)
    for _ in range(n_steps):
        u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n_paths)
        e = rng.standard_exponential(n_paths)
        a = _lookup(spec.alpha_profile, x)
        g = _lookup(spec.family.gamma_profile, x)
        d = _lookup(spec.family.delta_profile, x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xn = x + d + g * cms_transform(a, u, e)
        np.clip(xn, -mc.FREEZE, mc.FREEZE, out=xn)
        nan = np.isnan(xn)
        xn[nan] = np.copysign(mc.FREEZE, x[nan])
        x = np.where(frozen, x, xn)
        frozen |= np.abs(x) >= mc.FREEZE
        yield x


@pytest.mark.parametrize(
    "spec, n_steps",
    [
        (make_chain(1.3, gamma=2.5, delta=0.7), 300),
        (make_chain(1.0, gamma=0.5, delta=-0.3), 300),
        (make_chain(ProfileFn.two_valued(1.5, 0.8), gamma=ProfileFn.two_valued(2.0, 0.5),
                    delta=ProfileFn.two_valued(0.5, -0.5)), 300),
        (make_chain(ProfileFn.periodic(3.0, (1.2, 0.7, 1.0)), delta=0.2), 300),
        (make_chain(ProfileFn.piecewise((-5.0, 5.0), (0.6, 1.9, 1.0)),
                    gamma=ProfileFn.piecewise((0.0,), (1.5, 0.5))), 300),
        (make_chain(ProfileFn.custom(lambda x: 1.2 + 0.5 * np.tanh(x)), unchecked=True,
                    delta=ProfileFn.custom(lambda x: -0.1 * np.sign(x))), 300),
        (make_chain(0.002), 3),
    ],
    ids=["constant", "constant-alpha-1", "two-valued", "periodic", "piecewise", "custom",
         "nan-freeze"],
)
def test_ensemble_steps_bit_identically_to_the_reference(spec, n_steps):
    # every state of every step, frozen and nan-frozen paths included
    stream = np.random.SeedSequence(5)
    got = mc._ensemble(spec, 50.0, 1000, n_steps, stream)
    want = _reference_ensemble(spec, 50.0, 1000, n_steps, stream)
    for t, (a, b) in enumerate(itertools.zip_longest(got, want), start=1):
        assert np.array_equal(a, b), f"step {t}"
    assert t == n_steps


@pytest.mark.parametrize("spec", [
    make_chain(ProfileFn.two_valued(1.5, 1.8), delta=ProfileFn.two_valued(0.5, -0.5)),
    make_chain(1.3, gamma=ProfileFn.two_valued(2.0, 0.5), delta=0.7),
    make_chain(ProfileFn.periodic(3.0, (1.2, 0.7, 1.0)), gamma=ProfileFn.two_valued(1.0, 2.0)),
    make_chain(1.0),
], ids=["alpha-delta", "gamma", "periodic-alpha", "constant"])
@pytest.mark.parametrize("lanes", [slice(None), slice(100, 700)], ids=["block", "lanes"])
def test_a_step_reads_each_non_constant_profile_once_through_at(monkeypatch, spec, lanes):
    # ProfileFn.at is the ensemble's one array lookup: once a step for each profile
    # that is not constant, and never for a constant one, which is read once a block
    calls = []
    at = ProfileFn.at

    def counting(self, x):
        calls.append(self)
        return at(self, x)

    monkeypatch.setattr(ProfileFn, "at", counting)
    profiles = (spec.alpha_profile, spec.family.gamma_profile, spec.family.delta_profile)
    n_steps = 0
    for n_steps, _ in enumerate(mc._ensemble(spec, 3.0, 1000, 7, np.random.SeedSequence(2),
                                             lanes), start=1):
        assert len(calls) == n_steps * sum(p.kind != "constant" for p in profiles)
    assert n_steps == 7
    for p in profiles:
        assert sum(c is p for c in calls) == (0 if p.kind == "constant" else 7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_is_refused_before_any_draw(monkeypatch, bad):
    def no_draws(*args):
        raise AssertionError("stepped an ensemble from a non-finite start")

    monkeypatch.setattr(mc, "_ensemble", no_draws)
    spec, message = make_chain(1.5), "start point must be finite"
    ball = [mc._ball(10.0)]
    calls = [
        lambda: return_stats(spec, bad, 10.0, 100, 50, seed=1),
        lambda: occupation(spec, bad, (-5.0, 5.0), 1000, 50, seed=1),
        lambda: interval_stats(spec, bad, [(5.0, -5.0, 0.0)], 100, 50, seed=1),
        lambda: tv_convergence(spec, bad, 3.0, (5,), 50, 0.5, seed=1),
        lambda: tv_convergence(spec, 3.0, bad, (5,), 50, 0.5, seed=1),
        lambda: mc.diagnose(spec, bad, 3.0, ball, 100, (5,), 50, 0.5, seed=1),
        lambda: mc.diagnose(spec, 3.0, bad, ball, 100, (5,), 50, 0.5, seed=1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


def test_nan_bounds_and_fractional_counts_are_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew for a refused argument")

    monkeypatch.setattr(mc, "_ensemble", no_draws)
    monkeypatch.setattr(mc, "simulate", no_draws)
    spec, nan = make_chain(1.5), math.nan
    calls = {
        "interval bounds must not be nan": [
            lambda: occupation(spec, 0.0, (nan, 1.0), 1000, 4, 1),
            lambda: occupation(spec, 0.0, (-1.0, nan), 1000, 4, 1),
            lambda: interval_stats(spec, 0.0, [(-1.0, 1.0, 1.0), (nan, nan, 0.0)], 100, 4, 1),
            lambda: mc.diagnose(spec, 0.0, 3.0, [(nan, 1.0, 0.0)], 100, (5,), 4, 0.5, 1),
        ],
        "time_points must be positive whole step counts": [
            lambda: tv_convergence(spec, 3.0, -3.0, [2.5, 3.7], 4, 0.5, 1),
            lambda: tv_convergence(spec, 3.0, -3.0, [2, nan], 4, 0.5, 1),
            lambda: tv_convergence(spec, 3.0, -3.0, [2, math.inf], 4, 0.5, 1),
            lambda: mc.diagnose(spec, 0.0, 3.0, [mc._ball(1.0)], 100, (5.5,), 4, 0.5, 1),
        ],
        "burn_in must be a whole number": [
            lambda: invariant_histogram(spec, 0.0, 10, 2.5, 0.5, 1),
            lambda: invariant_histogram(spec, 0.0, 10, nan, 0.5, 1),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(DomainError, match=message):
                call()


def test_integral_float_counts_and_infinite_bounds_are_accepted(sas15):
    # 2.0 is the step count 2; an infinite bound is a half-line or the whole line
    want = invariant_histogram(sas15, 0.0, 50, 2, 0.5, 1)
    got = invariant_histogram(sas15, 0.0, 50, 2.0, 0.5, 1)
    assert np.array_equal(got.values, want.values)
    tv = tv_convergence(sas15, 3.0, -3.0, [2.0, 3.0], 20, 0.5, 1)
    assert tv == tv_convergence(sas15, 3.0, -3.0, (2, 3), 20, 0.5, 1)
    assert all(type(t) is int for t in tv.time_points)
    whole = occupation(sas15, 0.0, (-math.inf, math.inf), 1000, 4, 1)
    assert whole.occupation_fraction == 1.0


def test_diagnose_stream_layout(ergodic_spec, monkeypatch):
    # three blocks a start: the sweep on interval_stats' streams, to the last time
    # point past n_steps, and start b on tv_convergence's second stream
    monkeypatch.setattr(mc, "_BLOCK", 100)
    x0, x0_b, n_steps, tps, n_paths, width, seed = 20.0, -20.0, 1000, (50, 1500), 250, 0.5, 6
    intervals = [mc._ball(10.0), mc._compact((-5.0, 5.0), n_steps)]
    stats, tv = mc.diagnose(ergodic_spec, x0, x0_b, intervals, n_steps, tps, n_paths,
                            width, seed)
    for got, want in zip(stats, interval_stats(ergodic_spec, x0, intervals, n_steps,
                                               n_paths, seed)):
        _same_stats(got, want)
    edges = mc._hist_edges(width)

    def law(start, root):
        counts = sum(np.array([mc._clipped_counts(x, edges) for t, x in enumerate(
            mc._ensemble(ergodic_spec, start, n, tps[-1], child), start=1) if t in tps])
            for n, child in zip((100, 100, 50), root.spawn(3)))
        return counts / n_paths

    law_a = law(x0, np.random.SeedSequence(seed))
    law_b = law(x0_b, np.random.SeedSequence(seed).spawn(2)[1])
    assert tv.tv_values == tuple(float(0.5 * np.abs(a - b).sum()) for a, b in zip(law_a, law_b))
    assert (tv.time_points, tv.n_paths, tv.bin_width) == (tps, n_paths, width)


def _cpus(monkeypatch, n):
    """Pretend the process may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _forks(monkeypatch):
    """The list of forks made from now on, in the calling process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_one_worker_per_usable_cpu(monkeypatch):
    def jobs(n_paths, n_steps):
        return [(n_steps, None, n_paths, None)]

    spec, big = make_chain(1.5), jobs(3 * 8192, 100)
    _cpus(monkeypatch, 4)
    assert mc._workers(spec, big) == 4
    # a worker needs _MIN_LANES paths of the largest job
    assert mc._workers(spec, jobs(3 * mc._MIN_LANES + 1, 1000)) == 3
    custom = make_chain(ProfileFn.custom(lambda x: 1.5), unchecked=True)
    assert mc._workers(custom, big) == 1
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert mc._workers(spec, big) == 1
    finally:
        done.set()
        thread.join()
    forks = _forks(monkeypatch)
    want = return_stats(spec, 5.0, 2.0, 100, 3 * 8192, seed=3)
    assert len(forks) == 3
    # pinned to one CPU, the caller steps alone
    _cpus(monkeypatch, 1)
    assert mc._workers(spec, big) == 1
    assert return_stats(spec, 5.0, 2.0, 100, 3 * 8192, seed=3) == want
    assert len(forks) == 3 and _no_children()


def test_a_call_below_the_floor_never_forks(monkeypatch):
    _cpus(monkeypatch, 4)
    forks = _forks(monkeypatch)
    spec, steps = make_chain(1.5), mc._FORK_FLOOR // 8192
    interval_stats(spec, 0.0, [mc._ball(1.0)], steps - 1, 8192, seed=1)
    tv_convergence(spec, 0.0, 1.0, (steps // 2 - 1,), 8192, 0.5, seed=1)
    # above the floor, but too few paths for a second worker
    interval_stats(spec, 0.0, [mc._ball(1.0)], steps * 2, 2 * mc._MIN_LANES - 1, seed=1)
    assert forks == []
    interval_stats(spec, 0.0, [mc._ball(1.0)], steps, 8192, seed=1)
    assert len(forks) == 3 and _no_children()


def _steps_with_failures(monkeypatch, n_workers, failures):
    """Fail the piece from lane k0 of the block on the stream of spawn key k, (k, k0) in failures.

    Every call forks n_workers - 1 children; the exceptions the caller raised, by key.
    """
    _cpus(monkeypatch, n_workers)
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    read, raised = mc._read, {}

    def failing(*args):
        n, stream, lanes = args[-3:]
        piece = (stream.spawn_key, lanes.indices(n)[0])
        if piece in failures:
            raised[stream.spawn_key] = DomainError(f"block {piece[0]} lanes from {piece[1]}")
            raise raised[stream.spawn_key]
        return read(*args)

    monkeypatch.setattr(mc, "_read", failing)
    return raised


# 2 * 8192 + 37 paths, three blocks, on three workers: the pieces (block, first lane) are
# (0, 0) for the caller, (0, 5473) and (1, 0) for worker 1, (1, 2755) and (2, 0) for worker 2
@pytest.mark.parametrize("failures, first", [
    ({((1,), 2755), ((0,), 5473)}, ((0,), 5473)),  # each child fails on its first piece
    ({((1,), 2755), ((1,), 0)}, ((1,), 0)),  # two workers in one block, worker 1 in its second
    ({((2,), 0), ((1,), 0)}, ((1,), 0)),  # each child fails on its second piece
    ({((1,), 2755), ((2,), 0)}, ((1,), 2755)),  # a worker stops at its first failure
])
def test_a_failing_child_raises_its_exception_in_the_caller(monkeypatch, failures, first):
    _steps_with_failures(monkeypatch, 3, failures)
    with pytest.raises(DomainError) as exc:
        interval_stats(make_chain(1.5), 0.0, [mc._ball(1.0)], 2, 2 * 8192 + 37, seed=1)
    assert str(exc.value) == f"block {first[0]} lanes from {first[1]}"
    assert _no_children()


def test_the_first_failure_is_taken_in_job_block_worker_order(monkeypatch):
    # the pieces above, in both jobs: the caller fails in job 1, worker 2 on its second piece
    _steps_with_failures(monkeypatch, 3, {((1, 0), 0), ((0, 2), 0)})
    with pytest.raises(DomainError, match=r"^block \(0, 2\) lanes from 0$"):
        tv_convergence(make_chain(1.5), 0.0, 1.0, (2,), 2 * 8192 + 37, 0.5, seed=1)
    assert _no_children()
    # nine blocks a job on two workers: the caller steps blocks 0-3 whole and lanes from 0
    # of block 4; worker 1 the rest of block 4 from lane 18, then blocks 5-8 whole
    monkeypatch.undo()  # the failures above are not failures here
    monkeypatch.setattr(mc, "_BLOCK", 2048)
    _steps_with_failures(monkeypatch, 2, {((0, 6), 0), ((1, 2), 0)})
    with pytest.raises(DomainError, match=r"^block \(0, 6\) lanes from 0$"):
        tv_convergence(make_chain(1.5), 0.0, 1.0, (2,), 8 * 2048 + 37, 0.5, seed=1)
    assert _no_children()


# three 8192-path blocks or nine 2048-path blocks: the child fails on the block that it
# shares with the caller
@pytest.mark.parametrize("block", [8192, 2048], ids=["lanes", "whole-blocks"])
def test_the_callers_own_exception_is_raised_as_is(monkeypatch, block):
    monkeypatch.setattr(mc, "_BLOCK", block)
    raised = _steps_with_failures(monkeypatch, 2, {((0,), 0), ((1,), 18), ((4,), 18)})
    with pytest.raises(DomainError) as exc:
        interval_stats(make_chain(1.5), 0.0, [mc._ball(1.0)], 2, 2 * 8192 + 37, seed=1)
    assert exc.value is raised[(0,)]
    assert _no_children()


def test_an_interrupted_caller_leaves_no_worker(monkeypatch):
    # the children would sleep for a minute; the interrupt kills them at once
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)

    def interrupted(*args):
        if args[-1].start == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(mc, "_read", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        interval_stats(make_chain(1.5), 0.0, [mc._ball(1.0)], 2, 8192, seed=1)
    assert time.monotonic() - start < 30.0
    assert _no_children()


BIT_IDENTITY_CHAINS = [
    make_chain(ProfileFn.two_valued(1.5, 1.8), delta=ProfileFn.two_valued(0.5, -0.5)),
    make_chain(1.5),
    make_chain(ProfileFn.periodic(3.0, (1.2, 0.7, 1.0)), delta=0.2),
]


@pytest.mark.parametrize("block", [8192, 2048], ids=["lanes", "whole-blocks"])
@pytest.mark.parametrize("spec", BIT_IDENTITY_CHAINS, ids=["two-valued", "constant",
                                                           "periodic"])
def test_statistics_are_bit_identical_for_any_worker_count(monkeypatch, spec, block):
    # 3 blocks a job, the last 37 paths short of full, so the shares end inside blocks, or
    # 9 blocks a job, most of them inside a share and stepped whole; every call forks
    # W - 1 workers
    n_paths, n_steps, tps = 2 * 8192 + 37, 12, (3, 8, 15)
    intervals = [mc._ball(10.0), (-20.0, 30.0, 25.0)]
    monkeypatch.setattr(mc, "_BLOCK", block)
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    forks = _forks(monkeypatch)
    results = []
    for n_workers in (1, 2, 3):
        _cpus(monkeypatch, n_workers)
        del forks[:]
        results.append((
            interval_stats(spec, 3.0, intervals, n_steps, n_paths, seed=7),
            tv_convergence(spec, -20.0, 20.0, tps, n_paths, 0.5, seed=7),
            mc.diagnose(spec, 3.0, -20.0, intervals, n_steps, tps, n_paths, 0.5, seed=7),
        ))
        assert len(forks) == 3 * (n_workers - 1)
    want_stats, want_tv, (want_diag_stats, want_diag_tv) = results[0]
    for got_stats, got_tv, (got_diag_stats, got_diag_tv) in results[1:]:
        for got, want in zip(got_stats + got_diag_stats, want_stats + want_diag_stats):
            _same_stats(got, want)
        assert (got_tv, got_diag_tv) == (want_tv, want_diag_tv)
    assert _no_children()


def test_the_workers_shares_tile_every_job(monkeypatch):
    # each piece's partial is its (block, first lane, end lane, block size), so the
    # children's pieces come back through their pipes
    def read(n, stream, lanes):
        return (stream.spawn_key[-1], *lanes.indices(n)[:2], n)

    monkeypatch.setattr(mc, "_BLOCK", 2048)
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    sizes = (2048, 2 * 2048 + 37, 8 * 2048 + 37)  # jobs of 1, 3 and 9 blocks
    forks = _forks(monkeypatch)
    for n_workers in (1, 2, 3):
        _cpus(monkeypatch, n_workers)
        del forks[:]
        jobs = [(1, read, n, np.random.SeedSequence(0)) for n in sizes]
        for n_paths, pieces in zip(sizes, mc._run(make_chain(1.5), *jobs)):
            paths = [b * 2048 + p for b, lo, hi, _ in pieces for p in range(lo, hi)]
            assert sorted(paths) == list(range(n_paths))
            cut = {b for b, lo, hi, n in pieces if (lo, hi) != (0, n)}
            assert len(cut) <= n_workers - 1
        assert len(forks) == n_workers - 1
    assert _no_children()


def test_fractional_and_nan_counts_are_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew for a refused count")

    monkeypatch.setattr(mc, "_ensemble", no_draws)
    monkeypatch.setattr(mc, "simulate", no_draws)
    spec, nan = make_chain(1.5), math.nan
    calls = {
        "n_steps must be >= 2 and whole": [
            lambda: return_stats(spec, 0.0, 1.0, 100.5, 4, 1),
            lambda: invariant_histogram(spec, 0.0, 10.5, None, 0.5, 1),
            lambda: interval_stats(spec, 0.0, [mc._ball(1.0)], nan, 4, 1),
            lambda: occupation(spec, 0.0, (-1.0, 1.0), 1000.5, 4, 1),
            lambda: mc.diagnose(spec, 0.0, 3.0, [mc._ball(1.0)], nan, (5,), 4, 0.5, 1),
        ],
        "n_paths must be >= 1 and whole": [
            lambda: return_stats(spec, 0.0, 1.0, 100, 4.5, 1),
            lambda: interval_stats(spec, 0.0, [mc._ball(1.0)], 100, nan, 1),
        ],
        "n_paths must be >= 2 and whole": [
            lambda: tv_convergence(spec, 0.0, 1.0, (2,), 4.5, 0.5, 1),
            lambda: tv_convergence(spec, 0.0, 1.0, (2,), nan, 0.5, 1),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(DomainError, match=message):
                call()
    for bad in (10.5, nan, math.inf):
        with pytest.raises(DomainError, match="n_steps must be >= 1 and whole"):
            simulate(spec, 0.0, bad, 1)
    # a whole float is its count
    monkeypatch.undo()
    assert return_stats(spec, 0.0, 1.0, 100.0, 4.0, 1) == return_stats(spec, 0.0, 1.0, 100,
                                                                      4, 1)
    assert np.array_equal(simulate(spec, 0.0, 3.0, 1).states, simulate(spec, 0.0, 3, 1).states)
