"""Seed-pinned Monte Carlo diagnostics."""

import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

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


def test_occupation_scales_with_set_size(sas15):
    small = occupation(sas15, x0=0.0, compact_c=(-2.0, 2.0), n_steps=2000,
                       n_paths=100, seed=3)
    large = occupation(sas15, x0=0.0, compact_c=(-20.0, 20.0), n_steps=2000,
                       n_paths=100, seed=3)
    assert large.occupation_fraction > small.occupation_fraction


@pytest.mark.parametrize("bin_width", [0.0, 1e-300, 5e-324, math.nan])
def test_bin_count_is_bounded(sas15, bin_width):
    # more than 10^6 bins over the fixed range is refused before any draw
    message = "bin_width must be >= 0.001"
    with pytest.raises(DomainError, match=message):
        tv_convergence(sas15, 3.0, -3.0, (20,), 10, bin_width, 4)
    with pytest.raises(DomainError, match=message):
        invariant_histogram(sas15, 0.0, 10, 0, bin_width, 4)
    assert len(mc._hist_edges(1e-3)) <= 10 ** 6 + 2


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
    # the pool still runs the next call
    assert return_stats(make_chain(1.5), 5.0, 2.0, 50, 300, seed=3) == before


def test_failing_block_cancels_the_blocks_not_started(monkeypatch):
    # two workers, eight blocks: the first block to step fails at once; the
    # blocks still queued when the failure is seen never start, and every
    # other started block finishes before the call raises
    started, finished = [], []
    ensemble = mc._ensemble

    def counted(*args):
        started.append(args)
        yield from ensemble(*args)
        finished.append(args)

    monkeypatch.setattr(mc, "_ensemble", counted)
    spec, boom = _failing_chain()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(mc, "_pool", lambda: pool)
        with pytest.raises(DomainError) as exc:
            interval_stats(spec, 0.0, [(-1.0, 1.0, 1.0)], 100, 8 * 8192, seed=1)
    assert exc.value is boom
    assert len(finished) == len(started) - 1
    assert len(started) < 8


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
