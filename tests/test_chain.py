"""Chain specification, profiles and the trajectory simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import SeedSequence, default_rng

from stablike import (
    ChainSpec,
    DomainError,
    ProfileFn,
    SasJump,
    make_chain,
    simulate,
)
from stablike.chain import alpha_at, delta_at, gamma_at
from stablike.stable import cms_transform


def test_constant_profile():
    p = ProfileFn.constant(1.5)
    for x in (-1e6, -1.0, 0.0, 2.5, 1e6):
        assert p(x) == 1.5
    assert p.values == (1.5,)


def test_two_valued_profile_splits_at_origin():
    p = ProfileFn.two_valued(1.2, 1.0)
    assert p(-1e-12) == 1.2
    assert p(-50.0) == 1.2
    assert p(0.0) == 1.0  # x >= 0 takes the right value
    assert p(50.0) == 1.0


def test_periodic_profile_wraps():
    p = ProfileFn.periodic(2.0, [1.1, 1.9])
    assert p(0.1) == 1.1
    assert p(1.5) == 1.9
    assert p(2.1) == 1.1
    assert p(-0.5) == p(-0.5 + 2.0)


def test_piecewise_profile_breakpoints():
    p = ProfileFn.piecewise([-1.0, 1.0], [0.5, 1.0, 1.5])
    assert p(-5.0) == 0.5
    assert p(0.0) == 1.0
    assert p(1.0) == 1.5
    assert p(7.0) == 1.5


def test_custom_profile_callable():
    p = ProfileFn.custom(lambda x: 1.0 + 0.5 / (1.0 + x * x))
    assert p(0.0) == pytest.approx(1.5)
    assert p(1e9) == pytest.approx(1.0)


@pytest.mark.parametrize("kind, values, breakpoints, period", [
    ("periodic", (0.0,), (), 0.0),
    ("periodic", (1.5, 1.2), (), math.inf),
    ("periodic", (1.5, 1.2), (), 5e-324),  # the cell width rounds to 0
    ("periodic", (), (), 1.0),
    ("two_valued", (1.0, 1.2, 1.3), (), 0.0),
    ("constant", (), (), 0.0),
    ("piecewise", (1.0, 1.2), (math.nan,), 0.0),
    ("piecewise", (1.0, 1.2, 1.3), (1.0, 0.0), 0.0),
    ("piecewise", (1.0,), (1.0,), 0.0),
    ("custom", (), (), 0.0),
    ("spline", (1.0,), (), 0.0),
])
def test_profile_rejects_a_bad_shape(kind, values, breakpoints, period):
    with pytest.raises(DomainError):
        ProfileFn(kind, values, breakpoints, period)


@st.composite
def _profile_args(draw):
    breakpoints = draw(st.lists(st.floats(), max_size=3)
                       | st.lists(st.floats(), max_size=3).map(sorted))
    n = draw(st.sampled_from((0, 1, 2, 3, len(breakpoints) + 1)))
    values = draw(st.lists(st.floats(0.01, 1.99), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("constant", "two_valued", "periodic", "piecewise")))
    return kind, tuple(values), tuple(breakpoints), draw(st.floats())


@settings(derandomize=True, max_examples=500, deadline=None)
@given(args=_profile_args(), x=st.floats(allow_nan=False, allow_infinity=False))
def test_accepted_profiles_look_up_alike(args, x):
    # every shape the constructor accepts is one __call__ and at can index
    try:
        p = ProfileFn(*args)
    except DomainError:
        return
    v = p(x)
    assert v == p.at([x])[0]
    assert v in p.value_set()


def test_make_chain_accepts_numbers():
    spec = make_chain(1.5, gamma=2.0, delta=-0.25)
    assert alpha_at(spec, 3.0) == 1.5
    assert gamma_at(spec, -3.0) == 2.0
    assert delta_at(spec, 0.0) == -0.25


def test_spec_validates_alpha_range():
    with pytest.raises(DomainError):
        make_chain(2.5)
    with pytest.raises(DomainError):
        ChainSpec(
            alpha_profile=ProfileFn.two_valued(1.2, 0.0),
            family=SasJump(
                gamma_profile=ProfileFn.constant(1.0),
                delta_profile=ProfileFn.constant(0.0),
            ),
        )


def test_spec_validates_gamma_positive():
    with pytest.raises(DomainError):
        make_chain(1.5, gamma=0.0)
    with pytest.raises(DomainError):
        make_chain(1.5, gamma=math.inf)


def test_unchecked_skips_validation():
    spec = ChainSpec(
        alpha_profile=ProfileFn.constant(2.0),  # boundary value, normally rejected
        family=SasJump(
            gamma_profile=ProfileFn.constant(1.0),
            delta_profile=ProfileFn.constant(0.0),
        ),
        unchecked=True,
    )
    assert alpha_at(spec, 0.0) == 2.0


def test_simulate_replay_and_shape(sas15):
    a = simulate(sas15, x0=3.0, n_steps=200, seed=99)
    b = simulate(sas15, x0=3.0, n_steps=200, seed=99)
    assert a.start == 3.0 and a.seed == 99
    assert len(a.states) == 200  # states exclude the starting point
    assert np.array_equal(a.states, b.states)
    c = simulate(sas15, x0=3.0, n_steps=200, seed=100)
    assert not np.array_equal(a.states, c.states)


def test_simulate_prefix_property(sas15):
    # a longer run with the same seed extends the shorter one
    short = simulate(sas15, x0=0.0, n_steps=50, seed=7)
    long = simulate(sas15, x0=0.0, n_steps=300, seed=7)
    assert np.array_equal(long.states[:50], short.states)


def test_simulate_state_dependence():
    # two-valued drift pulls toward the origin from both sides
    spec = ChainSpec(
        alpha_profile=ProfileFn.constant(1.8),
        family=SasJump(
            gamma_profile=ProfileFn.constant(0.01),
            delta_profile=ProfileFn.two_valued(1.0, -1.0),
        ),
    )
    traj = simulate(spec, x0=500.0, n_steps=2000, seed=5)
    # with tiny jump scale the path marches down by ~1 per step
    assert traj.states[400] < 150.0
    assert np.all(np.abs(traj.states[900:]) < 50.0)


def test_first_state_is_shift_plus_scaled_cms_jump():
    # documented stream layout: a block of 4096 uniform angles, then 4096
    # exponentials; the first step uses the first of each
    spec = make_chain(1.5, gamma=2.0, delta=0.25)
    traj = simulate(spec, x0=2.0, n_steps=1, seed=13)
    rng = default_rng(SeedSequence(13))
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 4096)
    e = rng.standard_exponential(4096)
    want = 2.0 + 0.25 + 2.0 * float(cms_transform(1.5, u[0], e[0]))
    assert traj.states[0] == pytest.approx(want, rel=1e-14)


def test_step_moves_by_shift_plus_scaled_jump():
    spec = make_chain(1.0, gamma=2.0, delta=10.0)
    base = make_chain(1.0, gamma=2.0, delta=0.0)
    got = simulate(spec, x0=1.0, n_steps=1, seed=3).states[0]
    plain = simulate(base, x0=1.0, n_steps=1, seed=3).states[0]
    assert got - plain == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [ProfileFn.periodic(1.0, (0.01, 0.03)), 0.01])
def test_simulate_freezes_overflowing_paths(alpha):
    # at index 0.01 a single jump can exceed any double; the path must
    # stop at +-1e300 like the ensembles, not run on as inf or nan
    states = simulate(make_chain(alpha), x0=0.0, n_steps=5000, seed=1).states
    assert np.all(np.isfinite(states))
    hit = np.flatnonzero(np.abs(states) >= 1e300)
    assert hit.size > 0
    assert np.all(np.abs(states[hit[0]:]) == 1e300)
    assert np.all(states[hit[0]:] == states[hit[0]])


def test_simulate_needs_enumerable_alpha():
    spec = make_chain(ProfileFn.custom(lambda x: 1.5), unchecked=True)
    with pytest.raises(DomainError):
        simulate(spec, x0=0.0, n_steps=10, seed=1)


def test_simulate_rejects_bad_lengths(sas15):
    with pytest.raises(DomainError):
        simulate(sas15, x0=0.0, n_steps=0, seed=1)
