"""Chain specification, profiles and the trajectory simulator."""

import dataclasses
import math
import sys

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
from stablike.chain import FREEZE
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


@pytest.mark.parametrize("left, right", [(1.2, 1.0), (-0.0, 0.0), (math.nan, -math.inf)])
def test_two_valued_lookup_is_np_where_bit_for_bit(left, right):
    # the gather ProfileFn.at uses equals np.where(x < 0, left, right) on every float:
    # nan and -0.0 take the right value, and the values' own bits come through
    p = ProfileFn.two_valued(left, right)
    special = [math.nan, -0.0, 0.0, FREEZE, -FREEZE, math.inf, -math.inf]
    x = np.concatenate([special, default_rng(3).standard_cauchy(1001) * 1e3])
    for pos in (x, x.reshape(-1, 7), x[1]):
        got, want = p.at(pos), np.where(np.asarray(pos) < 0, left, right)
        assert type(got) is np.ndarray and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("p", [
    ProfileFn.constant(1.5),
    ProfileFn.two_valued(1.2, 1.0),
    ProfileFn.periodic(2.0, (1.1, 1.9)),
    ProfileFn.piecewise((-1.0, 1.0), (0.5, 1.0, 1.5)),
    ProfileFn.custom(lambda x: 1.0 + 0.5 * np.sign(x)),
    ProfileFn.custom(lambda x: 1.5 if x < 0 else 1.2),  # a scalar-only fn
], ids=["constant", "two_valued", "periodic", "piecewise", "custom", "custom-scalar"])
def test_lookup_is_a_float_array_of_the_positions_shape(p):
    # a 0-d position gives a 0-d array, not a numpy scalar, for every kind
    x = np.array([-3.5, -1.0, -0.2, 0.0, 0.7, 1.0, 2.5, 9.0])
    for pos in (0.7, x[2], np.asarray(-1.0), x, x.reshape(2, 4), x.reshape(2, 2, 2)):
        got = p.at(pos)
        assert type(got) is np.ndarray and got.dtype == float
        assert got.shape == np.shape(pos)
        assert got.ravel().tolist() == [p(v) for v in np.ravel(pos)]


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
    # any shape, but only the kind's own fields: a stray field is refused
    kind = draw(st.sampled_from(("constant", "two_valued", "periodic", "piecewise")))
    breakpoints = []
    if kind == "piecewise":
        breakpoints = draw(st.lists(st.floats(), max_size=3)
                           | st.lists(st.floats(), max_size=3).map(sorted))
    n = draw(st.sampled_from((0, 1, 2, 3, len(breakpoints) + 1)))
    values = draw(st.lists(st.floats(0.01, 1.99), min_size=n, max_size=n))
    period = draw(st.floats()) if kind == "periodic" else 0.0
    return kind, tuple(values), tuple(breakpoints), period


_STRAY_FIELDS = {"values": (1.0,), "breakpoints": (3.0,), "period": 2.0, "fn": abs}


@pytest.mark.parametrize("p, stray", [
    (ProfileFn.constant(1.5), ("breakpoints", "period", "fn")),
    (ProfileFn.two_valued(1.2, 1.6), ("breakpoints", "period", "fn")),
    (ProfileFn.periodic(2.0, (1.1, 1.9)), ("breakpoints", "fn")),
    (ProfileFn.piecewise((0.0,), (1.0, 1.5)), ("period", "fn")),
    (ProfileFn.custom(abs), ("values", "breakpoints", "period")),
], ids=["constant", "two_valued", "periodic", "piecewise", "custom"])
def test_profile_refuses_a_field_its_kind_does_not_take(p, stray):
    for name in stray:
        with pytest.raises(DomainError, match=f"^{p.kind} profile takes no {name}$"):
            dataclasses.replace(p, **{name: _STRAY_FIELDS[name]})
    # a field at its default is absent
    assert ProfileFn("two_valued", (1.2, 1.6), (), 0.0, None) == ProfileFn.two_valued(1.2, 1.6)


def _check_cell(p, x):
    """p.cell(x) agrees with p(x) and p.at, and its span keeps the value; the value."""
    lo, hi, v = p.cell(x)
    assert v == p(x) == p.at([x])[0]
    if lo != hi:
        assert lo <= x < hi
        # the first and the last float of the span look up alike
        assert p(max(lo, -sys.float_info.max)) == v
        assert p(math.nextafter(hi, -math.inf)) == v
    return v


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=500)
@given(args=_profile_args(), x=st.floats(allow_nan=False, allow_infinity=False),
       k=st.integers(-10**6, 10**6) | st.integers(-2**62, 2**62), ulps=st.integers(-4, 4))
def test_accepted_profiles_look_up_alike(args, x, k, ulps):
    # every shape the constructor accepts is one cell, __call__ and at can
    # index, at any finite x and next to a cell edge: a breakpoint, the
    # origin, or the k-th multiple of the periodic cell width
    try:
        p = ProfileFn(*args)
    except DomainError:
        return
    assert _check_cell(p, x) in p.value_set()
    if p.kind == "periodic":
        edge = k * (p.period / len(p.values))
    else:
        edge = p.breakpoints[k % len(p.breakpoints)] if p.breakpoints else 0.0
    if math.isfinite(edge):
        _check_cell(p, _nudged(edge, ulps))


@pytest.mark.parametrize("p", [
    ProfileFn.constant(1.5),
    ProfileFn.two_valued(1.2, 1.0),
    ProfileFn.periodic(2.0, (1.1, 1.9)),
    ProfileFn.piecewise((-1.0, 1.0), (0.5, 1.0, 1.5)),
    ProfileFn.custom(lambda x: 1.5),
], ids=lambda p: p.kind)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_profiles_reject_non_finite_positions(p, x):
    with pytest.raises(DomainError, match="finite"):
        p.cell(x)
    with pytest.raises(DomainError, match="finite"):
        p(x)
    if p.kind in ("periodic", "piecewise"):
        with pytest.raises(DomainError, match="finite"):
            p.at([0.0, x])


def test_make_chain_accepts_numbers():
    spec = make_chain(1.5, gamma=2.0, delta=-0.25)
    assert spec.alpha_profile(3.0) == 1.5
    assert spec.family.gamma_profile(-3.0) == 2.0
    assert spec.family.delta_profile(0.0) == -0.25


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


@pytest.mark.parametrize("role", ["alpha", "gamma", "delta"])
def test_spec_refuses_a_custom_profile_without_the_unchecked_flag(role):
    with pytest.raises(DomainError, match="custom profiles require the unchecked=True"):
        make_chain(**{"alpha": 1.5, role: ProfileFn.custom(lambda x: 1.0)})


@pytest.mark.parametrize("delta", [math.inf, ProfileFn.two_valued(0.5, math.inf)],
                         ids=["constant", "two-valued"])
def test_spec_refuses_a_non_finite_delta(delta):
    with pytest.raises(DomainError, match="delta profile value inf must be finite"):
        make_chain(1.5, delta=delta)


def test_unchecked_skips_validation():
    spec = ChainSpec(
        alpha_profile=ProfileFn.constant(2.0),  # boundary value, normally rejected
        family=SasJump(
            gamma_profile=ProfileFn.constant(1.0),
            delta_profile=ProfileFn.constant(0.0),
        ),
        unchecked=True,
    )
    assert spec.alpha_profile(0.0) == 2.0


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
    # so do runs that end on either side of a 4096-step block edge
    spec = make_chain(ProfileFn.periodic(2.0, (0.9, 1.6)), delta=ProfileFn.two_valued(0.2, -0.2))
    long = simulate(spec, x0=0.5, n_steps=9000, seed=11).states
    for n in (4095, 4096, 4097, 8192, 8193):
        assert simulate(spec, x0=0.5, n_steps=n, seed=11).states.tobytes() == long[:n].tobytes()


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
    assert states.tobytes() == _simulate_per_step(make_chain(alpha), 0.0, 5000, 1).tobytes()
    assert np.all(np.isfinite(states))
    hit = np.flatnonzero(np.abs(states) >= 1e300)
    assert hit.size > 0
    assert np.all(np.abs(states[hit[0]:]) == 1e300)
    assert np.all(states[hit[0]:] == states[hit[0]])


# gamma 1e-300 keeps every state an exact integer, so the window that finishes
# the stay from 0 ends exactly on the breakpoint 300.0
_ON_THE_BREAKPOINT = dict(alpha=ProfileFn.piecewise((300.0,), (1.5, 0.7)), gamma=1e-300)


@pytest.mark.parametrize("spec, n_steps", [
    (make_chain(**_ON_THE_BREAKPOINT, delta=1.0), 1000),
    # the right-hand cell's delta shows which cell 300.0 took
    (make_chain(**_ON_THE_BREAKPOINT, delta=ProfileFn.piecewise((300.0,), (1.0, -0.5))), 1000),
    # a block edge and the run's end each cut a window
    (make_chain(1.5), 2 * 4096 + 77),
    (make_chain(ProfileFn.two_valued(0.9, 0.8)), 2 * 4096 + 77),
    # a periodic profile steps through per-profile spans, not the joint table
    (make_chain(ProfileFn.periodic(200.0, (1.3, 1.6)), gamma=0.1), 2 * 4096 + 77),
], ids=["breakpoint", "breakpoint-right-cell", "constant", "two-valued", "periodic"])
def test_simulate_finishes_a_stay_as_the_per_step_loop(spec, n_steps):
    states = simulate(spec, 0.0, n_steps, 3).states
    assert states.tobytes() == _simulate_per_step(spec, 0.0, n_steps, 3).tobytes()
    if spec.alpha_profile.kind == "piecewise":
        assert states[299] == 300.0
        assert states[300] == (299.5 if spec.family.delta_profile.kind == "piecewise" else 301.0)


def test_simulate_needs_enumerable_alpha():
    spec = make_chain(ProfileFn.custom(lambda x: 1.5), unchecked=True)
    with pytest.raises(DomainError):
        simulate(spec, x0=0.0, n_steps=10, seed=1)


def test_simulate_rejects_bad_lengths(sas15):
    for bad in (0, True, np.True_):  # a bool is no step count
        with pytest.raises(DomainError):
            simulate(sas15, x0=0.0, n_steps=bad, seed=1)


def _lookup_per_point(p, x):
    """The profile value at x, computed afresh as __call__ did before cells."""
    if p.kind == "constant":
        return p.values[0]
    if p.kind == "two_valued":
        return p.values[0] if x < 0 else p.values[1]
    if p.kind == "periodic":
        cell_w = p.period / len(p.values)
        i = int(np.floor((x % p.period) / cell_w))
        return p.values[min(i, len(p.values) - 1)]
    if p.kind == "piecewise":
        return p.values[int(np.searchsorted(p.breakpoints, x, side="right"))]
    return float(p.fn(x))


def _simulate_per_step(spec, x0, n_steps, seed):
    """simulate's states from the loop it replaced: three lookups on every step."""
    alphas = spec.alpha_profile.value_set()
    row_of = {a: i for i, a in enumerate(alphas)}
    a_col = np.array(alphas)[:, None]
    rng = default_rng(SeedSequence(seed))
    a_fn, g_fn, d_fn = spec.alpha_profile, spec.family.gamma_profile, spec.family.delta_profile
    states = np.empty(n_steps)
    x = float(x0)
    for i in range(n_steps):
        j = i % 4096
        if j == 0:
            u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 4096)
            e = rng.standard_exponential(4096)
            rows = cms_transform(a_col, u, e).tolist()
        x_new = (x + _lookup_per_point(d_fn, x)
                 + _lookup_per_point(g_fn, x) * rows[row_of[_lookup_per_point(a_fn, x)]][j])
        if not -1e300 < x_new < 1e300:
            states[i:] = math.copysign(1e300, x if math.isnan(x_new) else x_new)
            break
        x = states[i] = x_new
    return states


@st.composite
def _enumerable_profile(draw, values):
    v = st.sampled_from(values)
    kind = draw(st.sampled_from(("constant", "two_valued", "periodic", "piecewise")))
    if kind == "constant":
        return ProfileFn.constant(draw(v))
    if kind == "two_valued":
        return ProfileFn.two_valued(draw(v), draw(v))
    if kind == "periodic":
        period = draw(st.sampled_from((0.3, 1.0, 2.0, 7.0)))
        return ProfileFn.periodic(period, draw(st.lists(v, min_size=1, max_size=3)))
    breakpoints = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3, unique=True))
    return ProfileFn.piecewise(sorted(breakpoints),
                               draw(st.lists(v, min_size=len(breakpoints) + 1,
                                             max_size=len(breakpoints) + 1)))


def _edges(p):
    """Positions where p may change value, near the origin."""
    if p.kind == "two_valued":
        return [0.0]
    if p.kind == "periodic":
        return [k * (p.period / len(p.values)) for k in range(-4, 2 * len(p.values) + 1)]
    return list(p.breakpoints)


_ALPHAS = (0.5, 0.9, 1.2, 1.5, 1.8)
_CUSTOM_GAMMA = ProfileFn.custom(lambda x: 1.0 + 0.5 * math.sin(x))
_CUSTOM_DELTA = ProfileFn.custom(lambda x: -0.5 * math.tanh(x))


@settings(max_examples=100)
@given(
    alpha=_enumerable_profile(_ALPHAS)
    | st.sampled_from((ProfileFn.constant(0.01), ProfileFn.periodic(1.0, (0.01, 1.5)))),
    gamma=_enumerable_profile((0.2, 1.0, 2.5)) | st.just(_CUSTOM_GAMMA),
    delta=_enumerable_profile((-0.5, 0.0, 0.3)) | st.just(_CUSTOM_DELTA),
    start=st.data(),
    n_steps=st.sampled_from((1, 4095, 4096, 4097, 9000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_the_per_step_loop(alpha, gamma, delta, start, n_steps, seed):
    # bit for bit, from starts on and next to cell edges, across block
    # boundaries, with custom gamma and delta, and on chains that freeze
    # (alpha 0.01; test_simulate_freezes_overflowing_paths pins two more)
    spec = ChainSpec(alpha, SasJump(gamma, delta), unchecked="custom" in (gamma.kind, delta.kind))
    edges = _edges(alpha) + _edges(gamma) + _edges(delta)
    x0 = start.draw(st.sampled_from(edges) if edges else st.floats(-20.0, 20.0))
    x0 = _nudged(x0, start.draw(st.integers(-2, 2)))
    got = simulate(spec, x0, n_steps, seed).states
    assert got.tobytes() == _simulate_per_step(spec, x0, n_steps, seed).tobytes()


# chains of finitely many cells step through one joint table (chain._joint_cells)
@pytest.mark.parametrize("spec", [
    make_chain(ProfileFn.piecewise((-1.0, 2.0), (1.2, 0.7, 1.6)),
               gamma=ProfileFn.piecewise((2.0,), (1.0, 0.4)),
               delta=ProfileFn.piecewise((-1.0, 3.0), (0.3, -0.2, 0.1))),
    make_chain(ProfileFn.two_valued(1.5, 1.8),
               delta=ProfileFn.piecewise((0.0, 1.0), (0.5, -0.5, -0.6))),
    make_chain(ProfileFn.piecewise((-1e20, 0.0), (0.9, 1.5, 1.8)),
               delta=ProfileFn.two_valued(0.5, -0.5)),
    make_chain(ProfileFn.piecewise((-1e299, 0.0), (1.2, 1.5, 1.8)),
               gamma=ProfileFn.two_valued(1.0, 2.0)),
    make_chain(ProfileFn.piecewise((-sys.float_info.max, 0.0), (1.2, 1.5, 1.8))),
    make_chain(1.5, gamma=0.5, delta=0.2),
], ids=["shared-breakpoint", "two-valued-beside-breakpoint-at-0", "leftmost-edge-1e20",
        "leftmost-edge-1e299", "leftmost-edge-max-float", "no-edges"])
def test_joint_cells_step_as_the_per_step_loop(spec):
    # from -0.0, and on and just below each edge: -0.0 takes the cell right
    # of an edge at 0, and a start below the first edge reads the leftmost cell
    profiles = (spec.alpha_profile, spec.family.gamma_profile, spec.family.delta_profile)
    edges = sorted({x for p in profiles for x in _edges(p)})
    below = [math.nextafter(x, -math.inf) for x in edges]
    for x0 in filter(math.isfinite, [-0.0, 0.0, *edges, *below]):
        for n_steps, seed in ((4097, 5), (9000, 2)):
            got = simulate(spec, x0, n_steps, seed).states
            assert got.tobytes() == _simulate_per_step(spec, x0, n_steps, seed).tobytes()


def test_finitely_many_cells_are_looked_up_only_to_build_the_table(monkeypatch):
    calls = []
    cell = ProfileFn.cell
    monkeypatch.setattr(ProfileFn, "cell", lambda p, x: calls.append(x) or cell(p, x))
    spec = make_chain(ProfileFn.two_valued(1.5, 1.8),
                      delta=ProfileFn.piecewise((-1.0, 0.0), (0.5, 0.0, -0.5)))
    states = simulate(spec, 0.0, 20_000, 7).states
    assert np.count_nonzero(np.diff(np.signbit(states))) > 1000  # the path crosses 0 often
    assert len(calls) == 3 * 3  # each profile once in each of the 3 joint cells


def test_a_one_row_transform_is_its_row_of_the_broadcast_one():
    # a row computed alone is that row of the broadcast call over the alpha
    # column, so simulate could compute only the rows a block reads and
    # keep its states
    rng = default_rng(SeedSequence(5))
    alphas = [0.002, 1.0, 1.9999, 0.5, 1.5, *rng.uniform(0.0, 2.0, 20)]
    a_col = np.array(alphas)[:, None]
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 4096)
    e = rng.standard_exponential(4096)
    table = cms_transform(a_col, u, e)
    for i in range(len(alphas)):
        assert cms_transform(a_col[i:i + 1], u, e)[0].tobytes() == table[i].tobytes()
