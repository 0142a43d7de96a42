"""Theorem oracles for classify over generated enumerable chains.

Each property holds for every chain of its class, whatever the drift
displays manage to show, so a verdict that breaks it is unsound, not
merely weak. The chains are drawn by hypothesis under the suite's
derandomized profile: every run replays the same examples. A property
that fails today is a strict xfail that names its ROADMAP item, and its
known counterexamples are explicit examples, so the xfail never rests
on what the search happens to find. Hypothesis runs every explicit
example first and searches only once they all pass, so such a
property's search runs again once its item is mended.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stablike import ProfileFn, classify, make_chain


def _levels(lo, hi):
    """Values k / 1000 in [lo, hi]: coarse enough to stay off knife edges."""
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda k: k / 1000)


def _profiles(values, periods=_levels(0.5, 4.0)):
    """An enumerable profile, of any of the four kinds, whose values values draws."""
    def piecewise(vals):
        cuts = st.lists(st.integers(-20, 20), min_size=len(vals) - 1,
                        max_size=len(vals) - 1, unique=True)
        return cuts.map(lambda b: ProfileFn.piecewise(sorted(map(float, b)), vals))

    return st.one_of(
        values.map(ProfileFn.constant),
        st.builds(ProfileFn.two_valued, values, values),
        st.builds(ProfileFn.periodic, periods, st.lists(values, min_size=1, max_size=3)),
        st.lists(values, min_size=2, max_size=4).flatmap(piecewise),
    )


_GAMMAS = _profiles(_levels(0.2, 3.0))
_ZERO = ProfileFn.constant(0.0)
# periods whose cells of 1, 2 or 3 per period put no edge on an |x| of the default
# grid, where the half-open cells of a profile and of its mirror image differ
_OFF_GRID = st.sampled_from((1.3, 2.9, 7.7))
_RECURRENT = ("Recurrent", "NullCandidate", "Ergodic")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a per-regime |x| trend test")
@settings(max_examples=30)
@given(alpha=_profiles(_levels(0.3, 0.95)), gamma=_GAMMAS,
       delta=_profiles(_levels(-3.0, 3.0)))
@example(alpha=ProfileFn.periodic(1.0, (0.897, 0.868)), gamma=ProfileFn.constant(0.58),
         delta=ProfileFn.two_valued(2.672, -2.672))  # test_unsound_ergodic_verdicts
def test_index_below_one_with_bounded_drift_never_recurs(alpha, gamma, delta):
    """sup alpha < 1 and a bounded delta: never Recurrent, NullCandidate or Ergodic.

    In the generator of V(x) = |x|^beta, 0 < beta < sup alpha, the jumps
    add Theta(|x|^(beta - alpha(x))) and a bounded shift only
    O(|x|^(beta - 1)), which is smaller since alpha(x) < 1: far out the
    chain behaves as its driftless self, whose index below 1 makes it
    transient.
    """
    verdict = classify(make_chain(alpha, gamma, delta)).verdict
    assert verdict not in ("Recurrent", "NullCandidate", "Ergodic")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a per-regime |x| trend test")
@settings(max_examples=30)
@given(alpha=_profiles(_levels(1.05, 1.95)), gamma=_GAMMAS)
@example(alpha=ProfileFn.periodic(2.0, (1.239, 1.46)),
         gamma=ProfileFn.constant(2.54))  # test_unsound_ergodic_verdicts
@example(alpha=ProfileFn.constant(1.05),
         gamma=ProfileFn.periodic(1.276, (0.201, 0.2, 0.201)))  # its search at 400 examples
def test_index_above_one_without_drift_is_never_ergodic(alpha, gamma):
    """Every alpha > 1 and delta = 0: never Ergodic.

    Each jump gamma(x) S(alpha(x)) is symmetric with a finite mean, as
    alpha(x) > 1, so the chain X_n is a martingale, and its increments
    are bounded in L1: E|X_{n+1} - X_n| <= C, the largest of gamma E|S|
    over the finitely many (alpha, gamma) pairs. Take a > 0, A = [-a, a],
    a start x0 with |x0| > a and tau the hitting time of A. If E tau were
    finite, Wald's bound E sum_{k < tau} |X_{k+1} - X_k| <= C E tau
    would dominate X_{n ^ tau}, and optional stopping would give
    E X_tau = x0, which |X_tau| <= a forbids. So E tau = infinity from
    every start outside A, for every a. An ergodic (positive Harris)
    chain reaches some bounded set of positive invariant mass in finite
    mean time from almost every start of its invariant law pi
    (Meyn & Tweedie, Markov Chains and Stochastic Stability, ch. 10-11;
    the Lamperti-type setting of Menshikov, Popov & Wade,
    Non-homogeneous Random Walks, 2016), and pi charges {|x| > a}, as
    every jump law has a positive density. With one regime this is
    the null recurrence of a mean-zero random walk (Chung-Fuchs).
    """
    assert classify(make_chain(alpha, gamma, _ZERO)).verdict != "Ergodic"


@settings(max_examples=100)
@given(alpha=_profiles(_levels(1.05, 1.95)), gamma=_GAMMAS)
def test_index_above_one_without_drift_is_never_transient(alpha, gamma):
    """inf alpha > 1 and delta = 0: never Transient.

    The chain is a martingale with increments bounded in L1 (see the test
    above). With one regime it is a mean-zero random walk, recurrent by
    Chung-Fuchs; with one index per half-line it is recurrent because the
    two indices sum to more than 2, the exact two-valued dichotomy that
    classify's last rung applies.
    """
    assert classify(make_chain(alpha, gamma, _ZERO)).verdict != "Transient"


@settings(max_examples=80)
@given(alpha=st.builds(ProfileFn.two_valued, _levels(0.3, 1.95), _levels(0.3, 1.95)),
       gamma=_GAMMAS)
def test_two_valued_index_sum_is_never_contradicted(alpha, gamma):
    """Two-valued alpha, delta = 0, index sum off [1.9, 2.1]: the sum's side decides.

    A symmetric chain whose index takes one value per half-line is
    recurrent iff the two indices sum to at least 2 (Sandric, J. Theor.
    Probab. 2014), the exact dichotomy of classify's last rung, which
    withholds it within 0.1 of the critical sum. So above 2 the verdict
    is never Transient, and below 2 never Recurrent, NullCandidate or
    Ergodic.
    """
    total = sum(alpha.values)
    assume(abs(total - 2.0) > 0.1)
    verdict = classify(make_chain(alpha, gamma, _ZERO)).verdict
    if total > 2.0:
        assert verdict != "Transient"
    else:
        assert verdict not in _RECURRENT


def _mirrored(p: ProfileFn) -> ProfileFn:
    """x -> p(-x), off the cell edges."""
    if p.kind == "two_valued":
        return ProfileFn.two_valued(*p.values[::-1])
    if p.kind == "periodic":
        return ProfileFn.periodic(p.period, p.values[::-1])
    if p.kind == "piecewise":
        return ProfileFn.piecewise([-b for b in p.breakpoints[::-1]], p.values[::-1])
    return p


def _map_values(p: ProfileFn, f) -> ProfileFn:
    return replace(p, values=tuple(f(v) for v in p.values))


@settings(max_examples=100)
@given(alpha=_profiles(_levels(0.3, 1.95), _OFF_GRID),
       gamma=_profiles(_levels(0.2, 3.0), _OFF_GRID),
       delta=st.one_of(st.just(_ZERO), _profiles(_levels(-3.0, 3.0), _OFF_GRID)))
def test_the_mirror_image_gets_the_same_verdict(alpha, gamma, delta):
    """-X_n is the chain with every profile reversed and delta negated.

    The mirror image is the same chain seen from the other side, and the
    default x grid is symmetric, so the verdict must not move. The
    periods put no cell edge on a grid |x|, and the breakpoints lie
    inside [-20, 20], far from the grid, where the mirror's half-open
    cells would close on the other side.
    """
    mirror = make_chain(_mirrored(alpha), _mirrored(gamma),
                        _map_values(_mirrored(delta), lambda v: -v))
    assert classify(make_chain(alpha, gamma, delta)).verdict == classify(mirror).verdict


def _opposite(v1, v2) -> bool:
    """Decisive verdicts that no chain can both deserve."""
    return {v1, v2} in ({"Transient", "Recurrent"}, {"Transient", "NullCandidate"},
                        {"Transient", "Ergodic"}, {"NullCandidate", "Ergodic"})


@settings(max_examples=80)
@given(alpha=_profiles(_levels(0.3, 1.95)), gamma=_GAMMAS,
       delta=st.one_of(st.just(_ZERO), _profiles(_levels(-3.0, 3.0))),
       scale=st.sampled_from((0.1, 0.37, 3.1, 10.0)))
def test_a_change_of_length_scale_never_flips_a_decisive_verdict(alpha, gamma, delta, scale):
    """lambda X_n is the chain with lengths, gamma and delta times lambda.

    A jump gamma S + delta from x becomes lambda gamma S + lambda delta
    from lambda x, and a profile read at x / lambda has its periods and
    breakpoints times lambda. Recurrence, transience and ergodicity do
    not depend on the unit of length. The scan sees the chain on other
    magnitudes, so a verdict may move to or from Inconclusive, but never
    to its opposite.
    """
    def scaled(p, values=lambda v: v):
        if p.kind == "periodic":
            p = replace(p, period=p.period * scale)
        elif p.kind == "piecewise":
            p = replace(p, breakpoints=tuple(b * scale for b in p.breakpoints))
        return _map_values(p, values)

    zoomed = make_chain(scaled(alpha), scaled(gamma, lambda v: v * scale),
                        scaled(delta, lambda v: v * scale))
    before = classify(make_chain(alpha, gamma, delta)).verdict
    assert not _opposite(before, classify(zoomed).verdict)
