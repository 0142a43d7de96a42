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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablike import ProfileFn, classify, make_chain


def _levels(lo, hi):
    """Values k / 1000 in [lo, hi]: coarse enough to stay off knife edges."""
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda k: k / 1000)


def _profiles(values):
    """An enumerable profile, of any of the four kinds, whose values values draws."""
    def piecewise(vals):
        cuts = st.lists(st.integers(-20, 20), min_size=len(vals) - 1,
                        max_size=len(vals) - 1, unique=True)
        return cuts.map(lambda b: ProfileFn.piecewise(sorted(map(float, b)), vals))

    return st.one_of(
        values.map(ProfileFn.constant),
        st.builds(ProfileFn.two_valued, values, values),
        st.builds(ProfileFn.periodic, _levels(0.5, 4.0),
                  st.lists(values, min_size=1, max_size=3)),
        st.lists(values, min_size=2, max_size=4).flatmap(piecewise),
    )


_GAMMAS = _profiles(_levels(0.2, 3.0))
_ZERO = ProfileFn.constant(0.0)


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
