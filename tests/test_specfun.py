"""Gamma, digamma, real binomial and Gauss 2F1 building blocks."""

import math

import numpy as np
import pytest

from stablike import ConvergenceError, DomainError, digamma, gamma, hyp2f1, real_binom

EULER_GAMMA = 0.5772156649015328606


def test_gamma_frozen_values():
    assert gamma(7.5) == pytest.approx(1871.2543057977884, abs=1e-10)
    assert gamma(0.1) == pytest.approx(9.513507698668732, rel=1e-13)
    assert gamma(25.3) == pytest.approx(1.6227771176708797e24, rel=1e-12)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_integer_factorials():
    for n in range(1, 20):
        assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def test_gamma_recurrence_random_grid(rng):
    z = rng.uniform(0.05, 40.0, size=300)
    lhs = np.array([gamma(v + 1.0) for v in z])
    rhs = np.array([v * gamma(v) for v in z])
    assert np.all(np.abs(lhs / rhs - 1.0) < 1e-12)


def test_gamma_reflection_random_grid(rng):
    # Gamma(z) Gamma(1-z) = pi / sin(pi z) for non-integer z
    z = rng.uniform(0.05, 0.95, size=200)
    lhs = np.array([gamma(v) * gamma(1.0 - v) for v in z])
    rhs = math.pi / np.sin(math.pi * z)
    assert np.all(np.abs(lhs / rhs - 1.0) < 1e-12)


def test_gamma_large_argument_no_overflow():
    # representable up to ~171.6; intermediates must not blow up first
    assert gamma(170.5) == pytest.approx(5.5620924145599996e305, rel=1e-11)
    assert gamma(172.0) == math.inf


def test_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            gamma(bad)


def test_digamma_frozen_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma(0.1) == pytest.approx(-10.423754940411076, rel=1e-13)
    assert digamma(7.3) == pytest.approx(1.917820335637986, rel=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)


def _series_with_tail(z: float, n_terms: int = 2000) -> float:
    # partial sum of z / (n (n + z)) plus an asymptotic remainder;
    # the remainder equals psi(N+1+z) - psi(N+1) expanded at large N
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(z / (n * (n + z))))
    a, b = n_terms + 1.0 + z, n_terms + 1.0
    tail = (
        math.log(a / b)
        - 0.5 * (1.0 / a - 1.0 / b)
        - (1.0 / (12.0 * a * a) - 1.0 / (12.0 * b * b))
    )
    return partial + tail


def test_digamma_series_identity(rng):
    # psi(1 + z) = -euler_gamma + sum_n z/(n(n+z))
    z = rng.uniform(0.01, 8.0, size=200)
    res = [abs(digamma(1.0 + v) + EULER_GAMMA - _series_with_tail(v)) for v in z]
    assert max(res) < 1e-8


def test_digamma_recurrence_identity(rng):
    # psi(1 + z) = psi(z) + 1/z
    z = rng.uniform(0.01, 20.0, size=200)
    res = [abs(digamma(1.0 + v) - digamma(v) - 1.0 / v) for v in z]
    assert max(res) < 1e-8


def test_digamma_duplication_identity(rng):
    # psi(2z) = psi(z)/2 + psi(z + 1/2)/2 + log 2
    z = rng.uniform(0.01, 20.0, size=200)
    res = [
        abs(digamma(2.0 * v) - 0.5 * digamma(v) - 0.5 * digamma(v + 0.5) - math.log(2.0))
        for v in z
    ]
    assert max(res) < 1e-8


def test_digamma_reflection_identity(rng):
    # psi(1 - z) = psi(z) + pi * cot(pi z)
    z = rng.uniform(0.02, 0.98, size=200)
    res = [
        abs(digamma(1.0 - v) - digamma(v) - math.pi / math.tan(math.pi * v))
        for v in z
    ]
    assert max(res) < 1e-8


def test_real_binom_matches_integer_binomials():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert real_binom(float(n), k) == pytest.approx(math.comb(n, k), rel=1e-12)


def test_real_binom_fractional_values():
    # binom(1/2, 2) = -1/8, binom(1/2, 3) = 1/16
    assert real_binom(0.5, 2) == pytest.approx(-0.125, rel=1e-13)
    assert real_binom(0.5, 3) == pytest.approx(0.0625, rel=1e-13)
    assert real_binom(-0.3, 0) == pytest.approx(1.0, abs=0.0)
    # recurrence binom(s, k) = binom(s, k-1) * (s - k + 1) / k
    s = 0.7
    for k in range(1, 10):
        assert real_binom(s, k) == pytest.approx(
            real_binom(s, k - 1) * (s - k + 1.0) / k, rel=1e-12
        )


def test_hyp2f1_frozen_values():
    r = hyp2f1(0.3, 0.7, 1.1, -1.0)
    assert r.value == pytest.approx(0.8705819434255422, rel=1e-11)
    r = hyp2f1(-0.5, 1.3, 2.3, 0.8)
    assert r.value == pytest.approx(0.724639637254138, rel=1e-10)
    assert abs(r.value - 0.724639637254138) <= max(5.0 * r.est_abs_error, 5e-13)


def test_hyp2f1_at_unit_argument_gauss_sum():
    # 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
    r = hyp2f1(0.2, 0.9, 1.9, 1.0)
    assert r.value == pytest.approx(1.232300933987495, rel=1e-11)
    r = hyp2f1(-0.5, 1.0, 2.5, 1.0)
    assert r.value == pytest.approx(0.75, rel=1e-12)


# large values near z = 1 from the corner grid a in {-3, -1, 0.5, 1.5, 3}, b and
# c - b in {0.05, 0.5, 1.5, 3}, z in {0.9, 0.999, 0.9999, 0.999999}: each
# estimate is under 1e-13 of its value, far above 1e-9 in absolute terms
@pytest.mark.parametrize("a, b, c, z", [
    (3.0, 0.5, 1.0, 0.999),  # 1.19e7, estimate 4.2e-8
    (1.5, 0.05, 0.1, 0.999999),  # 2.4e8
    (3.0, 0.05, 1.55, 0.999999),  # 2.0e7, estimate 2.0e-14 of it
    (3.0, 1.5, 2.0, 0.9999),  # 7.5e9
    (3.0, 3.0, 3.05, 0.999999),  # 5.0e17, estimate 1.9e3
])
def test_hyp2f1_accepts_large_values_by_their_relative_error(a, b, c, z):
    import mpmath as mp

    r = hyp2f1(a, b, c, z)
    with mp.workdps(40):
        want = float(mp.hyp2f1(a, b, c, z))
    assert abs(r.value - want) <= r.est_abs_error <= 1e-9 * abs(r.value)
    assert r.est_abs_error > 1e-9


@pytest.mark.parametrize("z", [0.9999, 0.999999])
@pytest.mark.parametrize("b", [0.05, 3.0])
def test_euler_integral_splits_at_the_unit_argument_scale(b, z):
    # (1 - tz)^(-3) turns on the scale (1 - z)/z in 1 - t, where the nodes
    # at the t = 1 end once missed mass and the levels did not converge;
    # the split there must answer within its own estimate of 40-digit mpmath
    import mpmath as mp

    r = hyp2f1(3.0, b, b + 3.0, z)
    with mp.workdps(40):
        want = float(mp.hyp2f1(3.0, b, b + 3.0, z))
    assert abs(r.value - want) <= r.est_abs_error, (r, want)


@pytest.mark.parametrize("a, b, c, z", [
    (0.7, 3.2, 2.5, 0.8), (1.5, -0.3, 2.0, 0.9), (0.4, 2.5, 1.2, 0.95)])
def test_hyp2f1_swaps_a_and_b_into_the_euler_integral(monkeypatch, a, b, c, z):
    # c > b > 0 fails and c > a > 0 holds: 2F1 is symmetric in a and b, so
    # the Euler integral runs with a in b's place, and answers within its
    # own estimate of 40-digit mpmath
    import mpmath as mp

    from stablike import specfun

    calls, euler = [], specfun._euler_integral
    monkeypatch.setattr(specfun, "_euler_integral",
                        lambda *args: calls.append(args) or euler(*args))
    r = hyp2f1(a, b, c, z)
    assert calls == [(b, a, c, z)]
    with mp.workdps(40):
        want = float(mp.hyp2f1(a, b, c, z))
    assert abs(r.value - want) <= r.est_abs_error, (r, want)


def test_hyp2f1_large_error_estimate_still_raises():
    # the series at z = 1/2 cancels terms up to ~1e11 down to 0.527: its
    # estimate 3.4e-4 is honest (the true error is 2.9e-6) and far above
    # 1e-9 of the value, so the value is refused
    with pytest.raises(ConvergenceError, match="above tolerance") as info:
        hyp2f1(-20.5, 30.0, 1.5, 0.5)
    assert info.value.partial == pytest.approx(0.52710857, rel=1e-4)
    assert info.value.est_abs_error > 1e-5


def test_hyp2f1_rejects_z_above_half_without_euler_route():
    # neither c > b > 0 nor c > a > 0: no integral route, no series fallback
    with pytest.raises(DomainError, match="c > b > 0 or c > a > 0"):
        hyp2f1(1.5, 1.6, 1.2, 0.8)


def test_hyp2f1_trivial_cases(rng):
    for z in rng.uniform(-1.0, 0.9, size=20):
        assert hyp2f1(0.0, 0.7, 1.3, z).value == pytest.approx(1.0, abs=1e-14)
        # polynomial case a = -1: 1 - (b/c) z
        assert hyp2f1(-1.0, 0.7, 1.3, z).value == pytest.approx(
            1.0 - 0.7 / 1.3 * z, rel=1e-12
        )


def test_hyp2f1_error_estimates_honest(rng):
    # the two routes' estimates together must bound the gap between them
    from stablike.specfun import _euler_integral, _series

    for _ in range(100):
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(0.1, 1.4)
        c = b + rng.uniform(0.2, 1.5)
        z = rng.uniform(0.4, 0.6)
        s = _series(a, b, c, z)
        e = _euler_integral(a, b, c, z)
        gap = abs(s.value - e.value)
        assert gap <= s.est_abs_error + e.est_abs_error
        assert gap < 2e-9


def test_hyp2f1_pfaff_consistency(rng):
    # (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) equals 2F1(a,b;c;z) for z < 0
    for _ in range(50):
        a = rng.uniform(-0.9, 0.9)
        b = rng.uniform(0.1, 1.4)
        c = b + rng.uniform(0.2, 1.5)
        z = rng.uniform(-1.0, -0.1)
        direct = hyp2f1(a, b, c, z).value
        w = z / (z - 1.0)
        mapped = (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, w).value
        assert direct == pytest.approx(mapped, rel=5e-11, abs=5e-13)


def test_euler_integral_matches_mpmath():
    # the tanh-sinh route against 40-digit 2F1 over z in (1/2, 1) with b and
    # c - b down to 0.05, where the endpoint powers t^(b-1), (1-t)^(c-b-1)
    # are sharpest; every estimate must cover the oracle's distance
    import mpmath as mp

    from stablike.specfun import _euler_integral

    rng = np.random.default_rng(22)
    with mp.workdps(40):
        for _ in range(200):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.05, 3.0)
            c = b + rng.uniform(0.05, 3.0)
            z = rng.uniform(0.5, 0.9999)
            got = _euler_integral(a, b, c, z)
            assert type(got.value) is float and type(got.est_abs_error) is float
            diff = abs(got.value - float(mp.hyp2f1(a, b, c, z)))
            assert diff <= got.est_abs_error, (a, b, c, z)
            assert diff <= 4e-15 * abs(got.value), (a, b, c, z)


def test_euler_integral_unconverged_levels_raise(monkeypatch):
    # a level budget too small to converge must raise, never return the
    # partial sum as a value
    from stablike import QuadratureError, specfun

    monkeypatch.setattr(specfun, "_EULER_LEVELS", 1)
    with pytest.raises(QuadratureError, match="no convergence") as info:
        specfun._euler_integral(-0.5, 1.3, 2.3, 0.8)
    assert info.value.partial == pytest.approx(0.7246396372541376, rel=1e-2)
    assert info.value.est_abs_error > 0.0
    with pytest.raises(QuadratureError):
        hyp2f1(-0.5, 1.3, 2.3, 0.8)


@pytest.mark.parametrize("a, b, c, z, message", [
    # terminating series whose terms cancel by far more than 1e9 of the sum
    (-25.0, 20.0, 0.5, 1.0, "above tolerance"),  # mpmath: 5.2e-6
    (-30.0, 25.0, 1.2, 0.9, "above tolerance"),  # -6.5e-5
    (-60.0, 50.0, 0.7, 1.0, "above tolerance"),  # 4.9e-13
    # Gauss sums: Gamma(171.5) Gamma(6) overflows (2.2e-7); Gamma(200) does (1.00126)
    (-160.5, 5.0, 11.0, 1.0, "above tolerance"),
    (0.5, 0.5, 200.0, 1.0, "value nan is not finite"),
])
def test_hyp2f1_refuses_values_past_their_estimate(a, b, c, z, message):
    with pytest.raises(ConvergenceError, match=message):
        hyp2f1(a, b, c, z)


def test_hyp2f1_terminating_cases_answer_within_their_estimates():
    # a or b a nonpositive integer takes the series for every z in [-1, 1]: each
    # call either raises or returns a value within tolerance and within its own
    # estimate of 60-digit mpmath; cancellation makes about a fifth of them raise
    import mpmath as mp

    from stablike.specfun import _HYP_TOL

    rng = np.random.default_rng(25)
    answered = 0
    with mp.workdps(60):
        for _ in range(600):
            n, other = -float(rng.integers(1, 60)), rng.uniform(-40.0, 40.0)
            a, b = (n, other) if rng.random() < 0.5 else (other, n)
            c, z = rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0)
            try:
                r = hyp2f1(a, b, c, z)
            except ConvergenceError:
                continue
            answered += 1
            assert r.est_abs_error <= _HYP_TOL * max(1.0, abs(r.value)), (a, b, c, z)
            want = float(mp.hyp2f1(a, b, c, z))
            assert abs(r.value - want) <= r.est_abs_error, (a, b, c, z, r, want)
    assert answered >= 400
