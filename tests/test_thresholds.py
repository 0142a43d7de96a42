"""Critical constants r1, r2 and t: roots, limits, monotonicity, domains."""

import math

import numpy as np
import pytest

from stablike import DomainError, r1, r2, t, thresholds


def test_r1_frozen_values():
    # -pi * cot(pi a / 2) / a: simple angles give exact closed forms
    assert abs(r1(1.0)) <= 1e-12
    assert r1(0.5) == pytest.approx(-2.0 * math.pi, rel=1e-13)
    assert r1(1.5) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-13)
    assert r1(1.9) == pytest.approx(math.pi / math.tan(0.05 * math.pi) / 1.9, rel=1e-12)
    # sign pattern: negative below 1, positive above
    assert r1(0.7) < 0.0 < r1(1.3)


def test_r1_rejects_out_of_range():
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(DomainError):
            r1(bad)


def test_r2_frozen_closed_form():
    # alpha = 3/2, beta = 1 collapses to an elementary value
    v = r2(1.5, 1.0)
    assert v.value == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert v.est_abs_error < 1e-10


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_r2_root_on_critical_line(beta):
    v = r2(1.0 + beta, beta)
    assert abs(v.value) <= 1e-7
    assert abs(v.value) <= max(10.0 * v.est_abs_error, 1e-9)


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_t_root_on_critical_line(beta):
    v = t(1.0 - beta, beta)
    assert abs(v.value) <= 1e-7


def test_ratio_limits_toward_r1():
    # r2(a, b)/b and t(a, b)/b both approach r1(a) as b -> 0; see the
    # acceptance gate for the alpha = 0.5 deviation, which sits near
    # -1.86e-2 at b = 1e-3 and scales linearly in b
    for a in (1.0, 1.5):
        base = r1(a)
        assert r2(a, 1e-3).value / 1e-3 == pytest.approx(base, abs=1e-2)
        assert t(a, 1e-3).value / 1e-3 == pytest.approx(base, abs=1e-2)


def test_ratio_deviation_shrinks_linearly():
    # the deviation from r1 should drop by ~10x for each decade in beta
    a = 0.5
    dev = [abs(r2(a, b).value / b - r1(a)) for b in (1e-2, 1e-3, 1e-4)]
    assert dev[0] > dev[1] > dev[2]
    assert dev[1] / dev[0] == pytest.approx(0.1, rel=0.3)
    assert dev[2] / dev[1] == pytest.approx(0.1, rel=0.3)


def test_r2_over_beta_strictly_decreasing(rng):
    for a in (0.7, 1.2, 1.7):
        betas = np.sort(rng.uniform(0.02, min(1.0, a - 0.01), size=8))
        vals = [r2(a, b).value / b for b in betas]
        diffs = np.diff(vals)
        assert np.all(diffs < 0.0)


def test_r2_domain_requires_beta_below_alpha():
    with pytest.raises(DomainError):
        r2(0.5, 0.5)
    with pytest.raises(DomainError):
        r2(0.5, 0.9)
    with pytest.raises(DomainError):
        r2(1.5, 1.2)  # beta must be in (0, 1]
    # valid edge: beta just below alpha
    assert math.isfinite(r2(0.5, 0.49).value)


def test_t_domain_is_open_unit_interval():
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            t(1.5, bad)
    assert math.isfinite(t(1.5, 0.99).value)
    # t is defined for all alpha in (0, 2) including alpha <= beta
    assert math.isfinite(t(0.3, 0.9).value)


def test_t_frozen_root_value():
    v = t(0.5, 0.5)
    assert abs(v.value) <= 1e-12


def test_runtime_budget_thresholds():
    import time

    start = time.perf_counter()
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        r2(1.0 + beta, beta)
        t(1.0 - beta, beta)
    for a in (0.5, 1.0, 1.5):
        r2(a, 1e-3)
        t(a, 1e-3)
        r1(a)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def _series_reference(alpha, s):
    # sum_n binom(s,2n)*2/(2n-alpha) at 30 digits: the even series on
    # [0, 1/4] termwise, the (1-u)^s term on [1/4, 1] as an incomplete
    # beta integral, the rest of the bracket by quadrature
    import mpmath as mp

    with mp.workdps(30):
        a, s = mp.mpf(alpha), mp.mpf(s)
        g2, g4 = 2 * mp.binomial(s, 2), 2 * mp.binomial(s, 4)
        head = mp.nsum(lambda n: 2 * mp.binomial(s, 2 * n) * mp.mpf(0.25) ** (2 * n - a)
                       / (2 * n - a), [3, mp.inf])
        edge = mp.betainc(s + 1, -a, 0, 0.75)
        rest = mp.quad(lambda u: u ** (-a - 1) * ((1 + u) ** s - 2 - g2 * u ** 2 - g4 * u ** 4),
                       [0.25, 1])
        return float(head + edge + rest + g2 / (2 - a) + g4 / (4 - a))


@pytest.mark.parametrize("alpha", [0.8, 0.9, 1.0])
def test_series_integral_raises_no_quadpack_message(monkeypatch, alpha):
    # the (1-u)^s endpoint singularity at u = 1 must not trip any QUADPACK message
    quad = thresholds.integrate.quad

    def strict(*args, **kwargs):
        out = quad(*args, **kwargs)
        assert len(out) == 3, out[-1]
        return out

    monkeypatch.setattr(thresholds.integrate, "quad", strict)
    val, err = thresholds._even_series_integral(alpha, -0.5)
    diff = abs(val - _series_reference(alpha, -0.5))
    assert diff <= 1e-12
    assert diff <= err
