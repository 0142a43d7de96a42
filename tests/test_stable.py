"""Symmetric stable density, tail law, tables and the CMS sampler."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from stablike import (
    DomainError, QuadratureError, StableParams, drift, sas_density, stable, tail_constant,
)
from stablike.errors import TableOverflowError
from stablike.stable import (
    DensityTable, _head_coefficients, _std_density, _tail_coefficients, sas_sample_n,
)


def cauchy_pdf(y, gamma=1.0, delta=0.0):
    return gamma / (math.pi * (gamma * gamma + (y - delta) ** 2))


def test_cauchy_closed_form_agreement(rng):
    params = StableParams(1.0, 1.0, 0.0)
    ys = rng.uniform(-50.0, 50.0, size=200)
    for y in ys:
        assert abs(sas_density(params, float(y)) - cauchy_pdf(y)) <= 1e-10
    scaled = StableParams(1.0, 2.5, -3.0)
    for y in ys:
        assert abs(sas_density(scaled, float(y)) - cauchy_pdf(y, 2.5, -3.0)) <= 1e-10


def test_gaussian_closed_form_agreement(rng):
    # alpha = 2 is N(delta, 2 gamma^2)
    params = StableParams(2.0, 1.3, 0.7)
    ys = rng.uniform(-8.0, 8.0, size=100)
    sd = 1.3 * math.sqrt(2.0)
    for y in ys:
        want = math.exp(-((y - 0.7) / sd) ** 2 / 2.0) / (sd * math.sqrt(2.0 * math.pi))
        assert sas_density(params, float(y)) == pytest.approx(want, rel=1e-12)


def test_density_peak_frozen_value():
    # f(0) = Gamma(1 + 1/alpha) / pi for the standard symmetric law
    assert _std_density(0.7, 0.0)[0] == pytest.approx(0.4029241361418613, rel=1e-11)
    assert _std_density(0.3, 0.0)[0] == pytest.approx(
        math.gamma(1.0 + 1.0 / 0.3) / math.pi, rel=1e-9
    )


@pytest.mark.parametrize("alpha", [0.12, 0.15, 0.3, 0.5, 0.9, 0.999, 1.001, 1.4, 1.5, 1.9, 1.99])
def test_density_normalizes(alpha):
    # the table's rule over [0, Z] plus the tail series integrated from Z
    # termwise, int_Z^inf c_k z^(-k alpha - 1) dz = c_k Z^(-k alpha)/(k alpha)
    edges, _, weights, _, _ = DensityTable(alpha).rule(1e3)
    coefs = _tail_coefficients(alpha)[0][::-1]
    top = edges[-1]
    rest = math.fsum(c * top ** (-k * alpha) / (k * alpha) for k, c in enumerate(coefs, 1))
    assert abs(math.fsum(weights.ravel()) + rest - 0.5) <= 1e-13


def test_density_symmetric_by_construction(rng):
    zs = rng.uniform(0.0, 80.0, size=60)
    assert np.array_equal(_std_density(1.2, zs)[0], _std_density(1.2, -zs)[0])


def test_density_positive_and_decreasing_from_peak():
    vals = _std_density(0.8, np.linspace(0.0, 20.0, 400))[0]
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 1e-12)


@pytest.mark.parametrize("alpha", [0.006, 0.0059, 0.005])
def test_table_overflow_is_a_domain_error(alpha):
    # f(0) = Gamma(1 + 1/alpha)/pi overflows a double below alpha ~ 0.00586;
    # above that, up to alpha ~ 0.11, the engine does not converge at the
    # rule's nodes under z = 1e-10; both are cached as failures
    if alpha < 0.00586:
        with pytest.raises(TableOverflowError, match=f"overflows at alpha={alpha}: f"):
            DensityTable(alpha)
    else:
        with pytest.raises(QuadratureError, match=f"density quadrature failed at alpha={alpha}"):
            DensityTable(alpha)
    tab = DensityTable.for_alpha(0.12)
    assert all(np.isfinite(a).all() for a in tab.rule(1e3)) and math.isfinite(tab.table_error)


def test_tail_constant_frozen_values():
    # c_alpha = gamma(alpha) sin(pi alpha / 2) Gamma(alpha) / pi scalings
    assert tail_constant(StableParams(0.5, 1.0, 0.0)) == pytest.approx(
        0.19947114020071632, rel=1e-12
    )
    assert tail_constant(StableParams(1.5, 1.0, 0.0)) == pytest.approx(
        0.2992067103010748, rel=1e-12
    )


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0), (1.0, 2.0), (1.5, 2.0)])
def test_tail_constant_matches_the_density_tail(alpha, gamma):
    # f(y) |y|^(a+1) / c = 1 + c2 (|y|/gamma)^(-a) + O(|y|^(-2a)); at a = 1
    # the second term vanishes and the third is -(gamma/y)^2
    params = StableParams(alpha, gamma, 0.0)
    c2 = -math.gamma(2.0 * alpha + 1.0) * math.sin(math.pi * alpha) / (
        2.0 * math.gamma(alpha + 1.0) * math.sin(math.pi * alpha / 2.0)
    )
    for y in (1e3, -1e4):
        ratio = sas_density(params, y) * abs(y) ** (alpha + 1.0) / tail_constant(params)
        assert ratio - 1.0 - c2 * (abs(y) / gamma) ** -alpha == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("alpha", [0.9, 1.4])
def test_tail_law_ratio_inside_tolerance(alpha):
    params = StableParams(alpha, 1.0, 0.0)
    c = tail_constant(params)
    y = 100.0
    ratio = sas_density(params, y) * y ** (alpha + 1.0) / c
    assert abs(ratio - 1.0) <= 0.05


def test_tail_law_slow_approach_at_small_alpha():
    # at alpha = 0.5 the second-order tail term still contributes ~8% at
    # |y| = 100; the ratio must approach 1 from below as y grows
    params = StableParams(0.5, 1.0, 0.0)
    c = tail_constant(params)
    ratios = [
        sas_density(params, y) * y ** 1.5 / c for y in (1e2, 1e4, 1e6)
    ]
    devs = [abs(r - 1.0) for r in ratios]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-3


def test_series_quadrature_handoff_is_smooth():
    # the density switches from quadrature to the tail series at |z| = 30;
    # a sine factor near zero once truncated the series after 3 terms and
    # produced a 1e-6 step here
    for alpha in (0.5, 0.9, 1.6):
        lo, hi = _std_density(alpha, np.array([29.9995, 30.0005]))[0]
        assert abs(lo / hi - 1.0) < 1e-4


@pytest.mark.parametrize("alpha", [0.12, 0.3, 0.5, 0.9, 0.99, 0.999999, 1.000001, 1.5, 1.9])
def test_head_series_quadrature_handoff_is_smooth(alpha):
    # the density switches from the Taylor series at 0 to the integral (or,
    # next to alpha = 1, to the expansion about the Cauchy law) at z_1: the
    # two doubles either side of it agree within their error estimates
    reach = _head_coefficients(alpha)[1]
    (lo, hi), (e_lo, e_hi) = _std_density(alpha, np.array([np.nextafter(reach, 0.0), reach]))
    assert abs(lo - hi) <= e_lo + e_hi
    assert abs(lo / hi - 1.0) < 1e-12


def test_density_array_input_matches_scalar(rng):
    # bit for bit: no value may depend on the batch it was computed in
    for alpha in (0.5, 1.3, 1.9):
        params = StableParams(alpha, 2.0, 0.5)
        ys = rng.uniform(-70.0, 70.0, size=40)
        arr = sas_density(params, ys)
        assert arr.shape == ys.shape
        for y, v in zip(ys, arr):
            assert v == sas_density(params, float(y))
        assert np.isnan(sas_density(params, np.array([np.nan, 0.5]))[0])
        assert np.isnan(_std_density(alpha, np.nan)).all()


@pytest.mark.parametrize("alpha", [0.45, 1.3])
def test_table_knots_do_not_depend_on_the_block(monkeypatch, alpha):
    # the default blocks hold dozens of z per temporary; a block of one row
    # must give the same rule and cut cells bit for bit
    cuts = np.array([0.3, 7.0, 29.0, 45.0, 7.0])
    whole = DensityTable(alpha)
    rule, cut = whole.rule(100.0), whole.cut(cuts)
    monkeypatch.setattr(stable, "_BLOCK", 1)
    one = DensityTable(alpha)
    assert all(np.array_equal(a, b) for a, b in zip(rule, one.rule(100.0)))
    assert all(np.array_equal(a, b) for a, b in zip(cut, one.cut(cuts)))
    assert whole.table_error == one.table_error


def test_cut_memo_rows_match_a_fresh_table():
    # bounds met in earlier calls come back from the memo rows bit for bit,
    # in the order asked, beside bounds the same call adds
    table = DensityTable(1.3)
    table.rule(100.0)
    table.cut(np.array([7.0, 0.3]))
    later = np.array([45.0, 7.0, 29.0, 0.3, 45.0])
    fresh = DensityTable(1.3)
    fresh.rule(100.0)
    assert all(np.array_equal(a, b) for a, b in zip(table.cut(later), fresh.cut(later)))
    assert len(table._cut_row) == 4


# the rule of a fresh table, edges and every (cells, 15) array, pinned: a
# change to the density engine must leave it bit for bit as it is. Last
# re-captured when the Taylor series at 0 took over z < z_1 from the
# integral: the weights moved by at most 1.4e-13 relative (alpha = 0.99),
# and the error bounds fell
@pytest.mark.parametrize("alpha, digest", [
    (0.5, "e7e32ce89de0fd987a2b81bb39f166762311155ede263723116a0a29d7caa119"),
    (0.9, "4dfa14a12fd7c1c6262b1404aa3ba002fa0e6c7444153223ef8b1cba26c6942b"),
    (1.5, "340826f77ec84c7da824c641adee8093c7bb5853e61192d8b1f171dd2757abef"),
], ids=["0.5", "0.9", "1.5"])
def test_table_rule_is_pinned(alpha, digest):
    rule = DensityTable(alpha).rule(100.0)
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in rule)
    assert hashlib.sha256(data).hexdigest() == digest


def test_params_validation():
    with pytest.raises(DomainError):
        StableParams(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        StableParams(2.1, 1.0, 0.0)
    with pytest.raises(DomainError):
        StableParams(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        StableParams(1.0, -2.0, 0.0)


def test_sampler_replay_deterministic():
    params = StableParams(1.5, 1.0, 0.0)
    a = sas_sample_n(params, np.random.default_rng(42), 1000)
    b = sas_sample_n(params, np.random.default_rng(42), 1000)
    assert np.array_equal(a, b)


def test_sampler_ks_against_cauchy():
    params = StableParams(1.0, 1.0, 0.0)
    xs = sas_sample_n(params, np.random.default_rng(7), 100_000)
    p = stats.kstest(xs, stats.cauchy.cdf).pvalue
    assert p > 0.01


def test_sampler_ks_against_gaussian():
    params = StableParams(2.0, 1.0, 0.0)
    xs = sas_sample_n(params, np.random.default_rng(7), 100_000)
    p = stats.kstest(xs, lambda v: stats.norm.cdf(v, scale=math.sqrt(2.0))).pvalue
    assert p > 0.01


def test_sampler_tail_exponent():
    # P(|X| > 2T) / P(|X| > T) -> 2^(-alpha) in the tail
    params = StableParams(0.7, 1.0, 0.0)
    xs = np.abs(sas_sample_n(params, np.random.default_rng(12), 400_000))
    t_ref = np.quantile(xs, 0.99)
    hi = np.mean(xs > 2.0 * t_ref)
    lo = np.mean(xs > t_ref)
    assert hi / lo == pytest.approx(2.0 ** -0.7, rel=0.1)


def _cms_expression(alpha, u, e):
    """The Chambers-Mallows-Stuck map as one expression, operand for operand."""
    alpha, u, e = (np.asarray(v, dtype=float) for v in (alpha, u, e))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (np.sin(alpha * u) * np.cos(u) ** (-1.0 / alpha)
                * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))


def test_cms_transform_is_its_expression_bit_for_bit():
    # float, array and column alphas (alpha = 1 takes numpy's scalar x ** -1 path
    # as a float and a column), the nan and inf draws of alpha = 0.002 included
    rng = np.random.default_rng(11)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 4096)
    e = rng.standard_exponential(4096)
    alphas = [1.0, 0.5, 1.5, 0.002, np.where(u < 0, 1.0, 1.8),
              np.array([[1.0], [0.3], [1.9], [0.002]])]
    for alpha in alphas:
        got, want = stable.cms_transform(alpha, u, e), _cms_expression(alpha, u, e)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(stable.cms_transform(0.002, u, e)).any()
    scalar = stable.cms_transform(1.5, 0.3, 1.2)
    assert isinstance(scalar, np.float64) and scalar == _cms_expression(1.5, 0.3, 1.2)
    assert stable.cms_transform(np.full(3, 1.5), 0.3, e[:6].reshape(2, 3)).shape == (2, 3)


def test_sampler_location_scale_transport():
    base = sas_sample_n(StableParams(1.4, 1.0, 0.0), np.random.default_rng(3), 2000)
    moved = sas_sample_n(StableParams(1.4, 2.0, 5.0), np.random.default_rng(3), 2000)
    assert np.allclose(moved, 5.0 + 2.0 * base, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.999, 1.5])
def test_unconverged_knot_raises(monkeypatch, alpha):
    # a value whose last two tanh-sinh levels still differ by more than the
    # tolerance at the level cap must raise, never be kept or dropped; the
    # probe z = 5 lies above every head reach z_1 (all under 2)
    monkeypatch.setattr(stable, "_TS_LEVELS", 1)
    with pytest.raises(QuadratureError, match="no convergence") as info:
        DensityTable(alpha)
    assert info.value.partial is not None and info.value.est_abs_error > 0.0
    with pytest.raises(QuadratureError, match="no convergence"):
        sas_density(StableParams(alpha), np.array([0.0, 5.0, 40.0]))


def _fourier_density(alpha, z):
    # (1/pi) int_0^T exp(-t^alpha) cos(t z) dt at 25 digits, split at every
    # period of the cosine; exp(-80) bounds the dropped tail past T
    import mpmath as mp

    with mp.workdps(25):
        a, top = mp.mpf(alpha), mp.mpf(80) ** (1 / mp.mpf(alpha))
        period = 2 * mp.pi / z
        cuts = [mp.mpf(0)] + [k * period for k in range(1, int(top / period) + 1)] + [top]
        return float(mp.quad(lambda t: mp.exp(-t ** a) * mp.cos(t * z), cuts) / mp.pi)


def _contour_density(alpha, z):
    # alpha < 1: the contour t -> i r turns the Fourier integral into
    # (1/pi) int_0^inf exp(-r^a cos(pi a/2) - r z) sin(r^a sin(pi a/2)) dr,
    # which does not oscillate for small alpha; 25 digits, split at decades
    import mpmath as mp

    with mp.workdps(25):
        a = mp.mpf(alpha)
        c, s = mp.cos(mp.pi * a / 2), mp.sin(mp.pi * a / 2)
        cuts = [mp.mpf(0)] + [mp.mpf(10) ** k for k in range(-6, 40)] + [mp.inf]
        return float(mp.quad(lambda r: mp.exp(-r ** a * c - r * z) * mp.sin(r ** a * s), cuts)
                     / mp.pi)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.001, 1.5, 1.99])
def test_density_matches_mpmath_oracle(alpha):
    # the engine's error estimate is checked, not only reported: the Fourier
    # top 80^(1/alpha) is out of reach below alpha ~ 0.9, the contour there
    oracle = _contour_density if alpha < 0.9 else _fourier_density
    for z in (0.005, 0.5, 5.0, 29.5):
        val, err = _std_density(alpha, z)
        diff = abs(val - oracle(alpha, z))
        assert diff <= err
        assert diff <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.99, 1.5, 1.9])
def test_head_series_matches_mpmath_oracle(alpha):
    # inside the Taylor series' reach z_1 and either side of its end
    oracle = _contour_density if alpha < 0.9 else _fourier_density
    reach = _head_coefficients(alpha)[1]
    for z in (0.3 * reach, 0.99 * reach, 1.01 * reach):
        val, err = _std_density(alpha, z)
        diff = abs(val - oracle(alpha, z))
        assert diff <= err
        assert diff <= 1e-13


def test_table_sends_no_head_node_to_the_integral(monkeypatch):
    # a deterministic cost guard: the nodes below z_1 are the integral's
    # costliest, and a table build must pass it only the body nodes from
    # z_1 up to the tail series' cut at z = 30
    seen, zolotarev = [], stable._zolotarev

    def counting(alpha, z):
        seen.append(z.copy())
        return zolotarev(alpha, z)

    monkeypatch.setattr(stable, "_zolotarev", counting)
    reach = _head_coefficients(0.9)[1]
    nodes = DensityTable(0.9).rule(30.0)[1]
    zs = np.concatenate(seen)
    assert zs.min() >= reach and zs.max() <= 30.0
    assert zs.size == np.count_nonzero((nodes >= reach) & (nodes <= 30.0))


@pytest.mark.parametrize("alpha", [1.0 - 1e-9, 1.0 - 9e-6, 1.0 + 9e-6, 1.0 + 2e-5])
def test_density_next_to_one_matches_fourier_oracle(alpha):
    # within 1e-5 of alpha = 1 the expansion about the Cauchy law serves,
    # where alpha/(alpha-1) would amplify the rounding of log g past 1e-10;
    # 1 + 2e-5 is the engine just outside that band
    for z in (0.005, 0.5, 5.0):
        val, err = _std_density(alpha, z)
        diff = abs(val - _fourier_density(alpha, z))
        assert diff <= err <= 1e-10


def _fourier_mass(alpha, z):
    # int_0^z f = (1/pi) int_0^T exp(-t^alpha) sin(t z)/t dt, as _fourier_density
    import mpmath as mp

    with mp.workdps(25):
        a, top = mp.mpf(alpha), mp.mpf(80) ** (1 / mp.mpf(alpha))
        period = 2 * mp.pi / z
        cuts = [mp.mpf(0)] + [k * period for k in range(1, int(top / period) + 1)] + [top]
        return float(mp.quad(lambda t: mp.exp(-t ** a) * mp.sin(t * z) / t, cuts) / mp.pi)


@pytest.mark.parametrize("alpha", [0.99, 0.999])
def test_table_just_below_one_matches_fourier_oracle(alpha):
    # the peak of g e^(-g) narrows to a width of about |alpha - 1| here; the
    # table's rule, whole cells and a cut cell, against the oracle's mass
    tab = DensityTable(alpha)
    zs = np.array([[0.005, 0.5, 5.0]])
    val, err = drift._cumulative(tab, np.ones_like, zs)
    for z, v, e in zip(zs[0], val[0], err[0]):
        diff = abs(v - _fourier_mass(alpha, z))
        assert diff <= 1e-10
        assert diff <= e
