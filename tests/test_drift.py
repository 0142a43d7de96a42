"""Truncated drift integrals, normalization and tail scans."""

import bisect
import math

import numpy as np
import pytest
from scipy import integrate

from stablike import (
    DomainError,
    DriftKernel,
    ProfileFn,
    make_chain,
    normalized_lhs,
    r1,
    tail_scan,
    truncated_integral,
)
from stablike import drift
from stablike.drift import (
    CONDITIONS, DEFAULT_DELTA_GRID, default_x_grid, kernel_parts,
    truncated_integral_with_error,
)
from stablike.specfun import real_binom
from stablike.stable import (
    DensityTable, StableParams, _tail_coefficients, sas_density, sas_sample_n,
    tail_constant,
)


def test_symmetric_first_moment_is_exactly_zero(sas15):
    pt = normalized_lhs(sas15, 250.0, 0.5, 0.0, "mom_rec")
    assert pt.raw_integral == 0.0
    assert pt.quadrature_error == 0.0


def test_kernel_parts_reassemble(rng):
    # E(t) + s O(t) must reproduce the raw kernel on both sides
    x = 10.0
    for kernel in (
        DriftKernel.log_shift(),
        DriftKernel.power_beta(0.7),
        DriftKernel.bounded_beta(0.4),
    ):
        eo = kernel_parts(kernel, x)
        den = x if kernel.kind == "power_beta" else 1.0 + x
        for y in rng.uniform(0.0, 0.9 * den, size=30):
            t = y / den
            if kernel.kind == "log_shift":
                raw_p, raw_m = math.log1p(t), math.log1p(-t)
            elif kernel.kind == "power_beta":
                raw_p = (1.0 + t) ** 0.7 - 1.0
                raw_m = (1.0 - t) ** 0.7 - 1.0
            else:
                raw_p = 1.0 - (1.0 + t) ** -0.4
                raw_m = 1.0 - (1.0 - t) ** -0.4
            e, o = eo(float(y))
            assert e + o == pytest.approx(raw_p, rel=1e-11, abs=1e-14)
            assert e - o == pytest.approx(raw_m, rel=1e-11, abs=1e-14)


def test_truncated_integral_against_monte_carlo():
    # one heavy spot check; the acceptance gate covers 12 combinations
    spec = make_chain(1.5, delta=0.3)
    x, delta = 40.0, 0.5
    quad_val = truncated_integral(spec, x, delta, DriftKernel.log_shift())
    params = StableParams(1.5, 1.0, 0.3)
    ys = sas_sample_n(params, np.random.default_rng(77), 2_000_000)
    mask = np.abs(ys) <= delta * abs(x)
    kern = np.zeros_like(ys)
    kern[mask] = np.log1p(ys[mask] / (1.0 + abs(x)))
    est = float(np.mean(kern))
    se = float(np.std(kern, ddof=1) / math.sqrt(len(ys)))
    assert abs(quad_val - est) <= 4.0 * se


def test_truncated_integral_validation(sas15):
    with pytest.raises(DomainError):
        truncated_integral(sas15, 0.0, 0.5, DriftKernel.log_shift())
    with pytest.raises(DomainError):
        truncated_integral(sas15, 10.0, 1.5, DriftKernel.log_shift())


def test_normalized_lhs_validation(sas15):
    with pytest.raises(DomainError):
        normalized_lhs(sas15, 10.0, 0.5, 0.0, "no_such_condition")
    with pytest.raises(DomainError):
        normalized_lhs(sas15, 10.0, 0.5, 0.0, "pow_rec")  # beta required


def test_normalized_lhs_mirror_symmetry(sas15):
    # symmetric family: the normalized value must match at +x and -x
    a = normalized_lhs(sas15, 300.0, 0.5, 0.0, "log_rec")
    b = normalized_lhs(sas15, -300.0, 0.5, 0.0, "log_rec")
    assert a.normalized_lhs == pytest.approx(b.normalized_lhs, rel=1e-12)


def test_normalized_log_lhs_frozen_regression(sas15):
    # stationary large-|x| limit of the log display for alpha = 1.5
    pt = normalized_lhs(sas15, 1e5, 0.5, 0.0, "log_rec")
    assert pt.normalized_lhs == pytest.approx(-1.4533, abs=2e-3)


def test_ergodic_d_term_scales():
    spec = make_chain(1.5)
    base = normalized_lhs(spec, 100.0, 0.5, 0.0, "log_erg").normalized_lhs
    bumped = normalized_lhs(spec, 100.0, 0.5, 0.01, "log_erg").normalized_lhs
    a, c = 1.5, 0.2992067103010748
    assert bumped - base == pytest.approx(0.01 * 100.0 ** a / c, rel=1e-9)


def test_tail_scan_log_recurrence_fires(sas15):
    rep = tail_scan(sas15, condition_id="log_rec")
    assert rep.threshold == pytest.approx(r1(1.5), rel=1e-12)
    assert rep.trend_flag == "ok"
    assert rep.margin == pytest.approx(2.5411, abs=5e-3)
    assert rep.margin > 2.0 * rep.scan_error
    # sup over the grid sits below the threshold with room to spare
    assert rep.tail_sup_estimate < rep.threshold


def test_tail_scan_moment_recurrence_exact(sas15):
    rep = tail_scan(sas15, condition_id="mom_rec")
    assert rep.tail_sup_estimate == 0.0
    assert rep.scan_error == 0.0
    assert rep.margin == pytest.approx(r1(1.5), rel=1e-12)


def test_tail_scan_flags_divergent_d_term():
    # with beta = 1 the compensator grows like |x|^(alpha-1) and the
    # display can never certify; the scan must refuse to extrapolate
    rep = tail_scan(make_chain(1.2), condition_id="mom_erg_b", beta=1.0)
    assert rep.trend_flag == "diverging"
    assert rep.margin == -math.inf


def test_tail_scan_extrapolates_settling_trend():
    # shifted small-alpha walk: the transience display decays to zero
    # geometrically in |x|, so the scan certifies via extrapolation
    rep = tail_scan(make_chain(0.5, delta=0.5), condition_id="mom_trans")
    assert rep.trend_flag in ("ok", "extrapolated")
    assert rep.margin > 2.0 * rep.scan_error
    assert rep.margin == pytest.approx(abs(r1(0.5)), rel=0.01)


def test_tail_scan_grid_controls(sas15):
    xs = tuple(-(10.0 ** k) for k in (2.0, 3.5, 5.0)) + tuple(
        10.0 ** k for k in (2.0, 3.5, 5.0)
    )
    rep = tail_scan(sas15, x_grid=xs, delta_grid=(0.5, 0.25), d_grid=None,
                    condition_id="log_rec")
    seen_x = {p.x for p in rep.points}
    assert seen_x == set(xs)
    seen_delta = {p.delta for p in rep.points}
    assert seen_delta == {0.5, 0.25}


def test_tail_scan_needs_beta():
    with pytest.raises(DomainError):
        tail_scan(make_chain(1.5), condition_id="pow_rec")


# an asymmetric grid: four negative and six positive magnitudes, so the
# outer half and the per-level extrema differ between the two sides
_ASYMMETRIC_X = tuple(-(10.0 ** k) for k in (2.0, 3.0, 4.0, 5.0)) + tuple(
    10.0 ** k for k in (2.0, 2.6, 3.2, 3.8, 4.4, 5.0)
)


def test_tail_scan_reports_inf_side_levels(sas15):
    # the sup/inf aggregates, the inf-side delta gap and the worst
    # quadrature error at the finest level, rebuilt here from the points
    for x_grid in (None, _ASYMMETRIC_X):
        rep = tail_scan(sas15, x_grid=x_grid, condition_id="log_erg")
        d_min = min(p.d for p in rep.points)
        finest = [p for p in rep.points if p.d == d_min and p.delta == 0.05]
        cut = float(np.median([abs(p.x) for p in finest]))

        def level(delta):
            return [p for p in rep.points
                    if p.d == d_min and p.delta == delta and abs(p.x) >= cut]

        v1 = min(p.normalized_lhs for p in level(0.1))
        v2 = min(p.normalized_lhs for p in level(0.05))
        assert rep.tail_sup_estimate == max(p.normalized_lhs for p in level(0.05))
        assert rep.tail_inf_estimate == v2
        assert rep.inf_delta_gap == abs(v2 - (v2 + (v2 - v1) * 0.05 / (0.1 - 0.05)))
        assert rep.quad_error == max(p.quadrature_error for p in level(0.05))


# Reference for the fixed-rule engine: scipy's adaptive quad on every
# spline segment (the density is a piecewise cubic, so each knot is a
# breakpoint) and in log z on the power tail, with scalar kernels and
# densities read from the same table and the pieces summed by fsum.


def _scalar_density(table):
    knots, coef = table._knots.tolist(), table._coef.T.tolist()
    tail = _tail_coefficients(table.alpha)[0]
    alpha, last = table.alpha, len(coef) - 1

    def pdf(z):
        z = abs(z)
        if z > 30.0:
            w, acc = z ** -alpha, 0.0
            for cf in tail:
                acc = acc * w + cf
            return acc * w / z
        i = min(bisect.bisect_right(knots, z) - 1, last)
        dz = z - knots[i]
        c0, c1, c2, c3 = coef[i]
        return ((c0 * dz + c1) * dz + c2) * dz + c3

    return pdf


def _scalar_parts(kernel, x):
    if kernel.kind == "first_moment":
        return lambda y: (0.0, y)
    if kernel.kind == "log_shift":
        den = 1.0 + abs(x)
        return lambda y: (0.5 * math.log1p(-((y / den) ** 2)), math.atanh(y / den))
    if kernel.kind == "power_beta":
        s, den, flip = kernel.beta, abs(x), 1.0
    else:
        s, den, flip = -kernel.beta, 1.0 + abs(x), -1.0
    ev = [real_binom(s, k) for k in range(22, 0, -2)]
    od = [real_binom(s, k) for k in range(21, 0, -2)]

    def eo(y):
        t = y / den
        if abs(t) < 1e-2:
            t2, e, o = t * t, 0.0, 0.0
            for ce, co in zip(ev, od):
                e, o = e * t2 + ce, o * t2 + co
            return flip * e * t2, flip * o * t
        pp, pm = math.expm1(s * math.log1p(t)), math.expm1(s * math.log1p(-t))
        return flip * 0.5 * (pp + pm), flip * 0.5 * (pp - pm)

    return eo


def _quad_reference(alpha, gamma, shift, x, deltas, kernel):
    """Truncated integrals at one x for each delta, keyed by delta."""
    table = DensityTable.for_alpha(alpha)
    pdf, eo = _scalar_density(table), _scalar_parts(kernel, x)
    sgn = 1.0 if x > 0 or kernel.kind == "first_moment" else -1.0
    knots = table._knots.tolist()
    knots = [-k for k in knots[:0:-1]] + knots
    pieces = {delta: [] for delta in deltas}
    # kernel at +y against f(y), kernel at -y against f(-y), in z = (y + m)/gamma
    passes = [(0.0, 0.0, 2.0)] if shift == 0.0 else [(-shift, 1.0, 1.0), (shift, -1.0, 1.0)]
    for m, side, scale in passes:
        def f(z, m=m, side=side, scale=scale):
            e, o = eo(gamma * z - m)
            return scale * (e + side * sgn * o) * pdf(z)

        ends = {delta: (delta * abs(x) + m) / gamma for delta in deltas}
        top = max(ends.values())
        cuts = sorted({m / gamma, *ends.values()} | {k for k in knots if m / gamma < k < top})
        done = []
        for lo, hi in zip(cuts, cuts[1:]):
            if lo >= 30.0:
                out = integrate.quad(lambda s: f(math.exp(s)) * math.exp(s),
                                     math.log(lo), math.log(hi),
                                     epsabs=0.0, epsrel=1e-13, limit=400)
            else:
                out = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=50)
            done.append(out[0])
            for delta, end in ends.items():
                if hi == end:
                    pieces[delta].extend(done)
    return {delta: math.fsum(v) for delta, v in pieces.items()}


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5, 1.9])
def test_truncated_integral_matches_quad_reference(alpha):
    kernels = (DriftKernel.log_shift(), DriftKernel.power_beta(0.5),
               DriftKernel.bounded_beta(0.4), DriftKernel.first_moment())
    cases = [(gamma, shift, (-1e5, -1e3, -1e2, 1e2, 1e3, 1e5), (0.5, 0.05))
             for gamma in (1.0, 2.0) for shift in (0.0, 0.5, -0.5)]
    # a shift larger than delta*|x|: the whole z-interval lies on one side of 0
    cases += [(1.0, shift, (-1e2, 1e2), (0.05,)) for shift in (8.0, -8.0)]
    for gamma, shift, xs, deltas in cases:
        c = tail_constant(StableParams(alpha, gamma))
        spec = make_chain(alpha, gamma=gamma, delta=shift)
        for kernel in kernels:
            power = alpha - 1.0 if kernel.kind == "first_moment" else alpha
            for x in xs:
                ref = _quad_reference(alpha, gamma, shift, x, deltas, kernel)
                for delta in deltas:
                    value, err = truncated_integral_with_error(spec, x, delta, kernel)
                    diff = abs(value - ref[delta])
                    where = (gamma, shift, kernel.kind, x, delta)
                    # normalized units: the display prefactor |x|^power / c
                    assert abs(x) ** power / c * diff <= 1e-9, where
                    assert diff <= err, where


@pytest.mark.parametrize("spec", [
    make_chain(1.5),
    make_chain(ProfileFn.two_valued(1.5, 1.8), delta=ProfileFn.two_valued(0.5, -0.5)),
    make_chain(ProfileFn.periodic(2.0, (0.9, 1.6))),
    make_chain(1.2, delta=-0.5),
], ids=["constant", "two-valued", "periodic", "shifted"])
def test_scan_rows_do_not_depend_on_the_grid(spec, monkeypatch):
    # every raw integral and error of a scan equals its one-point call bit
    # for bit, with the rows in blocks and with one row per block
    x_grid, blocks = default_x_grid(), (drift._BLOCK, 1)
    for cid, beta in (("log_rec", None), ("pow_rec", 0.5), ("bnd_trans", 0.4),
                      ("mom_trans", None)):
        kernel = CONDITIONS[cid].kernel_at(beta)
        one = np.array([[truncated_integral_with_error(spec, x, delta, kernel)
                         for delta in DEFAULT_DELTA_GRID] for x in x_grid])
        for block in blocks:
            monkeypatch.setattr(drift, "_BLOCK", block)
            integrals = {}
            tail_scan(spec, condition_id=cid, beta=beta, integrals=integrals)
            (val, err), = integrals.values()
            assert np.array_equal(val, one[:, :, 0]), (cid, block)
            assert np.array_equal(err, one[:, :, 1]), (cid, block)
