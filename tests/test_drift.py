"""Truncated drift integrals, normalization and tail scans."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablike import (
    DomainError,
    classify,
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
    StableParams, _std_density, sas_sample_n, tail_constant,
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


@pytest.mark.parametrize("kind, beta", [("log_shift", None)] + [
    ("power_beta", b) for b in (0.01, 0.5, 0.95, 0.99, 1.0)] + [
    ("bounded_beta", b) for b in (0.01, 0.5, 0.99)])
def test_kernel_parts_match_mpmath(kind, beta):
    # both parts to a few ulp against a 90-digit reference, from t = 1e-14
    # (where the even part is ~t^2) to 0.6; the even part of (1 +- t)^s
    # cancels to s(s - 1)t^2/2, which costs a factor 1/|1 - s|
    kernel = DriftKernel(kind, beta)
    sign = -1 if kind == "bounded_beta" else 1  # 1 - (1 + t)^s negates (1 + t)^s - 1
    s = 0.0 if beta is None else sign * beta
    den = 1.0 if kind == "power_beta" else 2.0  # x = 1
    mags = np.geomspace(1e-14, 0.6, 200)
    ts = np.concatenate([-mags[::-1], mags])
    e, o = kernel_parts(kernel, 1.0)(ts * den)
    eps = np.finfo(float).eps
    with mpmath.workdps(90):
        for t, ev, od in zip(ts.tolist(), e.tolist(), o.tolist()):
            tm = mpmath.mpf(t)
            if kind == "log_shift":
                want_e, want_o = mpmath.log1p(-tm * tm) / 2, mpmath.atanh(tm)
            else:
                pp, pm = (1 + tm) ** s, (1 - tm) ** s
                want_e, want_o = sign * ((pp + pm) / 2 - 1), sign * (pp - pm) / 2
            if s == 1.0:
                assert abs(ev) <= 8 * eps * t * t, t
            else:
                assert abs(ev - want_e) <= 8 * eps * abs(want_e) / min(1.0, abs(1.0 - s)), t
            assert abs(od - want_o) <= 8 * eps * abs(want_o), t


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


def test_tail_scan_diverges_when_one_regime_diverges():
    # mom_erg_b grows in every regime of this symmetric chain, but the
    # largest |x| lies in an alpha = 1.46 cell, above the alpha = 1.239
    # cells that carry the growth, so the aggregate over regimes turns back
    spec = make_chain(ProfileFn.periodic(2.0, (1.239, 1.46)), gamma=2.54)
    rep = tail_scan(spec, condition_id="mom_erg_b", beta=1.0)
    assert rep.trend_flag == "diverging"
    assert rep.margin == -math.inf


def test_a_regime_of_fewer_than_three_outer_magnitudes_has_no_trend_row():
    # x < -5e4 holds the outer |x| 10^4.75 and 10^5 only: that regime is
    # aggregated but shows no trend of its own
    grid = drift._Grid(make_chain(ProfileFn.piecewise((-5e4,), (1.2, 1.5))),
                       default_x_grid())
    cell_of, n_mags, last3, gaps = grid.trend_cells
    assert list(grid.groups) == [(1.2, 1.0, 0.0), (1.5, 1.0, 0.0)]
    assert n_mags == 7 and len(cell_of) == 14
    assert last3.tolist() == [[n_mags + 4, n_mags + 5, n_mags + 6]]
    assert gaps == [[1, 1]]


def _regime_ranks(spec):
    cell_of, n_mags, last3, gaps = drift._Grid(spec, default_x_grid()).trend_cells
    assert gaps == np.diff(last3 % n_mags, axis=1).tolist()
    return (last3 % n_mags).tolist()


@pytest.mark.parametrize("g1, g2", [(1, 1), (1, 2), (2, 1), (1, 4), (3, 1)])
def test_settling_ratio_reads_increments_per_rank(g1, g2):
    # a geometric trend settling by 0.8 a rank reads 0.8 across any gaps;
    # one growing linearly in rank reads 1, above the 0.95 cut
    v = [-(0.8 ** k) for k in (0, g1, g1 + g2)]
    ratio = drift._settling_ratio((v[2] - v[1]) / (v[1] - v[0]), g1, g2)
    assert ratio == pytest.approx(0.8, abs=1e-9)
    assert drift._settling_ratio(g2 / g1, g1, g2) >= 1.0 - 1e-9


def test_a_regime_trend_that_skips_ranks_and_settles_does_not_diverge():
    # the first regime's largest outer |x| have ranks 1, 2 and 6; its
    # bnd_trans value moves 1.7e-6 over one rank, then 3.3e-6 over four,
    # which settles per rank and reads above 0.95 only per increment
    spec = make_chain(ProfileFn.two_valued(0.581, 0.826),
                      gamma=ProfileFn.periodic(2.0, (1.55, 1.224)))
    assert _regime_ranks(spec)[0] == [1, 2, 6]
    rep = tail_scan(spec, condition_id="bnd_trans", beta=0.01)
    assert rep.trend_flag == "extrapolated"
    assert rep.margin > 2.0 * rep.scan_error


def test_a_regime_settling_toward_the_threshold_is_extrapolated():
    # every alpha is below 1, so this chain is transient; mom_erg_b rises
    # in each regime, by about 0.95 of its last increment a rank, while the
    # aggregate over regimes turns back at the largest |x|. The regimes'
    # limits lie past the threshold, the grid's extremum does not
    spec = make_chain(ProfileFn.periodic(1.0, (0.897, 0.868)), gamma=0.58,
                      delta=ProfileFn.two_valued(2.672, -2.672))
    rep = tail_scan(spec, condition_id="mom_erg_b", beta=0.818)
    assert rep.trend_flag == "extrapolated"
    assert rep.tail_sup_estimate < rep.threshold < rep.tail_sup_estimate + rep.scan_error
    assert rep.margin < 0.0


def test_a_regime_trend_that_skips_ranks_and_keeps_growing_diverges():
    # each regime's largest outer |x| have ranks 3, 5 and 6, and its
    # mom_erg_b value grows about as much per rank across the gap as
    # after it; each gamma alone makes the same display diverge
    spec = make_chain(1.057, gamma=ProfileFn.periodic(2.9, (1.789, 2.018, 0.809)))
    assert _regime_ranks(spec) == [[3, 5, 6], [3, 5, 6]]
    rep = tail_scan(spec, condition_id="mom_erg_b", beta=1.0)
    assert rep.trend_flag == "diverging"
    assert rep.margin == -math.inf
    for gamma in (1.789, 2.018, 0.809):
        alone = tail_scan(make_chain(1.057, gamma=gamma), condition_id="mom_erg_b", beta=1.0)
        assert alone.trend_flag == "diverging"


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


@pytest.mark.parametrize("spec, cid, beta", [
    (make_chain(1.5), "log_erg", None),
    (make_chain(1.2, delta=-0.5), "mom_erg_b", 0.5),
    (make_chain(ProfileFn.periodic(2.0, (0.9, 1.6)), gamma=ProfileFn.two_valued(1.0, 2.0)),
     "pow_erg", 0.5),
], ids=["log-erg", "shifted-mom-erg-b", "periodic-pow-erg"])
def test_points_are_built_on_first_read(spec, cid, beta):
    # the report keeps its arrays; the points, in (d, delta, x) nesting
    # order, equal the one-point display field for field and are cached
    xs = tuple(-(10.0 ** k) for k in (2.0, 3.5, 5.0)) + tuple(10.0 ** k for k in (2.0, 3.5, 5.0))
    deltas, ds = (0.5, 0.1), (0.1, 0.001)
    rep = tail_scan(spec, x_grid=xs, delta_grid=deltas, d_grid=ds, condition_id=cid, beta=beta)
    assert "points" not in vars(rep)
    want = tuple(normalized_lhs(spec, x, delta, d, cid, beta)
                 for d in ds for delta in deltas for x in xs)
    assert repr(rep.points) == repr(want)  # repr tells -0.0 from 0.0
    assert rep.points is rep.points


@pytest.mark.parametrize("grids, name", [
    ({"delta_grid": ()}, "delta_grid"),
    ({"delta_grid": (0.5,)}, "delta_grid"),
    ({"d_grid": ()}, "d_grid"),
    ({"delta_grid": (0.5, 0.1, 0.2)}, "delta_grid"),
    ({"x_grid": (-1e2, 1e2, 5e4)}, "x_grid"),
    ({"x_grid": (-1e2, 1e2, math.inf)}, "x must be finite"),
], ids=["empty-delta", "one-delta", "empty-d", "non-decreasing-delta", "short-x", "infinite-x"])
def test_tail_scan_rejects_bad_grids(grids, name):
    with pytest.raises(DomainError, match=name):
        tail_scan(make_chain(1.5), condition_id="log_erg", **grids)


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


# Reference for the fixed-rule engine: scipy's adaptive quad over the
# density engine's own values, memoised per |z|, split at fixed decades of
# z and in log z on the power tail, with scalar kernels and the pieces
# summed by fsum. It shares no node, panel or weight with DensityTable.
_REF_CUTS = (0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 300.0, 3e3, 3e4, 3e5)


@functools.lru_cache(maxsize=None)
def _engine_density(alpha, z):
    return float(_std_density(alpha, z)[0])


def _scalar_parts(kernel, x):
    """Scalar (E, O) evaluator, kept independent of kernel_parts.

    Binomial series below |t| = 1e-2, expm1 and log1p above: a second
    form of the kernels, so that the reference does not check the
    engine's closed form against itself.
    """
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
    eo = _scalar_parts(kernel, x)
    sgn = 1.0 if x > 0 or kernel.kind == "first_moment" else -1.0
    cuts = (0.0,) + _REF_CUTS + tuple(-c for c in _REF_CUTS)
    pieces = {delta: [] for delta in deltas}
    # kernel at +y against f(y), kernel at -y against f(-y), in z = (y + m)/gamma
    passes = [(0.0, 0.0, 2.0)] if shift == 0.0 else [(-shift, 1.0, 1.0), (shift, -1.0, 1.0)]
    for m, side, scale in passes:
        def f(z, m=m, side=side, scale=scale):
            e, o = eo(gamma * z - m)
            return scale * (e + side * sgn * o) * _engine_density(alpha, abs(z))

        ends = {delta: (delta * abs(x) + m) / gamma for delta in deltas}
        top = max(ends.values())
        inner = sorted({m / gamma, *ends.values()} | {c for c in cuts if m / gamma < c < top})
        done = []
        for lo, hi in zip(inner, inner[1:]):
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
            # one raw-integral set, beside the grid's per-x data
            assert len(integrals) == 2
            (val, err), = (v for v in integrals.values() if isinstance(v, tuple))
            assert np.array_equal(val, one[:, :, 0]), (cid, block)
            assert np.array_equal(err, one[:, :, 1]), (cid, block)


_MIRROR_KERNELS = (DriftKernel.log_shift(), DriftKernel.power_beta(0.5),
                   DriftKernel.bounded_beta(0.4))


@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_mirror_rows_are_exact(alpha, gamma):
    # an unshifted group evaluates each |x| once for x and -x: the default
    # grid, one-row grids and a lopsided grid must give the same rows
    spec = make_chain(alpha, gamma=gamma)
    x_grid = default_x_grid()
    mags = x_grid[len(x_grid) // 2:]
    lopsided = tuple(-mags[i] for i in (12, 8, 4, 0)) + tuple(mags[i] for i in (0, 2, 5, 8, 10, 12))
    for kernel in _MIRROR_KERNELS:
        full = drift._integrals(drift._Grid(spec, x_grid), kernel, DEFAULT_DELTA_GRID)
        rows = {x: i for i, x in enumerate(x_grid)}
        for x in x_grid:
            one = drift._integrals(drift._Grid(spec, (x,)), kernel, DEFAULT_DELTA_GRID)
            for got, want in zip(full, one):
                assert np.array_equal(got[rows[x]], want[0]), (kernel, x)
        part = drift._integrals(drift._Grid(spec, lopsided), kernel, DEFAULT_DELTA_GRID)
        at = [rows[x] for x in lopsided]
        for got, want in zip(part, full):
            assert np.array_equal(got, want[at]), kernel


def test_shifted_mirror_rows_still_differ():
    # a shift breaks the x -> -x symmetry of the kernels whose odd part
    # carries sgn(x): their rows at x and -x must stay apart
    spec = make_chain(1.5, delta=0.5)
    x_grid = default_x_grid()
    n = len(x_grid)
    for kernel in _MIRROR_KERNELS:
        val = drift._integrals(drift._Grid(spec, x_grid), kernel, DEFAULT_DELTA_GRID)[0]
        for i in range(n // 2):
            assert not np.array_equal(val[i], val[n - 1 - i]), (kernel, x_grid[i])


def _out_of_place_parts(kernel, x):
    """The out-of-place form of kernel_parts' evaluator, kept as the oracle."""
    ax = abs(x)
    kind = kernel.kind
    if kind == "first_moment":
        return lambda y: (np.zeros_like(y), y)
    s, den, flip = None, 1.0 + ax, 1.0
    if kind == "power_beta":
        s, den = kernel.beta, ax
    elif kind == "bounded_beta":
        s, flip = -kernel.beta, -1.0

    def eo(y):
        t = np.clip(np.divide(y, den), -drift._T_MAX, drift._T_MAX)
        u, a = 0.5 * np.log1p(-t * t), np.arctanh(t)
        if s is None:
            return u, a
        su, sa = s * u, s * a
        h = np.sinh(0.5 * sa)
        g = flip * np.exp(su)
        return flip * np.expm1(su) + 2.0 * g * h * h, g * np.sinh(sa)

    return eo


@pytest.mark.parametrize("kernel", [
    DriftKernel.log_shift(), DriftKernel.power_beta(0.01), DriftKernel.power_beta(0.5),
    DriftKernel.power_beta(1.0), DriftKernel.bounded_beta(0.01), DriftKernel.bounded_beta(0.4),
    DriftKernel.bounded_beta(0.99), DriftKernel.first_moment(),
], ids=lambda k: f"{k.kind}-{k.beta}")
def test_kernel_parts_in_place_is_safe(kernel):
    # the evaluator works in arrays of its own: it takes floats, 0-d arrays,
    # 1-d nodes against a (rows, 1) x, (rows, n) nodes and read-only views,
    # never writes into its argument, and gives the out-of-place form's
    # floats bit for bit
    nodes = np.concatenate([np.linspace(-120.0, 120.0, 49), [1e-12, -3e-8, 99.99, 250.0, -1e4]])
    xs = np.array([[-100.0], [100.0], [99.0], [3e4]])
    cases = [(100.0, 37.5), (-250.0, np.array(-80.25)), (xs, nodes),
             (xs, np.outer([1.0, 0.5, -1.0, 2.0], nodes)),
             (xs, np.broadcast_to(nodes, (len(xs), len(nodes))))]
    for x, y in cases:
        before = np.copy(y)
        got = kernel_parts(kernel, x)(y)
        want = _out_of_place_parts(kernel, x)(y)
        assert np.array_equal(np.asarray(y), before) and np.shape(y) == before.shape
        for g, w in zip(got, want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (x, type(y))
        if kernel.kind == "first_moment":
            assert got[1] is y  # callers must not write into it
        elif isinstance(y, np.ndarray):
            assert not any(np.shares_memory(part, y) for part in got)


def test_symmetric_groups_hand_each_magnitude_once(monkeypatch):
    # structural guard, no timing: an unshifted chain's scans pass one row
    # per |x| to _cumulative, a shifted one every x on both sides
    seen = []
    cumulative = drift._cumulative

    def counted(table, kern, v):
        seen.append(v.shape[0])
        return cumulative(table, kern, v)

    monkeypatch.setattr(drift, "_cumulative", counted)
    rows = []
    for spec in (make_chain(1.5), make_chain(0.5, delta=0.5)):
        seen.clear()
        classify(spec)
        rows.append(sum(seen))
    # 13 magnitudes x 5 kernels; 26 x, two sides, 6 kernels
    assert rows == [65, 312]
