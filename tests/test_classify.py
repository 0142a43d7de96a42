"""End-to-end verdicts, null refinement and weighted ergodicity."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablike import (
    ChainSpec,
    DomainError,
    ProfileFn,
    SasJump,
    classify,
    classify_null,
    classify_transient_smallalpha,
    f_ergodic_check,
    make_chain,
    r1,
)
from stablike import drift
from stablike.classify import BETA_DOMAINS, ScanSettings, _beta_ladders
from stablike.drift import CONDITIONS, TailScanReport, default_x_grid
from stablike.errors import QuadratureError, TableOverflowError
from stablike.stable import DensityTable, StableParams, tail_constant


def test_symmetric_walk_recurrent_above_one():
    res = classify(make_chain(1.5))
    assert res.verdict == "Recurrent"
    assert "log_rec" in res.conditions_used
    assert res.margins["log_rec"] > 0.0


def test_symmetric_walk_low_index_transient():
    res = classify(make_chain(0.5))
    assert res.verdict == "Transient"
    assert res.margins["mom_trans"] == pytest.approx(abs(r1(0.5)), rel=0.01)


def test_shifted_walk_transient():
    res = classify(make_chain(0.8, delta=0.5))
    assert res.verdict == "Transient"


def test_boundary_index_inconclusive():
    res = classify(make_chain(1.0))
    assert res.verdict == "Inconclusive"
    assert res.margins == {}
    assert any("no display fired" in c for c in res.caveats)


def test_all_diverging_caveat_names_the_trend():
    # every display's margin is -inf here; the caveat names the diverging
    # trend, not a "closest" display with margin -inf
    res = classify(make_chain(1.5, delta=0.3))
    assert res.verdict == "Inconclusive"
    assert all(r.trend_flag == "diverging" for r in res.reports)
    assert res.caveats == ("no display fired; all 9 displays have a diverging |x| trend",)


def test_divergent_compensator_reported_not_fired():
    # near the boundary the beta = 1 moment display looks satisfied on any
    # finite grid while its compensator actually diverges; the verdict must
    # stay Recurrent with an explanatory caveat
    res = classify(make_chain(1.2))
    assert res.verdict == "Recurrent"
    assert "mom_erg_b" not in res.conditions_used
    assert any("mom_erg_b" in c and "not certified" in c for c in res.caveats)


def test_two_valued_dichotomy_supersedes_scans():
    res = classify(
        ChainSpec(
            alpha_profile=ProfileFn.two_valued(1.2, 1.0),
            family=SasJump(
                gamma_profile=ProfileFn.constant(1.0),
                delta_profile=ProfileFn.constant(0.0),
            ),
        )
    )
    assert res.verdict == "Recurrent"
    assert res.conditions_used == ("two_valued_benchmark",)
    assert res.margins["two_valued_benchmark"] == pytest.approx(0.2, abs=1e-12)


def test_two_valued_low_sum_transient():
    res = classify(
        ChainSpec(
            alpha_profile=ProfileFn.two_valued(0.9, 0.8),
            family=SasJump(
                gamma_profile=ProfileFn.constant(1.0),
                delta_profile=ProfileFn.constant(0.0),
            ),
        )
    )
    assert res.verdict == "Transient"


def test_two_valued_sum_in_the_exemption_band_is_inconclusive():
    # 0.98 + 1.05 is within 0.1 of the critical sum 2: no dichotomy verdict
    res = classify(make_chain(ProfileFn.two_valued(0.98, 1.05)))
    assert (res.verdict, res.conditions_used) == ("Inconclusive", ())
    assert any(c.startswith("index sum within 0.1 of the critical value 2: ")
               for c in res.caveats)


def test_piecewise_alpha_takes_each_threshold_at_its_limit_alpha():
    # alpha is 0.6 left of -5 and 1.7 from 5 on; the inner 1.9 is no limit.
    # Recurrence and ergodicity displays take the threshold at the least
    # limit alpha, transience displays at the greatest; no verdict is pinned
    spec = make_chain(ProfileFn.piecewise((-5.0, 5.0), (0.6, 1.9, 1.7)))
    assert drift.threshold_for(spec, "log_rec", None) == (r1(0.6), 0.0)
    assert drift.threshold_for(spec, "mom_trans", None) == (r1(1.7), 0.0)
    assert _beta_ladders(spec, ScanSettings())["rec"] == pytest.approx((0.55, 0.01))
    res = classify(spec)
    assert {rep.condition_id for rep in res.reports} == set(CONDITIONS)
    for rep in res.reports:
        cond = CONDITIONS[rep.condition_id]
        limit = 1.7 if cond.conclusion == "trans" else 0.6
        assert rep.threshold == cond.threshold(limit, rep.beta)[0], rep.condition_id


def test_custom_gamma_is_classified_under_both_caveats():
    # an unchecked chain is not certified, and its first-moment displays are
    # not scanned: jump-tail uniformity needs enumerable profiles
    res = classify(make_chain(1.5, gamma=ProfileFn.custom(lambda x: 1.0), unchecked=True))
    assert (res.verdict, res.conditions_used) == ("Recurrent", ("log_rec", "pow_rec"))
    assert "model envelope assumptions assumed, not certified" in res.caveats
    assert ("first-moment displays skipped: jump-tail uniformity not certifiable for "
            "custom profiles") in res.caveats
    assert all(CONDITIONS[rep.condition_id].kernel != "first_moment" for rep in res.reports)


def test_custom_alpha_is_refused():
    spec = make_chain(ProfileFn.custom(lambda x: 1.5), unchecked=True)
    with pytest.raises(DomainError, match="classification needs an alpha profile with an "
                                          "enumerable value set"):
        classify(spec)


def test_inward_drift_chain_ergodic(ergodic_spec):
    res = classify(ergodic_spec)
    assert res.verdict == "Ergodic"
    assert "pow_erg" in res.conditions_used
    assert res.beta_used == 1.0
    assert res.margins["pow_erg"] > 0.0
    # ergodicity must come with recurrence support
    assert {"log_rec", "pow_rec"} & set(res.conditions_used)


@pytest.mark.parametrize("alpha", [0.8, 0.85, 0.9, 0.95, 0.99])
def test_bounded_drift_below_one_is_never_recurrent(alpha):
    # a bounded drift adds O(|x|^(beta-1)) to the generator of |x|^beta and
    # the alpha < 1 jumps Theta(|x|^(beta-alpha)), so these chains are
    # transient; the drift's share of a display decays only like
    # |x|^(alpha-1), which the scan's trend test must see, not certify
    for d in (0.2, 0.5, 1.0, 2.0):
        res = classify(make_chain(alpha, delta=ProfileFn.two_valued(d, -d)))
        assert res.verdict not in ("Recurrent", "NullCandidate", "Ergodic"), (d, res.verdict)


def test_random_walk_never_positive():
    ev = classify_null(make_chain(1.5))
    assert any("no finite invariant measure" in c for c in ev.caveats)


def test_smallalpha_shortcut_domain():
    ev = classify_transient_smallalpha(make_chain(0.5))
    assert ev.holds
    assert "idx_decay" in ev.margins
    with pytest.raises(DomainError):
        classify_transient_smallalpha(make_chain(1.5))


def test_smallalpha_rate_is_alpha_times_the_power_over_the_tail_constant():
    # the rate of every horizon point, alpha |x|^(alpha - 1) / c(alpha, gamma)
    # in Python floats, read here without drift._Grid
    spec = make_chain(ProfileFn.periodic(1.3, (0.4, 0.9)), gamma=ProfileFn.two_valued(0.5, 2.0),
                      delta=ProfileFn.two_valued(0.3, -0.3))
    mags = np.geomspace(1e2, 1e16, 112)
    decade = np.floor(np.log10(mags))
    last = []
    for side in (1.0, -1.0):
        rate = []
        for x in (side * mags).tolist():
            a, g = spec.alpha_profile(x), spec.family.gamma_profile(x)
            rate.append(a * abs(x) ** (a - 1.0) / tail_constant(StableParams(a, g)))
        last.append(float(np.array(rate)[decade == decade.max()].max()))
    ev = classify_transient_smallalpha(spec)
    assert ev.margins == {"idx_decay": 1e-6 - max(last)}


def test_f_ergodic_constant_weight_reduces_to_classify(ergodic_spec):
    ev = f_ergodic_check(ergodic_spec, ProfileFn.constant(1.0))
    assert ev.holds
    base = classify(ergodic_spec)
    assert ev.margins["pow_erg_w"] == pytest.approx(base.margins["pow_erg"], rel=1e-9)


def test_f_ergodic_claims_nothing_about_the_weight_when_nothing_fired():
    # with g = 1 and pow_erg outside its beta domain nothing is certified,
    # and detail says so; no caveat blames the weight
    ev = f_ergodic_check(make_chain(0.9), ProfileFn.constant(1.0), ScanSettings(betas=(0.95,)))
    assert not ev.holds
    assert ev.detail == "no weighted display certified for constant weight with values {1}"
    assert ev.caveats == (
        "pow_erg: not scanned, no beta of the ladder is admissible "
        + BETA_DOMAINS,)


def test_classify_null_names_the_displays_it_could_not_scan():
    ev = classify_null(make_chain(0.9), ScanSettings(betas=(0.95,)))
    assert "pow_rec: not scanned, no beta of the ladder is admissible " \
        + BETA_DOMAINS in ev.caveats
    assert {r.condition_id for r in ev.reports} == {"log_rec"}


@pytest.mark.parametrize("run", [
    lambda spec: classify(spec),
    lambda spec: classify_null(spec),
    lambda spec: f_ergodic_check(spec, ProfileFn.two_valued(1.0, 2.0)),
], ids=["classify", "classify_null", "f_ergodic_check"])
def test_each_verdict_function_scans_through_one_scan_step(monkeypatch, run):
    calls = []
    module = sys.modules["stablike.classify"]
    scan = module._scan

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(module, "_scan", counted)
    run(make_chain(1.5, delta=ProfileFn.two_valued(0.2, -0.2)))
    assert len(calls) == 1


def test_non_monotone_trend_claims_no_widened_error():
    # pow_erg's aggregate turns over the smallest delta levels, but its |x|
    # trend needs no extrapolation: nothing widened its error
    res = classify(make_chain(0.882, gamma=0.684, delta=ProfileFn.two_valued(-0.059, 1.0)))
    pow_erg = next(r for r in res.reports if r.condition_id == "pow_erg")
    assert pow_erg.trend_flag == "non-monotone"
    assert [c for c in res.caveats if c.startswith("pow_erg:")] == [
        "pow_erg: non-monotone truncation trend over the smallest delta levels"]
    for rep in res.reports:
        if rep.trend_flag == "extrapolated":
            assert (f"{rep.condition_id}: extrapolated truncation trend, margin error widened"
                    in res.caveats)


@pytest.mark.parametrize("spec, deltas", [
    # every alpha below 1: the default ladder gives Inconclusive, one level Recurrent
    (make_chain(0.97, gamma=ProfileFn.custom(lambda x: 1.0), unchecked=True), (0.5,)),
    # acceptance 3's log_rec margin 0.0495, which fired on one level
    (make_chain(1.0), (0.05,)),
], ids=["custom-gamma-0.97", "cauchy"])
def test_one_delta_level_is_refused(spec, deltas):
    # one level leaves no delta -> 0 gap, so a display would fire unsoundly
    with pytest.raises(DomainError, match="delta_grid must hold at least two"):
        classify(spec, ScanSettings(delta_grid=deltas))


def test_f_ergodic_growing_weight(ergodic_spec):
    ev = f_ergodic_check(
        ergodic_spec, ProfileFn.custom(lambda x: (1.0 + abs(x)) ** 0.3)
    )
    assert ev.holds
    assert ev.margins["pow_erg_w"] > 0.0
    assert any("pointwise" in c for c in ev.caveats)


def test_classification_json_round_trip(ergodic_spec):
    res = classify(make_chain(1.2))
    doc = res.to_json_dict()
    text = json.dumps(doc)  # must not trip on non-finite floats
    back = json.loads(text)
    assert back["verdict"] == "Recurrent"
    assert set(back["margins"]) == set(res.margins)
    for rep in back["reports"]:
        if rep["condition"] == "mom_erg_b":
            assert rep["trend"] == "diverging"
            assert isinstance(rep["margin"], str)  # -inf serialized as text


def test_verdict_priority_is_stable(ergodic_spec):
    # repeated runs are deterministic: no RNG inside the classifier
    a = classify(ergodic_spec)
    b = classify(ergodic_spec)
    assert a.verdict == b.verdict
    assert a.margins == b.margins
    assert a.conditions_used == b.conditions_used


# the report order, conditions_used, caveats, margins and every report
# number of one gate chain per verdict are pinned (None: the ergodic chain)
@pytest.mark.parametrize("spec, verdict, digest", [
    (make_chain(1.5), "Recurrent",
     "7facb7dab4a1754c75520c3eb596a04cb6debc3334cce67237a3245b82c704dd"),
    (make_chain(1.2), "Recurrent",
     "52357b374c018d0679c48eae1a700df3f9112dec6dffb0543652db16fb86e279"),
    (make_chain(0.8, delta=0.5), "Transient",
     "f9491b024ce65df195ec9be96cc501b48494f9b4d58c91a73d3aa2a7694462d9"),
    (make_chain(1.0), "Inconclusive",
     "ecb27a01d55346da674e489c253d1b45168f1f4ee8d788f7c58bef52c35d54df"),
    (None, "Ergodic",
     "4d9ae930bc39ac4456de7f9475177f647af9071f6208eb287c5f9b09208043f1"),
], ids=["1.5", "1.2", "0.8-shifted", "1.0", "ergodic"])
def test_classify_output_is_pinned(ergodic_spec, spec, verdict, digest):
    res = classify(spec or ergodic_spec)
    assert res.verdict == verdict
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_classify_builds_no_drift_point(ergodic_spec, monkeypatch):
    # the verdict reads the scans' arrays; points are built only on demand
    def no_point(*args):
        raise AssertionError("classify built a DriftPoint")

    monkeypatch.setattr(drift, "DriftPoint", no_point)
    for spec, verdict in ((ergodic_spec, "Ergodic"), (make_chain(0.8, delta=0.5), "Transient")):
        res = classify(spec)
        assert res.verdict == verdict
        assert all("points" not in vars(r) for r in res.reports)


def test_classify_keeps_nothing_between_calls(monkeypatch):
    # the per-x data and raw integrals are shared within one classification
    # only: a repeated call does the same integrals and profile lookups, which
    # drift._Grid makes through ProfileFn.at
    calls = {"integrals": 0, "cell": 0, "at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(drift, "_integrals", counted("integrals", drift._integrals))
    monkeypatch.setattr(ProfileFn, "cell", counted("cell", ProfileFn.cell))
    monkeypatch.setattr(ProfileFn, "at", counted("at", ProfileFn.at))
    counts = []
    for _ in range(2):
        calls.update(integrals=0, cell=0, at=0)
        classify(make_chain(1.5))
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["integrals"] > 0 and counts[0]["at"] > 0


# Ergodic verdicts that cannot hold (ROADMAP item 2): a symmetric chain with
# delta = 0 has no finite invariant law, and a bounded drift cannot hold a
# chain whose every alpha is below 1
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a per-regime |x| trend test")
@pytest.mark.parametrize("spec, wrong", [
    (make_chain(ProfileFn.periodic(2.0, (1.239, 1.46)), gamma=2.54), ("Ergodic",)),
    (make_chain(ProfileFn.periodic(1.0, (0.897, 0.868)), gamma=0.58,
                delta=ProfileFn.two_valued(2.672, -2.672)),
     ("Recurrent", "NullCandidate", "Ergodic")),
], ids=["symmetric-periodic", "periodic-below-one-inward"])
def test_unsound_ergodic_verdicts(spec, wrong):
    assert classify(spec).verdict not in wrong


# the rungs that no real chain reaches: crafted scan reports stand in for
# the tail scans, so only the verdict ladder runs
def _crafted_scans(monkeypatch, report_of):
    def run_scans(spec, settings, jobs, caveats):
        return [report_of(cid, beta) for cid, beta, _ in jobs]

    monkeypatch.setattr(sys.modules["stablike.classify"], "_run_scans", run_scans)


def _report(cid, beta, margin, tail_inf=0.0):
    return TailScanReport(cid, tail_inf, tail_inf, 0.0, margin, beta)


def test_rung_displays_fired_both_ways(monkeypatch):
    _crafted_scans(monkeypatch, lambda cid, beta: _report(cid, beta, 1.0 + (beta or 0.0)))
    res = classify(make_chain(1.5))
    assert res.verdict == "Inconclusive"
    assert res.conditions_used == ("log_rec", "pow_rec", "mom_rec", "log_erg", "pow_erg",
                                   "mom_erg", "mom_erg_b", "bnd_trans", "mom_trans")
    assert set(res.margins) == set(res.conditions_used)
    assert res.margins["pow_rec"] == 2.0
    assert res.beta_used is None
    assert any("both directions" in c for c in res.caveats)


def test_rung_ergodicity_without_recurrence(monkeypatch):
    def report(cid, beta):
        fired = CONDITIONS[cid].conclusion == "erg"
        return _report(cid, beta, 1.0 + (beta or 0.0) if fired else -1.0)

    _crafted_scans(monkeypatch, report)
    res = classify(make_chain(1.5))
    assert res.verdict == "Inconclusive"
    assert res.conditions_used == ("log_erg", "pow_erg", "mom_erg", "mom_erg_b")
    assert res.beta_used == 1.0
    assert res.margins == {"log_erg": 1.0, "pow_erg": 2.0, "mom_erg": 1.0, "mom_erg_b": 2.0}
    assert any("without recurrence support" in c for c in res.caveats)


def test_rung_null_candidate(monkeypatch):
    # only log_rec fires; the unfired pow_rec sits far above the threshold
    def report(cid, beta):
        if cid == "log_rec":
            return _report(cid, beta, 1.0, tail_inf=-100.0)
        return _report(cid, beta, -1.0, tail_inf=100.0 if cid == "pow_rec" else 0.0)

    _crafted_scans(monkeypatch, report)
    res = classify(make_chain(1.5))
    assert res.verdict == "NullCandidate"
    assert res.conditions_used == ("log_rec",)
    assert list(res.margins) == ["log_rec", "pow_rec_null"]
    assert res.margins["pow_rec_null"] > 90.0
    assert res.beta_used is None
    assert res.caveats[-1] == "recurrent with evidence against a finite invariant measure"


_ENGINE_FAILS_AT_0_01 = "density quadrature failed at alpha=0.01, z=4.662776816542126e-13"


@pytest.mark.parametrize("spec", [make_chain(0.01), ChainSpec(
    ProfileFn.two_valued(0.01, 1.5), SasJump(ProfileFn.constant(1.0), ProfileFn.constant(0.0)))],
    ids=["0.01", "two_valued(0.01, 1.5)"])
def test_default_ladder_skips_betas_outside_the_threshold_domain(spec):
    # the ladder's 0.01 is not below alpha = 0.01, so no beta display is
    # admissible; the alpha = 0.01 table is skipped under a caveat of its own
    res = classify(spec)
    skipped = [c for c in res.caveats if "not scanned" in c]
    assert len(skipped) == 2
    assert all(cid in skipped[0] for cid in ("pow_rec", "pow_erg", "mom_erg_b"))
    assert skipped[1] == f"log_rec, log_erg, bnd_trans: not scanned, {_ENGINE_FAILS_AT_0_01}"
    assert not {"pow_rec", "pow_erg", "mom_erg_b"} & {r["condition"] for r in
                                                        res.to_json_dict()["reports"]}
    if spec.alpha_profile.kind == "constant":
        assert res.verdict == "Transient"
        assert res.conditions_used == ("mom_trans", "idx_decay")


def test_given_betas_outside_the_threshold_domain_are_skipped():
    grid = default_x_grid(6)
    res = classify(make_chain(1.5), ScanSettings(x_grid=grid, betas=(1.0,)))
    assert res.verdict == "NullCandidate"  # pow_rec at beta 1 stays above the threshold
    assert any("bnd_trans" in c and "not scanned" in c for c in res.caveats)
    assert {r.beta for r in res.reports if r.condition_id == "pow_rec"} == {1.0}
    res = classify(make_chain(0.3), ScanSettings(x_grid=grid, betas=(0.5,)))
    assert res.verdict == "Transient"
    assert any("pow_rec" in c and "not scanned" in c for c in res.caveats)


@pytest.mark.parametrize("alpha", [0.005, 0.006])
def test_table_overflow_skips_only_the_displays_that_read_the_table(alpha):
    # below alpha ~ 0.00586 f(0) overflows, and up to alpha ~ 0.11 the
    # engine does not converge at the rule's nodes; the first-moment scans
    # of a symmetric chain read no table and still decide
    res = classify(make_chain(alpha))
    assert res.verdict == "Transient"
    assert res.conditions_used == ("mom_trans", "idx_decay")
    reason = (f"density table overflows at alpha={alpha}: f(0) = inf" if alpha < 0.006 else
              f"density quadrature failed at alpha={alpha}, z=4.662776816542126e-13")
    skipped = [c for c in res.caveats if c.endswith(reason)]
    assert skipped == [f"log_rec, log_erg, bnd_trans: not scanned, {reason}"]
    doc = res.to_json_dict()
    assert {r["condition"] for r in doc["reports"]} == {"mom_rec", "mom_trans", "mom_erg"}
    assert "nan" not in json.dumps(doc).lower()
    ev = classify_null(make_chain(alpha))
    assert f"log_rec: not scanned, {reason}" in ev.caveats


def test_overflowing_table_is_built_once(monkeypatch):
    # every scan that reads the table gets the cached failure, not a rebuild
    builds = []
    build = DensityTable.__init__

    def counted(self, alpha):
        builds.append(alpha)
        build(self, alpha)

    monkeypatch.setattr(DensityTable, "__init__", counted)
    monkeypatch.setattr(DensityTable, "_cache", {})
    res = classify(make_chain(0.005))
    assert builds == [0.005]
    assert sum("density table overflows" in c for c in res.caveats) == 1
    with pytest.raises(TableOverflowError, match="overflows at alpha=0.005: f"):
        DensityTable.for_alpha(0.005)


_NO_CONVERGENCE = ("density quadrature at alpha=1.9999, z=8.469258054002271: "
                   "no convergence in 9 tanh-sinh levels")


def test_unconverged_table_skips_only_the_displays_that_read_the_table():
    # the density engine does not converge at one knot of the alpha = 1.9999
    # table; the first-moment scans of a symmetric chain read no table
    res = classify(make_chain(1.9999))
    assert res.verdict == "Recurrent"
    assert res.conditions_used == ("mom_rec",)
    assert (f"log_rec, log_erg, pow_rec, pow_erg, bnd_trans: not scanned, "
            f"{_NO_CONVERGENCE}") in res.caveats


def test_unconverged_table_leaves_a_shifted_chain_inconclusive():
    # a shifted chain's first-moment scans read the table too, so nothing is scanned
    res = classify(make_chain(1.9999, delta=0.5))
    assert res.verdict == "Inconclusive"
    assert res.conditions_used == ()
    assert res.reports == ()
    assert [c for c in res.caveats if "not scanned" in c] == [
        f"log_rec, log_erg, pow_rec, pow_erg, bnd_trans, mom_rec, mom_trans, mom_erg, "
        f"mom_erg_b: not scanned, {_NO_CONVERGENCE}"]


def test_unconverged_table_is_built_once(monkeypatch):
    builds = []
    build = DensityTable.__init__

    def counted(self, alpha):
        builds.append(alpha)
        build(self, alpha)

    monkeypatch.setattr(DensityTable, "__init__", counted)
    monkeypatch.setattr(DensityTable, "_cache", {})
    classify(make_chain(1.9999, delta=0.5))
    assert builds == [1.9999]
    with pytest.raises(QuadratureError, match=_NO_CONVERGENCE):
        DensityTable.for_alpha(1.9999)
    assert builds == [1.9999]


_ALPHAS = (0.006, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99, 1.0, 1.3, 1.7, 1.999)
_DELTAS = {"0": ProfileFn.constant(0.0), "+0.5": ProfileFn.constant(0.5),
           "-0.5": ProfileFn.constant(-0.5), "inward": ProfileFn.two_valued(0.5, -0.5)}


@settings(max_examples=60)
@given(
    alphas=st.lists(st.sampled_from(_ALPHAS), min_size=1, max_size=2),
    delta=st.sampled_from(sorted(_DELTAS)),
    betas=st.none() | st.lists(st.sampled_from((0.005, 0.5, 1.0)), min_size=1,
                               max_size=3, unique=True).map(tuple),
)
def test_classify_never_raises_on_enumerable_chains(alphas, delta, betas):
    alpha = ProfileFn.constant(*alphas) if len(alphas) == 1 else ProfileFn.two_valued(*alphas)
    spec = ChainSpec(alpha, SasJump(ProfileFn.constant(1.0), _DELTAS[delta]))
    res = classify(spec, ScanSettings(x_grid=default_x_grid(6), betas=betas))
    assert res.verdict in ("Ergodic", "Recurrent", "NullCandidate", "Transient", "Inconclusive")
