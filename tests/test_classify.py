"""End-to-end verdicts, null refinement and weighted ergodicity."""

import hashlib
import json
import math
import sys

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
from stablike.classify import ScanSettings
from stablike.drift import CONDITIONS, TailScanReport, default_x_grid
from stablike.errors import TableOverflowError
from stablike.stable import DensityTable


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


def test_inward_drift_chain_ergodic(ergodic_spec):
    res = classify(ergodic_spec)
    assert res.verdict == "Ergodic"
    assert "pow_erg" in res.conditions_used
    assert res.beta_used == 1.0
    assert res.margins["pow_erg"] > 0.0
    # ergodicity must come with recurrence support
    assert {"log_rec", "pow_rec"} & set(res.conditions_used)


def test_random_walk_never_positive():
    ev = classify_null(make_chain(1.5))
    assert any("no finite invariant measure" in c for c in ev.caveats)


def test_smallalpha_shortcut_domain():
    ev = classify_transient_smallalpha(make_chain(0.5))
    assert ev.holds
    assert "idx_decay" in ev.margins
    with pytest.raises(DomainError):
        classify_transient_smallalpha(make_chain(1.5))


def test_f_ergodic_constant_weight_reduces_to_classify(ergodic_spec):
    ev = f_ergodic_check(ergodic_spec, ProfileFn.constant(1.0))
    assert ev.holds
    base = classify(ergodic_spec)
    assert ev.margins["pow_erg_w"] == pytest.approx(base.margins["pow_erg"], rel=1e-9)


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
     "51fd258dd7394b1532d833a48ad4d8f732d4946a21c60717128799ff2a7d065a"),
    (make_chain(1.2), "Recurrent",
     "6588f627e6a7eda26196e49ed7fd27586b91b98b92657774e31b1785fa5fe062"),
    (make_chain(0.8, delta=0.5), "Transient",
     "aa7c69cd77dba4f69e67962f4a26c04b9275d07229cbd890415f0805e43d3d57"),
    (make_chain(1.0), "Inconclusive",
     "292acc540d409be6b05602002e59468bc6815a38e196e5be592c17d8fceaeb7c"),
    (None, "Ergodic",
     "51a5eb1d04253ddc73b541a0c20e332a9a89687cda52c9854d258ffa94f15b11"),
], ids=["1.5", "1.2", "0.8-shifted", "1.0", "ergodic"])
def test_classify_output_is_pinned(ergodic_spec, spec, verdict, digest):
    res = classify(spec or ergodic_spec)
    assert res.verdict == verdict
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the rungs that no real chain reaches: crafted scan reports stand in for
# the tail scans, so only the verdict ladder runs
def _crafted_scans(monkeypatch, report_of):
    def run_scans(spec, settings, jobs, caveats):
        return [report_of(cid, beta) for cid, beta, _ in jobs]

    monkeypatch.setattr(sys.modules["stablike.classify"], "_run_scans", run_scans)


def _report(cid, beta, margin, tail_inf=0.0):
    return TailScanReport(cid, (), tail_inf, tail_inf, 0.0, margin, beta)


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


@pytest.mark.parametrize("spec", [make_chain(0.01), ChainSpec(
    ProfileFn.two_valued(0.01, 1.5), SasJump(ProfileFn.constant(1.0), ProfileFn.constant(0.0)))],
    ids=["0.01", "two_valued(0.01, 1.5)"])
def test_default_ladder_skips_betas_outside_the_threshold_domain(spec):
    # the ladder's 0.01 is not below alpha = 0.01, so no beta display is admissible
    res = classify(spec)
    skipped = [c for c in res.caveats if "not scanned" in c]
    assert len(skipped) == 1
    assert all(cid in skipped[0] for cid in ("pow_rec", "pow_erg", "mom_erg_b"))
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
    # below alpha ~ 0.0065 no density table can be built; the first-moment
    # scans of a symmetric chain read none and still decide
    res = classify(make_chain(alpha))
    assert res.verdict == "Transient"
    assert res.conditions_used == ("mom_trans", "idx_decay")
    peak = "inf" if alpha < 0.006 else "8.69e+298"
    skipped = [c for c in res.caveats if "density table overflows" in c]
    assert skipped == [f"log_rec, log_erg, bnd_trans: not scanned, density table "
                       f"overflows at alpha={alpha}: f(0) = {peak}"]
    doc = res.to_json_dict()
    assert {r["condition"] for r in doc["reports"]} == {"mom_rec", "mom_trans", "mom_erg"}
    assert "nan" not in json.dumps(doc).lower()
    ev = classify_null(make_chain(alpha))
    assert any(c.startswith("log_rec: not scanned, density table overflows") for c in ev.caveats)


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
