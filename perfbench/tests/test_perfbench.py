"""Tests of the benchmark's own code: span arithmetic, tracer restore,
failure counting, and agreement with BENCHMARK.json."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # [name, parent, op, start, end, info]
    spans = [
        ["root", -1, 0, 0.0, 10.0, None],
        ["a", 0, 0, 1.0, 3.0, None],
        ["b", 0, 0, 2.0, 5.0, None],  # overlaps a: covered once
        ["c", 0, 0, 8.0, 12.0, None],  # clipped at the parent's end
        ["a.child", 1, 0, 1.5, 2.5, None],
        ["other", -1, 1, 20.0, 21.0, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_traced_run_restores_every_wrapped_attribute():
    from stablike import make_chain

    before = tracer.current_objects()
    tr = tracer.Tracer()
    with tr.installed():
        now = tracer.current_objects()
        assert all(now[key] is not before[key] for key in before)
        with tr.operation("probe"):
            importlib.import_module("stablike.chain").simulate(make_chain(1.5), 0.0, 50, 1)
            importlib.import_module("stablike.mc").invariant_histogram(
                make_chain(1.2), 0.0, 50, None, 1.0, 2)
            importlib.import_module("stablike.classify").r1(0.5)
            importlib.import_module("scipy.integrate").quad(lambda x: x, 0.0, 1.0,
                                                            full_output=1)
    after = tracer.current_objects()
    assert all(after[key] is before[key] for key in before)
    names = [span[0] for span in tr.spans]
    assert names.count("chain.simulate") == 2  # direct, and inside the histogram
    assert "thresholds.r1" in names and "mc.invariant_histogram" in names
    assert tr.quad[0][0] == 1  # the quad call counts toward the operation span

    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("abort inside a traced run")
    after = tracer.current_objects()
    assert all(after[key] is before[key] for key in before)


def _fake_classify(items, wrong_label, how):
    from stablike.classify import Classification

    by_spec = {wl.build_chain(item["chain"]): item for item in items}

    def fake(spec, settings=None):
        item = by_spec[spec]
        if item["label"] == wrong_label:
            if how == "raise":
                raise RuntimeError("forced failure")
            return Classification("Transient", ("bnd_trans",), {"bnd_trans": 1.0})
        if item["expect"] == "Ergodic":
            return Classification("Ergodic", ("pow_erg", "pow_rec"),
                                  {"pow_erg": 1.0, "pow_rec": 1.0}, beta_used=1.0)
        return Classification(item["expect"], ("x",), {"x": 1.0})

    return fake


@pytest.mark.parametrize("how", ["wrong-verdict", "raise"])
def test_forced_failure_counts_once_and_the_pass_goes_on(monkeypatch, how):
    inputs = wl.make_inputs("classify-gate", 3)
    monkeypatch.setattr(importlib.import_module("stablike.classify"), "classify",
                        _fake_classify(inputs["chains"], "make_chain(1.5)", how))
    records = wl.run_pass(wl.classify_ops(inputs))
    assert len(records) == 13
    failed = [r for r in records if not r["ok"]]
    assert [r["label"] for r in failed] == ["classify make_chain(1.5)"]
    result = bench_run.result_line(
        {name: 1.0 for name in bench_run.END_TO_END}, records, bench_run.END_TO_END)
    assert (result["attempted"], result["failed"], result["correct"]) == (13, 1, False)


def test_inputs_depend_only_on_the_seed():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    assert wl.make_inputs("mc-diagnose", 7) != wl.make_inputs("mc-diagnose", 8)
    assert len(wl.make_inputs("classify-gate", 7)["chains"]) == 13


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for key, table in (("end_to_end", bench_run.END_TO_END),
                       ("per_layer", bench_run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
