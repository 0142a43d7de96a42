"""Config parsing, CSV/JSON artifacts and process exit codes."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
import yaml

import stablike
from stablike import ConfigError, DomainError, ProfileFn, cli, make_chain, mc
from stablike.cli import load_config, main, run, save_config
from stablike.stable import DensityTable

# the child process imports the same package as this one, cwd independent
SRC_DIR = os.path.dirname(os.path.dirname(stablike.__file__))


def _python(*args):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def _invoke(*args):
    return _python("-m", "stablike.cli", *args)


def test_load_valid_config(smoke_config_text):
    path, _ = smoke_config_text
    cfg = load_config(str(path))
    assert cfg.schema_version == 1
    assert cfg.thresholds.alphas == (0.5, 1.0, 1.5)
    assert cfg.mc is not None and cfg.mc.seed == 21


def test_config_errors_are_collected(smoke_config_text, tmp_path):
    path, _ = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    del doc["mc"]["seed"]
    doc["chain"]["alpha"]["values"] = [2.5]
    doc["scan"]["delta_ladder"] = [0.1, 0.5]  # must be decreasing
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    messages = "\n".join(exc.value.problems)
    assert "mc.seed" in messages
    assert "alpha" in messages
    assert "delta_ladder" in messages


def test_schema_version_enforced(smoke_config_text, tmp_path):
    path, _ = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["schema_version"] = 99
    bad = tmp_path / "v99.yaml"
    bad.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(bad))


def test_save_load_fixed_point(smoke_config_text, tmp_path):
    path, _ = smoke_config_text
    cfg = load_config(str(path))
    p1 = tmp_path / "rt1.yaml"
    p2 = tmp_path / "rt2.yaml"
    save_config(cfg, str(p1))
    save_config(load_config(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_thresholds_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("thresholds", "--config", str(path))
    assert proc.returncode == 0
    lines = (out / "thresholds.csv").read_text().splitlines()
    assert lines[0].startswith("# stablike") and "config_sha256=" in lines[0]
    assert lines[1] == "kind,alpha,beta,value,est_abs_error"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 3
    # middle row is the alpha = 1 root of r1
    assert rows[1][1] == "1.0"
    assert float(rows[1][3]) == 0.0


def test_thresholds_subcommand_runs_on_its_defaults(smoke_config_text, tmp_path):
    # kinds [r1, r2, t] on alphas [0.5, 1, 1.5] and betas [0.5]: r2 needs
    # beta < alpha, so r2 at alpha = 0.5 is skipped with one stdout line
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    del doc["thresholds"]
    cfg = tmp_path / "defaults.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = _invoke("thresholds", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "skipped r2 at alpha=0.5, beta=0.5: r2 requires beta < alpha, got beta=0.5, alpha=0.5",
        "wrote 8 threshold rows",
    ]
    rows = [line.split(",")[:3] for line in
            (out / "thresholds.csv").read_text().splitlines()[2:]]
    assert rows == [["r1", "0.5", ""], ["r1", "1.0", ""], ["r1", "1.5", ""],
                    ["r2", "1.0", "0.5"], ["r2", "1.5", "0.5"],
                    ["t", "0.5", "0.5"], ["t", "1.0", "0.5"], ["t", "1.5", "0.5"]]


def test_classify_subcommand_json_and_exit_zero(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("classify", "--config", str(path))
    assert proc.returncode == 0
    assert "Recurrent" in proc.stdout
    assert "margin" in proc.stdout
    doc = json.loads((out / "classification.json").read_text())
    assert doc["verdict"] == "Recurrent"
    assert doc["margins"]["log_rec"] > 0.0


def test_classify_inconclusive_exit_two(smoke_config_text, tmp_path):
    path, _ = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["chain"]["alpha"]["values"] = [1.0]
    cfg = tmp_path / "a1.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = _invoke("classify", "--config", str(cfg))
    assert proc.returncode == 2
    assert "Inconclusive" in proc.stdout


def test_classify_skips_betas_outside_the_threshold_domain(smoke_config_text, tmp_path):
    # beta = 1 is in scan.betas' range but not in the transience threshold's
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["scan"]["betas"] = [1.0]
    cfg = tmp_path / "beta1.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["classify", "--config", str(cfg)]) == 0
    doc = json.loads((out / "classification.json").read_text())
    assert doc["verdict"] != "Inconclusive"
    assert any(c.startswith("bnd_trans: not scanned") for c in doc["caveats"])


def test_drift_scan_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("drift-scan", "--config", str(path))
    assert proc.returncode == 0
    lines = (out / "drift_scan.csv").read_text().splitlines()
    assert lines[1] == "x,delta,d,raw_integral,normalized_lhs,quadrature_error"
    assert len(lines) > 10


# the CSV below its comment line (which hashes the config, output directory
# included), pinned for the smoke config and for a shifted first-moment scan
# with d levels
@pytest.mark.parametrize("changes, digest", [
    ({}, "113fb6fe0c79b18eeb632b2ae864732b6efeb4b660af1976a43c8974731ed73c"),
    ({"scan": {"condition": "mom_erg_b", "betas": [0.5]},
      "chain": {"delta": {"kind": "two_valued", "values": [0.5, -0.5]}}},
     "9df19329d78104f82f0c34d984636efb92cd1240a39312df54a54458b3786aab"),
], ids=["smoke", "shifted-mom-erg-b"])
def test_drift_scan_csv_is_pinned(smoke_config_text, tmp_path, changes, digest):
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    for section, values in changes.items():
        doc[section].update(values)
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["drift-scan", "--config", str(cfg)]) == 0
    comment, body = (out / "drift_scan.csv").read_bytes().split(b"\n", 1)
    assert comment.startswith(b"# stablike ")
    assert hashlib.sha256(body).hexdigest() == digest


@pytest.mark.parametrize("condition, alpha, betas, beta", [
    ("bnd_trans", 1.5, [1.0, 0.3], 0.3),
    ("pow_rec", 0.8, [1.0, 0.9, 0.5], 0.5),
    ("pow_rec", 0.3, None, None),  # the default 0.5 is not below alpha
    ("bnd_trans", 1.5, [1.0], None),
    ("pow_rec", 0.8, [1.0], None),
])
def test_drift_scan_cuts_beta_to_the_threshold_domain(smoke_config_text, tmp_path, monkeypatch,
                                                      capsys, condition, alpha, betas, beta):
    # the scan takes the first beta of classify's cut ladder; with none left,
    # a config problem is reported before any quadrature runs
    path, _ = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["chain"]["alpha"]["values"] = [alpha]
    doc["scan"].update(condition=condition, betas=betas)
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    scanned = []
    monkeypatch.setattr(cli, "tail_scan", lambda spec, **kw: scanned.append(kw["beta"]) or
                        stablike.tail_scan(spec, **kw))
    code = main(["drift-scan", "--config", str(cfg)])
    if beta is None:
        assert code == 1 and scanned == []
        assert capsys.readouterr().err.startswith(
            f"config error: scan.betas: no beta of {betas or [0.5]} lies in the domain of "
            f"{condition}'s threshold (beta < smallest limiting alpha")
    else:
        assert code == 0 and scanned == [beta]


def test_simulate_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("simulate", "--config", str(path))
    assert proc.returncode == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "step,state"
    assert len(lines) == 2 + 2000


# the trajectory CSV below its comment line, pinned for the smoke config and
# for a 9000-step path (past two 4096-step blocks) that drifts away from 0
@pytest.mark.parametrize("changes, digest", [
    ({}, "ba047c3c48d35aa53fd5b0b66a558757e64923a2bf9df2d857a875840b66ec1c"),
    ({"mc": {"n_steps": 9000},
      "chain": {"delta": {"kind": "two_valued", "values": [-0.5, 0.5]}}},
     "fa85d303599e16140d912c610edbff5e08c560924872f065564c3ef9063045ce"),
], ids=["smoke", "outward-drift-9000"])
def test_simulate_csv_is_pinned(smoke_config_text, tmp_path, changes, digest):
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    for section, values in changes.items():
        doc[section].update(values)
    cfg = tmp_path / "simulate.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(cfg)]) == 0
    comment, body = (out / "trajectory.csv").read_bytes().split(b"\n", 1)
    assert comment.startswith(b"# stablike ")
    assert hashlib.sha256(body).hexdigest() == digest


def test_simulate_subcommand_freezes_overflow(smoke_config_text, tmp_path):
    # index 0.01 overflows doubles within a few hundred steps; the path
    # must freeze at +-1e300 instead of crashing or writing inf/nan
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["chain"]["alpha"] = {"kind": "periodic", "period": 1.0, "values": [0.01, 0.03]}
    cfg = tmp_path / "overflow.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    proc = _invoke("simulate", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "trajectory.csv").read_text().splitlines()
    states = [float(line.split(",")[1]) for line in lines[2:]]
    assert len(states) == 2000
    assert all(math.isfinite(s) for s in states)
    assert 1e300 in map(abs, states)


def test_mc_diagnose_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("mc-diagnose", "--config", str(path))
    assert proc.returncode == 0
    stats = (out / "mc_stats.csv").read_text()
    assert "return_fraction" in stats
    tv = (out / "tv_convergence.csv").read_text().splitlines()
    assert tv[1] == "time_point,tv"
    assert len(tv) == 2 + 2


# runs in a fresh interpreter: none of the five subcommands, classify,
# hyp2f1's Euler route or a density table build loads a scipy module
_COLD_START = """
import json, sys
import stablike, stablike.cli
from stablike.specfun import hyp2f1
from stablike.stable import DensityTable
cfg, out = sys.argv[1], sys.argv[2]
codes = [stablike.cli.main([sub, "--config", cfg])
         for sub in ("thresholds", "classify", "simulate", "mc-diagnose", "drift-scan")]
verdict = stablike.classify(stablike.make_chain(1.5)).verdict
euler = hyp2f1(0.3, 0.7, 1.9, 0.8)
table = DensityTable(1.5)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
with open(out, "w") as fh:
    json.dump({"codes": codes, "verdict": verdict, "loaded": loaded,
               "euler": [euler.value, euler.est_abs_error],
               "rule": [a.tolist() for a in table.rule(100.0)],
               "table_error": table.table_error}, fh)
"""


def test_cold_start_loads_no_scipy(smoke_config_text, tmp_path):
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["thresholds"]["kinds"] = ["r1", "r2", "t"]
    doc["mc"].update(n_paths=64, n_steps=1000)
    cfg = tmp_path / "cold.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    result = tmp_path / "cold.json"
    proc = _python("-c", _COLD_START, str(cfg), str(result))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["verdict"] == "Recurrent"
    assert got["loaded"] == []
    assert {p.name for p in out.iterdir()} == {
        "thresholds.csv", "classification.json", "trajectory.csv", "mc_stats.csv",
        "tv_convergence.csv", "drift_scan.csv"}
    euler = stablike.hyp2f1(0.3, 0.7, 1.9, 0.8)
    assert got["euler"] == [euler.value, euler.est_abs_error]
    table = DensityTable(1.5)
    assert got["rule"] == [a.tolist() for a in table.rule(100.0)]
    assert got["table_error"] == table.table_error


def test_outputs_have_no_numpy_reprs(smoke_config_text):
    path, out = smoke_config_text
    for sub in ("thresholds", "classify", "drift-scan", "simulate", "mc-diagnose"):
        assert _invoke(sub, "--config", str(path)).returncode == 0
    for artifact in out.iterdir():
        assert "np.float64" not in artifact.read_text()


def test_byte_identical_outputs_given_equal_seeds(smoke_config_text):
    path, out = smoke_config_text
    _invoke("mc-diagnose", "--config", str(path))
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    _invoke("mc-diagnose", "--config", str(path))
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_unknown_subcommand_exits_one(smoke_config_text):
    path, _ = smoke_config_text
    proc = _invoke("frobnicate", "--config", str(path))
    assert proc.returncode == 1
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_missing_config_exits_one(tmp_path):
    proc = _invoke("thresholds", "--config", str(tmp_path / "nope.yaml"))
    assert proc.returncode == 1
    assert proc.stderr != ""


def test_run_api_matches_process_behavior(smoke_config_text):
    path, _ = smoke_config_text
    cfg = load_config(str(path))
    assert run("thresholds", cfg) == 0


# mc_stats.csv of the smoke config after its provenance line, written by
# the release that stepped return_stats and occupation as two ensembles
SMOKE_MC_STATS_BODY = (
    b"statistic,value\r\n"
    b"return_fraction,0.67\r\n"
    b"mean_return_time,494.76119402985074\r\n"
    b"ball_occupation_fraction,0.03466\r\n"
    b"compact_occupation_fraction,0.0175\r\n"
    b"compact_return_fraction,0.63\r\n"
    b"n_paths,100.0\r\n"
    b"n_steps,2000.0\r\n"
)


def test_mc_diagnose_one_interval_sweep(smoke_config_text, monkeypatch):
    # the ball, the compact set and TV start a share one sweep; start b is the other
    path, out = smoke_config_text
    calls = []
    ensemble = mc._ensemble

    def counted(*args):
        calls.append(args)
        return ensemble(*args)

    monkeypatch.setattr(mc, "_ensemble", counted)
    assert run("mc-diagnose", load_config(str(path))) == 0
    assert len(calls) == 2
    body = (out / "mc_stats.csv").read_bytes().split(b"\n", 1)[1]
    assert body == SMOKE_MC_STATS_BODY


@pytest.mark.parametrize(
    "change, message",
    [({"n_steps": 500}, "n_steps >= 1000"), ({"n_paths": 1}, "n_paths must be >= 2")],
    ids=["n_steps", "n_paths"],
)
def test_mc_diagnose_checks_before_any_draw(smoke_config_text, tmp_path, monkeypatch,
                                            capsys, change, message):
    path, _ = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["mc"].update(change)
    bad = tmp_path / "bad_mc.yaml"
    bad.write_text(yaml.safe_dump(doc))

    def no_draws(*args):
        raise AssertionError("stepped an ensemble before the config check")

    monkeypatch.setattr(mc, "_ensemble", no_draws)
    with pytest.raises(DomainError, match=message):
        run("mc-diagnose", load_config(str(bad)))
    assert main(["mc-diagnose", "--config", str(bad)]) == 1
    assert message in capsys.readouterr().err


def test_mc_diagnose_failing_block_exits_one(smoke_config_text, monkeypatch, capsys):
    # the first alpha evaluation raises: the first block fails and stops its worker, and
    # nothing is written
    path, out = smoke_config_text
    calls = itertools.count()

    def alpha(x):
        if next(calls) == 0:
            raise DomainError("alpha profile failed")
        return 1.5

    config = dataclasses.replace(
        load_config(str(path)), chain=make_chain(ProfileFn.custom(alpha), unchecked=True))
    monkeypatch.setattr(cli, "load_config", lambda _: config)
    assert main(["mc-diagnose", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: alpha profile failed\n"
    assert list(out.iterdir()) == []


def test_csv_false_writes_no_csv(smoke_config_text, tmp_path):
    path, out = smoke_config_text
    doc = yaml.safe_load(path.read_text())
    doc["output"]["csv"] = False
    cfg = tmp_path / "no_csv.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    for sub in ("thresholds", "drift-scan", "simulate", "mc-diagnose"):
        assert main([sub, "--config", str(cfg)]) == 0
    assert list(out.iterdir()) == []


def _smoke_doc(smoke_config_text):
    # the smoke config with a fixed output directory, so its hash is fixed
    doc = yaml.safe_load(smoke_config_text[0].read_text())
    doc["output"]["directory"] = "out"
    return doc


def _load_doc(doc, tmp_path):
    path = tmp_path / "contract.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_config(str(path))


# config_hash() is in the provenance line of every output file, so the
# canonical form of a config may not change: these digests are pinned
@pytest.mark.parametrize("omitted, digest", [
    (None, "54c8c8014819"),
    ("scan", "f86db2943dfe"),
    ("thresholds", "d20d731bbd6e"),
    ("mc", "f22a4037101f"),
    ("output", "a50f255fcf13"),
])
def test_config_hash_is_pinned(smoke_config_text, tmp_path, omitted, digest):
    doc = _smoke_doc(smoke_config_text)
    doc.pop(omitted, None)
    assert _load_doc(doc, tmp_path).config_hash() == digest


_MISSING = "<key removed>"


# one bad value per field and the problem list load_config must report
FIELD_PROBLEMS = [
    # each profile mapping leads with the key it gets wrong, so the test ids stay distinct
    ("chain", _MISSING, ["chain.alpha: required field missing"]),
    ("chain.alpha", {"values": [2.5], "kind": "constant"},
     ["chain: alpha profile value 2.5 outside (0, 2)"]),
    ("chain.alpha", {"kind": "constant", "values": [1.5, 1.2]},
     ["chain.alpha: constant profile takes 1 value(s), got 2"]),
    ("chain.alpha", {"period": math.inf, "kind": "periodic", "values": [1.5, 1.2]},
     ["chain.alpha: periodic profile needs a finite period > 0, got inf"]),
    ("chain.alpha", {"breakpoints": [math.nan], "kind": "piecewise", "values": [1.5, 1.2]},
     ["chain.alpha: piecewise breakpoints must be finite and strictly increasing"]),
    ("chain.gamma", {"kind": "constant", "values": [math.inf]},
     ["chain: gamma profile value inf must be finite and > 0"]),
    ("chain.gamma", {"period": True, "kind": "periodic", "values": [1.0, 2.0]},
     ["chain.gamma: period: wrong type bool"]),
    ("chain.gamma", {"breakpoints": [True], "kind": "piecewise", "values": [1.0, 2.0]},
     ["chain.gamma: breakpoints: expected a non-empty list of numbers"]),
    ("chain.delta", {"breakpoints": ["a"], "kind": "piecewise", "values": [0.0, 1.0]},
     ["chain.delta: breakpoints: expected a non-empty list of numbers"]),
    ("scan", [1], ["scan: expected a mapping"]),
    ("scan.x_decades", [5.0, 2.0], ["scan.x_decades: expected [lo, hi] with lo < hi"]),
    ("scan.x_decades", [2.0, 4.0], ["scan.x_decades: must span at least 3 decades"]),
    ("scan.x_decades", [2.0, 400.0], ["scan.x_decades: bounds must lie in [-307, 308]"]),
    ("scan.x_per_side", "a", ["scan.x_per_side: wrong type str"]),
    ("scan.x_per_side", 0, ["scan.x_per_side: must be an integer >= 2"]),
    ("scan.delta_ladder", [0.1, 0.5],
     ["scan.delta_ladder: expected strictly decreasing values in (0, 1)"]),
    # one level leaves tail_scan no delta -> 0 gap
    ("scan.delta_ladder", [0.5], ["scan.delta_ladder: expected at least two levels"]),
    ("scan.d_ladder", "x", ["scan.d_ladder: expected a non-empty list of numbers"]),
    ("scan.d_ladder", [0.001, 0.1], ["scan.d_ladder: expected strictly decreasing values"]),
    ("scan.betas", [1.5], ["scan.betas: values must lie in (0, 1]"]),
    ("scan.condition", "nope", ["scan.condition: 'nope' not one of ('log_rec', 'pow_rec', "
                                "'log_erg', 'pow_erg', 'mom_rec', 'mom_erg', 'mom_erg_b', "
                                "'bnd_trans', 'mom_trans')"]),
    # a list or a mapping is no condition name (and no key of CONDITIONS)
    ("scan.condition", ["log_rec"], ["scan.condition: ['log_rec'] not one of ('log_rec', "
                                     "'pow_rec', 'log_erg', 'pow_erg', 'mom_rec', "
                                     "'mom_erg', 'mom_erg_b', 'bnd_trans', 'mom_trans')"]),
    ("scan.condition", {"log_rec": 1}, ["scan.condition: {'log_rec': 1} not one of "
                                        "('log_rec', 'pow_rec', 'log_erg', 'pow_erg', "
                                        "'mom_rec', 'mom_erg', 'mom_erg_b', 'bnd_trans', "
                                        "'mom_trans')"]),
    ("thresholds.kinds", ["r9"], ["thresholds.kinds: expected a subset of [r1, r2, t]"]),
    ("thresholds.alphas", [], ["thresholds.alphas: expected a non-empty list of numbers"]),
    ("thresholds.alphas", [0.5, 2.0], ["thresholds.alphas: values must lie in (0, 2)"]),
    ("thresholds.betas", "x", ["thresholds.betas: expected a non-empty list of numbers"]),
    ("thresholds.betas", [0.0], ["thresholds.betas: values must lie in (0, 1]"]),
    ("mc.seed", _MISSING, ["mc.seed: required field missing"]),
    ("mc.n_paths", 0, ["mc.n_paths: must be a positive integer"]),
    ("mc.n_steps", 1.5, ["mc.n_steps: wrong type float"]),
    ("mc.x0", "a", ["mc.x0: wrong type str"]),
    ("mc.x0", 10 ** 400, ["mc.x0: int too large to convert to float"]),
    ("mc.x0", math.nan, ["mc.x0: must be finite"]),
    ("mc.x0", math.inf, ["mc.x0: must be finite"]),
    ("mc.x0_b", True, ["mc.x0_b: wrong type bool"]),
    ("mc.x0_b", -math.inf, ["mc.x0_b: must be finite"]),
    ("mc.radius", [1], ["mc.radius: wrong type list"]),
    ("mc.radius", 0, ["mc.radius: must be > 0"]),
    ("mc.radius", math.nan, ["mc.radius: must be > 0"]),
    ("mc.compact", [1.0], ["mc.compact: expected [lo, hi] with lo < hi"]),
    ("mc.compact", [5.0, -5.0], ["mc.compact: expected [lo, hi] with lo < hi"]),
    ("mc.time_points", [5, 5], ["mc.time_points: expected strictly increasing positive integers"]),
    ("mc.time_points", [True, 2], ["mc.time_points: wrong type bool"]),
    ("mc.bin_width", 0, ["mc.bin_width: must be > 0"]),
    ("mc.bin_width", math.inf, ["mc.bin_width: must be finite"]),
    ("mc.bin_width", 1e-300, ["mc.bin_width: must be >= 0.001 (at most 10^6 bins)"]),
    ("mc.tries", 3, ["mc: unknown key 'tries'"]),
    ("output.directory", 3, ["output.directory: expected a string"]),
    ("output.json", "yes", ["output.json: expected a boolean"]),
    ("output.csv", 1, ["output.csv: expected a boolean"]),
]


def test_an_infinite_radius_is_the_whole_line(smoke_config_text, tmp_path):
    doc = _smoke_doc(smoke_config_text)
    doc["mc"]["radius"] = math.inf
    assert _load_doc(doc, tmp_path).mc.radius == math.inf


@pytest.mark.parametrize("key, value, problems", FIELD_PROBLEMS,
                         ids=[f"{key}={value!r:.16}" for key, value, _ in FIELD_PROBLEMS])
def test_config_problem_per_field(smoke_config_text, tmp_path, key, value, problems):
    doc = _smoke_doc(smoke_config_text)
    *sections, last = key.split(".")
    node = doc
    for name in sections:
        node = node[name]
    if value == _MISSING:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(ConfigError) as exc:
        _load_doc(doc, tmp_path)
    assert sorted(exc.value.problems) == problems
