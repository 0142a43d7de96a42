"""Config parsing, CSV/JSON artifacts and process exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest
import yaml

import stablike
from stablike import ConfigError, DomainError, mc
from stablike.cli import load_config, main, run, save_config

# the child process imports the same package as this one, cwd independent
SRC_DIR = os.path.dirname(os.path.dirname(stablike.__file__))


def _invoke(*args):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "stablike.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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


def test_drift_scan_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("drift-scan", "--config", str(path))
    assert proc.returncode == 0
    lines = (out / "drift_scan.csv").read_text().splitlines()
    assert lines[1] == "x,delta,d,raw_integral,normalized_lhs,quadrature_error"
    assert len(lines) > 10


def test_simulate_subcommand_csv(smoke_config_text):
    path, out = smoke_config_text
    proc = _invoke("simulate", "--config", str(path))
    assert proc.returncode == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "step,state"
    assert len(lines) == 2 + 2000


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
    # the ball and the compact set share one sweep; the TV proxy runs two
    path, out = smoke_config_text
    calls = []
    ensemble = mc._ensemble

    def counted(*args):
        calls.append(args)
        return ensemble(*args)

    monkeypatch.setattr(mc, "_ensemble", counted)
    assert run("mc-diagnose", load_config(str(path))) == 0
    assert len(calls) == 3
    body = (out / "mc_stats.csv").read_bytes().split(b"\n", 1)[1]
    assert body == SMOKE_MC_STATS_BODY


@pytest.mark.parametrize(
    "change, message",
    [({"n_steps": 500}, "n_steps >= 1000"), ({"radius": 0.0}, "radius_a must be > 0")],
    ids=["n_steps", "radius"],
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
