"""Shared fixtures for the stablike test suite."""

import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from stablike import ChainSpec, ProfileFn, SasJump, make_chain

# property tests replay the same examples on every run and set only their
# own max_examples
settings.register_profile("stablike", derandomize=True, deadline=None)
settings.load_profile("stablike")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the one-line-per-criterion acceptance report even when the
    # tests pass and their stdout stays captured
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _no_child_outlives_a_test():
    # every process a test forks or starts (a Monte Carlo worker, a CLI run) is
    # reaped before the test ends
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    # fixed stream so random-grid tests are reproducible
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def sas15():
    return make_chain(1.5)


@pytest.fixture(scope="session")
def ergodic_spec():
    # two-sided pull toward the origin with index above 1 everywhere
    return ChainSpec(
        alpha_profile=ProfileFn.two_valued(1.5, 1.8),
        family=SasJump(
            gamma_profile=ProfileFn.constant(1.0),
            delta_profile=ProfileFn.two_valued(0.5, -0.5),
        ),
    )


@pytest.fixture
def smoke_config_text(tmp_path):
    """Small but valid YAML config; returns (path, output_dir)."""
    out = tmp_path / "out"
    out.mkdir()
    text = f"""\
schema_version: 1
chain:
  alpha:
    kind: constant
    values: [1.5]
scan:
  x_decades: [2.0, 5.0]
  x_per_side: 6
  condition: log_rec
thresholds:
  kinds: [r1]
  alphas: [0.5, 1.0, 1.5]
  betas: [0.5]
mc:
  seed: 21
  n_paths: 100
  n_steps: 2000
  x0: 50.0
  x0_b: -50.0
  radius: 10.0
  compact: [-5.0, 5.0]
  time_points: [50, 200]
  bin_width: 0.5
output:
  directory: {out}
  json: true
  csv: true
"""
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path, out
