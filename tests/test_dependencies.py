"""The runtime needs numpy and PyYAML only; scipy is a test reference."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_package_source_imports_no_scipy():
    sources = sorted((ROOT / "src" / "stablike").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in mods), path.name


def test_only_chain_reads_the_jump_family():
    # ChainSpec.profiles is the one way from a chain to its (alpha, gamma,
    # delta): no other module reads spec.family or its profile fields
    sources = sorted((ROOT / "src" / "stablike").glob("*.py"))
    assert sources
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sources if path.name != "chain.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("family", "gamma_profile", "delta_profile")]
    assert not reads
