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
