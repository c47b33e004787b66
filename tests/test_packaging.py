"""Packaging metadata points only at code and data that exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_script_targets_resolve_under_src():
    for name, target in _pyproject().get("project", {}).get("scripts", {}).items():
        module, _, attr = target.partition(":")
        spec = importlib.util.find_spec(module)
        assert spec is not None and Path(spec.origin).is_relative_to(SRC), (name, target)
        assert hasattr(importlib.import_module(module), attr), (name, target)


def test_package_data_globs_match_files():
    package_data = _pyproject().get("tool", {}).get("setuptools", {}).get("package-data", {})
    for package, globs in package_data.items():
        for pattern in globs:
            assert any(SRC.joinpath(*package.split(".")).glob(pattern)), (package, pattern)
