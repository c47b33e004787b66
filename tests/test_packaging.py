"""Packaging metadata and module exports point only at code and data that exist."""

import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_REQUIREMENT_NAME = re.compile(r"[A-Za-z0-9_.-]+")


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


def test_every_optional_dependency_is_imported():
    # an extra that no module or test imports only lengthens the install
    sources = "\n".join(path.read_text() for top in (SRC, ROOT / "tests") for path in top.rglob("*.py"))
    for extra, deps in _pyproject()["project"].get("optional-dependencies", {}).items():
        for dep in deps:
            name = _REQUIREMENT_NAME.match(dep).group(0)
            assert re.search(rf"^\s*(?:import|from)\s+{re.escape(name)}\b", sources, re.MULTILINE), (extra, dep)


def test_every_module_exports_only_names_it_defines():
    # a module without __all__ would escape the check, so each must list one
    import quadwrench

    modules = [info.name for info in pkgutil.iter_modules(quadwrench.__path__, "quadwrench.")]
    assert modules
    for name in modules:
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), name
        for attr in module.__all__:
            assert hasattr(module, attr), (name, attr)


def test_import_loads_no_undeclared_third_party_package():
    # A fresh interpreter, so nothing pytest or other tests imported counts.
    # Importing scipy.linalg alone would add about 0.3 s to every start-up.
    declared = {_REQUIREMENT_NAME.match(dep).group(0) for dep in _pyproject()["project"]["dependencies"]}
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import quadwrench\n"
        "for info in pkgutil.iter_modules(quadwrench.__path__, 'quadwrench.'):\n"
        "    importlib.import_module(info.name)\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                            check=True, timeout=120).stdout.split()
    assert "quadwrench" in loaded
    third_party = {name for name in loaded if name not in sys.stdlib_module_names} - {"quadwrench"}
    assert third_party <= declared, third_party - declared
