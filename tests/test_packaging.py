"""Runtime dependencies declared in pyproject.toml match the package imports."""

import ast
import importlib.util
from pathlib import Path
import re
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rank1spec"

pytestmark = pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11")


def _declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower().replace("-", "_") for d in deps}


def _imported():
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "rank1spec"}


def test_every_third_party_import_is_declared():
    assert _imported() <= _declared()


def test_every_declared_dependency_is_importable():
    missing = [name for name in sorted(_declared()) if importlib.util.find_spec(name) is None]
    assert not missing, f"declared but not importable: {missing}"
