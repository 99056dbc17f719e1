"""Runtime dependencies declared in pyproject.toml match the package imports,
and a solve loads only the ones it needs."""

import ast
import importlib.util
import os
from pathlib import Path
import re
import subprocess
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rank1spec"

needs_tomllib = pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11")


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


@needs_tomllib
def test_every_third_party_import_is_declared():
    assert _imported() <= _declared()


@needs_tomllib
def test_every_declared_dependency_is_importable():
    missing = [name for name in sorted(_declared()) if importlib.util.find_spec(name) is None]
    assert not missing, f"declared but not importable: {missing}"


# c_0 = -c_1 = 0.45: neither disk certifies, so both zeros are central and
# go to indices 0 and 1 through the assignment
NO_SCIPY_SOLVE = """
import sys
import rank1spec, rank1spec.cli
from rank1spec import direct, model, oracle
spec = model.validate_base(model.BaseSpectrum("Z", 0, (), model.AffineTail(1.0, 0.0), 1.0))
coeffs = model.PerturbationCoefficients(0, (1.0, 1.0), None, 0, (0.45, -0.45), None)
coeffs = model.validate_coefficients(coeffs, spec)
ps, loc = direct.solve_direct(spec, coeffs, direct.LocalizeOptions(window=8, n_trunc=20))
assert len(loc.central) == 2 and len(loc.owned[0]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
reference = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
assert oracle.compare_spectra(ps, reference, 1e-8)[0]
assert "scipy.optimize" in sys.modules
"""


def test_a_solve_loads_no_scipy():
    # scipy serves only oracle.compare_spectra, which imports it on first use;
    # in a fresh interpreter, since the tests have loaded scipy in this one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SOLVE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
