"""Runtime dependencies declared in pyproject.toml are the package imports,
numpy alone, and no solve or comparison needs scipy."""

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

import numpy as np
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
    # and nothing else: a declaration the package no longer imports fails too
    assert _imported() == _declared()


@needs_tomllib
def test_every_declared_dependency_is_importable():
    missing = [name for name in sorted(_declared()) if importlib.util.find_spec(name) is None]
    assert not missing, f"declared but not importable: {missing}"


# with scipy blocked (an import of it raises ImportError): c_0 = -c_1 = 0.45
# leaves both disks uncertified, so both zeros are central and go to indices
# 0 and 1 through the assignment; the oracle's comparison and the CLI's
# round trip on a double point match their spectra by the same assignment
NO_SCIPY_SOLVE = """
import os, sys
sys.modules["scipy"] = None
import rank1spec, rank1spec.cli
from rank1spec import direct, model, oracle
spec = model.validate_base(model.BaseSpectrum("Z", 0, (), model.AffineTail(1.0, 0.0), 1.0))
coeffs = model.PerturbationCoefficients(0, (1.0, 1.0), None, 0, (0.45, -0.45), None)
coeffs = model.validate_coefficients(coeffs, spec)
ps, loc = direct.solve_direct(spec, coeffs, direct.LocalizeOptions(window=8, n_trunc=20))
assert len(loc.central) == 2 and len(loc.owned[0]) == 0
reference = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
assert oracle.compare_spectra(ps, reference, 1e-8)[0]
spec_path, target_path = (os.path.join(sys.argv[1], name) for name in ("spec.json", "target.json"))
model.dump_json(model.base_to_json(spec), spec_path)
model.dump_json({"nu_head": {"offset": 0, "values": [[0.5, 0.0], [0.5, 0.0]]}, "tail": "equals_lambda"}, target_path)
argv = ["roundtrip", "--spec", spec_path, "--target", target_path, "--trunc", "20", "--trunc-window", "8"]
assert rank1spec.cli.main(argv) == 0
loaded = sorted(name for name, mod in sys.modules.items() if name.split(".")[0] == "scipy" and mod)
assert not loaded, loaded
"""


def test_a_solve_loads_no_scipy(tmp_path):
    # in a fresh interpreter, since the tests have loaded scipy in this one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SOLVE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr


def test_abtree_loads_one_checkout_twice_as_two_packages_sharing_no_module():
    # tests/abtree.py's A/B imports the base and this checkout side by side:
    # each load is a package and workloads of its own, which leave
    # sys.modules as they found it
    import types

    import abtree

    before = dict(sys.modules)
    loads = [abtree.load_tree(str(ROOT)) for _ in range(2)]
    assert sys.modules == before

    def modules(package, workloads):
        found = [package, workloads] + [m for m in vars(package).values() if isinstance(m, types.ModuleType)]
        return {id(m) for m in found if m.__name__ == "workloads" or m.__name__.split(".")[0] == "rank1spec"}

    first, second = (modules(*load) for load in loads)
    assert len(first) == len(second) == 9 and not first & second  # the package, 7 modules, workloads
    for package, workloads in loads:
        assert workloads.direct is package.direct and workloads.model is package.model
    assert loads[0][0].model.BaseSpectrum is not loads[1][0].model.BaseSpectrum
    # both sides run, and best_times keeps one best time per side and operation
    ops = [workloads.WORKLOADS["finite_batch"](1, None).ops[:2] for _, workloads in loads]
    best = abtree.best_times(ops, 2)
    assert best.shape == (2, 2) and np.all(best > 0.0) and np.all(np.isfinite(best))


def test_abtree_times_the_workloads_it_is_given(capsys):
    # --workloads picks the declared workloads to time, both by default, so
    # that a roundtrip-only A/B runs no finite_batch operation
    import abtree

    assert abtree.WORKLOADS == ("finite_batch", "roundtrip")
    abtree.main([str(ROOT), "--repeats", "1", "--workloads", "roundtrip"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roundtrip seed 1: this/base median ")
    with pytest.raises(SystemExit):
        abtree.main([str(ROOT), "--workloads", "power_decay"])
    assert "invalid choice" in capsys.readouterr().err
