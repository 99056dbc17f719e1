"""Runtime dependencies declared in pyproject.toml are the package imports,
numpy alone, and no solve or comparison needs scipy."""

import ast
import importlib.util
import itertools
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
    # and of three sides (base, this and the A/A control base'), in every order
    order = []

    def spy(side, op):
        return lambda: order.append(side) or op()

    three = [[(label, spy(side, op)) for label, op in side_ops] for side, side_ops in enumerate(ops + ops[:1])]
    best = abtree.best_times(three, 5)
    assert best.shape == (3, 2) and np.all(np.isfinite(best))
    assert {tuple(order[i : i + 3]) for i in range(0, len(order), 3)} == set(itertools.permutations(range(3)))


def test_abtree_times_the_workloads_it_is_given(capsys):
    # --workloads picks the declared workloads to time, both by default, so
    # that a roundtrip-only A/B runs no finite_batch operation
    import abtree

    assert abtree.WORKLOADS == ("finite_batch", "roundtrip")
    abtree.main([str(ROOT), "--repeats", "1", "--workloads", "roundtrip"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("roundtrip seed 1: this/base median ")
    assert "A/A base'/base " in lines[0] and "summed best this/base " in lines[0]
    with pytest.raises(SystemExit):
        abtree.main([str(ROOT), "--workloads", "power_decay"])
    assert "invalid choice" in capsys.readouterr().err


def test_abtree_interval_holds_the_median_and_resolves_only_a_clear_gain():
    # the percentile bootstrap of the median ratio over the operations, on
    # synthetic ratios, with no timing: the same draws each call, the sample
    # median inside, narrower with more operations, and an upper end above 1
    # when half the operations are slower
    import abtree

    assert abtree.median_interval([0.9] * 50) == (0.9, 0.9)
    rng = np.random.default_rng(7)
    ratios = 0.9 + 0.02 * rng.standard_normal(50)
    low, high = abtree.median_interval(ratios)
    assert low < np.median(ratios) < high < 1.0
    assert abtree.median_interval(ratios) == (low, high) != abtree.median_interval(ratios, seed=1)
    many_low, many_high = abtree.median_interval(0.9 + 0.02 * rng.standard_normal(800))
    assert many_high - many_low < 0.5 * (high - low)
    assert abtree.median_interval(ratios, level=0.5)[1] < high
    split = np.concatenate([ratios[:25], 1.1 + 0.02 * rng.standard_normal(25)])
    assert abtree.median_interval(split)[1] > 1.0
    # a median's: 15 of 50 operations three times as slow leave it alone
    assert abtree.median_interval([0.9] * 35 + [3.0] * 15) == (0.9, 0.9)
    # a ratio is resolved only when its interval clears the A/A control's
    assert abtree.resolved((0.95, 0.98), (0.99, 1.01)) and abtree.resolved((1.02, 1.03), (0.99, 1.01))
    assert not abtree.resolved((0.95, 0.995), (0.99, 1.01)) and not abtree.resolved((1.0, 1.0), (0.99, 1.01))


def _private_numpy(source):
    """The private numpy modules (numpy._*, numpy.core) a module's source
    imports, or reaches as an attribute of numpy imported as np or numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(f"numpy.{node.attr}")
    return sorted({name for name in found if re.match(r"numpy\.(_|core(\.|$))", name)})


def test_no_module_reaches_a_private_numpy_module():
    # pyproject.toml declares numpy >= 1.24, whose private modules move
    # between versions (numpy.core became numpy._core in 2.0): the C-level
    # count_nonzero under np.count_nonzero's wrapper is one such shortcut
    assert _private_numpy("from numpy._core.multiarray import count_nonzero") == [
        "numpy._core.multiarray",
        "numpy._core.multiarray.count_nonzero",
    ]
    reached = _private_numpy("import numpy.core\nx = np._core.multiarray.count_nonzero(m)")
    assert reached == ["numpy._core", "numpy.core"]
    assert _private_numpy("import numpy as np\nfrom numpy import errstate\nnp.add.reduce(x)") == []
    found = {path.name: _private_numpy(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(found) >= 10 and not any(found.values()), found
