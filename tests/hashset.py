"""One sha256 per benchmark workload over every output the solver gives.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/hashset.py
    python3 tests/hashset.py --against BASE_DIR

It imports the package from this checkout's ``src/`` and the input
generators from ``perfbench/workloads.py``, which it only reads, and runs
every operation of ``finite_batch`` and ``roundtrip`` at seeds 1-4 and of
``power_decay`` (its three windows, one seed), then two solves whose F
has a bounded tail: ``escalating``, the round trip of (0.5, 0.5, 2, 2)
with a slow b tail, whose first cut (n_trunc 20) fails and whose second
(40) certifies, and ``ntail``, a power tail over N.  Each line is a
workload, its seed and the hash of, per operation in order: every
``PerturbedSpectrum`` column, ``offset_sum``, ``tail_bound``,
``certified``, K', the window, ``loc.owned`` and ``loc.central`` (and for
the tail solves the n_trunc that certified); an operation that raises
hashes its error's class and message.  Two trees whose lines agree give
bit-identical outputs on the declared workloads and on the tail path.

The last line, ``certificates``, hashes the verdicts of every ``_rouche``
(``certified``), ``_rouche_rect`` (its bool), ``_arc_test`` (``passed``
and ``hopeless``) and ``_discs`` (``certified``) call over 1200 solves of ``conftest.random_base`` and
``random_coeffs`` instances drawn from ``np.random.default_rng(2026)``,
about half of them with a power tail, at window 20 and n_trunc 30, then
over ``roundtrip`` at seeds 1-4: no arc of the random solves fails, and
the round trips' double and triple points form ``hopeless``.

With ``--against BASE_DIR`` (the root of another checkout) it loads both
trees into one process (``abtree.load_tree``), runs each operation of
``finite_batch`` and ``roundtrip`` at seeds 1-4 on both, and prints per
workload and seed whether the columns ``index``, ``paired_index``,
``mult`` and ``origin`` agree on every operation, and the largest change
of ``mu`` and of ``paired_mu`` (where both have as many rows) in ulps of the
base's modulus and relative to it: for a change that moves outputs in
the last bits on purpose, where the hashes cannot tell a bit from a
row.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from rank1spec import direct, errors, inverse, model  # noqa: E402

RUNS = [("finite_batch", s) for s in (1, 2, 3, 4)] + [("roundtrip", s) for s in (1, 2, 3, 4)]
RUNS.append(("power_decay", 1))


def _feed(h, x):
    """Add one value to the hash with its type, shape and bytes."""
    a = np.asarray(x)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes() if a.dtype != object else repr(a.tolist()).encode())


def _feed_output(h, output):
    ps, loc = output
    for name in ("mu", "mult", "paired_index", "origin", "index", "paired_mu"):
        _feed(h, getattr(ps, name))
    for x in (ps.offset_sum, ps.tail_bound, ps.certified, loc.k_prime, loc.window, *loc.owned):
        _feed(h, x)
    for z, order in loc.central:
        _feed(h, complex(z))
        _feed(h, order)


def _hash_ops(ops, feed=_feed_output):
    h = hashlib.sha256()
    for label, op in ops:
        h.update(label.encode())
        try:
            feed(h, op())
        except errors.Rank1Error as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def workload_hash(name, seed):
    return _hash_ops(workloads.WORKLOADS[name](seed, None).ops)


def _tail_solves():
    """(name, solve) of the two tail-bearing solves."""
    zspec = model.validate_base(model.BaseSpectrum("Z", 0, (), model.AffineTail(1.0, 0.0), 1.0))
    target = model.TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j, 2 + 0j, 2 + 0j))
    escalating, _ = inverse.solve_inverse(zspec, target)
    escalating = dataclasses.replace(escalating, b_tail=model.PowerTail(0.55, 1e-3, 0.0))
    nspec = model.validate_base(model.BaseSpectrum("N", 0, (), model.AffineTail(1.0, 0.0), 1.0))
    tail = model.PowerTail(beta=1.5, scale=0.5, phase=0.2)
    ntail = model.PerturbationCoefficients(1, (1.0,) * 5, tail, 1, (0.1, 0.2j, 0.3, 0.0, -0.25), tail)
    for name, spec, coeffs, opts in (
        ("escalating", zspec, escalating, direct.LocalizeOptions(window=12, n_trunc=1)),
        ("ntail", nspec, ntail, direct.LocalizeOptions(window=8, n_trunc=20)),
    ):
        coeffs = model.validate_coefficients(coeffs, spec)
        yield name, lambda spec=spec, coeffs=coeffs, opts=opts: direct.solve_direct(spec, coeffs, opts)


def _feed_tail_output(h, output):
    _feed_output(h, output)
    _feed(h, output[1].cf.n_trunc)


def certificates_hash():
    """One sha256 over the verdicts of every certificate check of the solves."""
    import conftest

    h = hashlib.sha256()
    checks = {
        "_rouche": lambda out: out[1],
        "_rouche_rect": lambda out: out[1],
        "_arc_test": lambda out: out[1:],
        "_discs": lambda out: out[1],
    }
    saved = {name: getattr(direct, name) for name in checks}

    def spy(name, check, verdict):
        def call(*args):
            out = check(*args)
            h.update(name.encode())
            _feed(h, verdict(out))
            return out

        return call

    rng = np.random.default_rng(2026)
    opts = direct.LocalizeOptions(window=20, n_trunc=30)
    try:
        for name, verdict in checks.items():
            setattr(direct, name, spy(name, saved[name], verdict))
        for _ in range(1200):
            spec = conftest.random_base(rng)
            coeffs = conftest.random_coeffs(rng, spec)
            try:
                direct.solve_direct(spec, model.validate_coefficients(coeffs, spec), opts)
            except errors.Rank1Error as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
        for seed in (1, 2, 3, 4):
            _hash_ops(workloads.WORKLOADS["roundtrip"](seed, None).ops)
    finally:
        for name, check in saved.items():
            setattr(direct, name, check)
    return h.hexdigest()


PAIRED = ("index", "paired_index", "mult", "origin")


def compare(base_dir):
    """Lines of the --against comparison, one per workload and seed."""
    import abtree

    trees = [abtree.load_tree(os.path.abspath(base_dir))[1], abtree.load_tree(ROOT)[1]]
    for name, seed in (run for run in RUNS if run[0] != "power_decay"):
        same, change = dict.fromkeys(PAIRED, True), {"mu": [0.0, 0.0], "paired_mu": [0.0, 0.0]}
        base_ops, ops = (w.WORKLOADS[name](seed, None).ops for w in trees)
        for (_, base_op), (_, op) in zip(base_ops, ops):
            base_ps, ps = base_op()[0], op()[0]
            for col in PAIRED:
                same[col] &= np.array_equal(getattr(base_ps, col), getattr(ps, col))
            for col, worst in change.items():
                old, new = getattr(base_ps, col), getattr(ps, col)
                if old.shape == new.shape:
                    moved, size = np.abs(new - old), np.abs(old)
                    worst[0] = max(worst[0], float(np.max(moved / np.spacing(size))))
                    worst[1] = max(worst[1], float(np.max(moved / np.maximum(size, np.finfo(float).tiny))))
        agree = ", ".join(f"{col} {'identical' if ok else 'DIFFERS'}" for col, ok in same.items())
        moved = "; ".join(f"largest {col} change {u:.3g} ulps ({r:.3g} relative)" for col, (u, r) in change.items())
        print(f"{name} seed {seed}: {agree}; {moved}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="BASE_DIR", help="compare the outputs with the checkout at BASE_DIR")
    args = parser.parse_args(argv)
    if args.against:
        compare(args.against)
        return
    for name, seed in RUNS:
        print(f"{name} seed {seed} {workload_hash(name, seed)}", flush=True)
    for name, solve in _tail_solves():
        print(f"{name} {_hash_ops([(name, solve)], _feed_tail_output)}", flush=True)
    print(f"certificates {certificates_hash()}", flush=True)


if __name__ == "__main__":
    main()
