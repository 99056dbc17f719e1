"""One sha256 per benchmark workload over every output the solver gives.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/hashset.py

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
"""

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


def main():
    for name, seed in RUNS:
        print(f"{name} seed {seed} {workload_hash(name, seed)}", flush=True)
    for name, solve in _tail_solves():
        print(f"{name} {_hash_ops([(name, solve)], _feed_tail_output)}", flush=True)


if __name__ == "__main__":
    main()
