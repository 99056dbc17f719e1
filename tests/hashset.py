"""One sha256 per benchmark workload over every output the solver gives.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/hashset.py

It imports the package from this checkout's ``src/`` and the input
generators from ``perfbench/workloads.py``, which it only reads, and runs
every operation of ``finite_batch`` and ``roundtrip`` at seeds 1-4 and of
``power_decay`` (its three windows, one seed).  Each line is a workload,
its seed and the hash of, per operation in order: every
``PerturbedSpectrum`` column, ``offset_sum``, ``tail_bound``,
``certified``, K', the window, ``loc.owned`` and ``loc.central``; an
operation that raises hashes its error's class and message.  Two trees
whose lines agree give bit-identical outputs on the declared workloads.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from rank1spec import errors  # noqa: E402

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


def workload_hash(name, seed):
    load = workloads.WORKLOADS[name](seed, None)
    h = hashlib.sha256()
    for label, op in load.ops:
        h.update(label.encode())
        try:
            _feed_output(h, op())
        except errors.Rank1Error as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def main():
    for name, seed in RUNS:
        print(f"{name} seed {seed} {workload_hash(name, seed)}", flush=True)


if __name__ == "__main__":
    main()
