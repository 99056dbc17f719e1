"""Interleaved in-process A/B of two checkouts on the declared workloads.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/abtree.py BASE_DIR [--repeats 15] [--seeds 1 2] [--workloads roundtrip]

BASE_DIR is the root of another checkout, the base (``git archive`` of the
parent commit unpacked somewhere, say).  Both checkouts' ``src/rank1spec``
and ``perfbench/workloads.py`` are imported into one process as two
separate sets of modules (``load_tree``).  Each operation of the
workloads named by ``--workloads`` (``finite_batch`` and ``roundtrip`` by
default) runs on the base and on this checkout in turn, the order swapped
from one operation and one round to the next, and each side keeps its
best time of ``--repeats`` rounds per operation.  Per
workload and seed it prints the median over the operations of the ratio
this / base with the ratio's quartiles, and each side's median best time.
One process and alternation cancel most of the host's drift, which
separate ``perfbench/run.py`` runs do not.  It compares times only:
``tests/hashset.py`` compares the outputs.
"""

import argparse
import importlib
import os
import sys
import time

if __name__ == "__main__":  # one compute thread, as perfbench/run.py runs, set before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("finite_batch", "roundtrip")


def _ours(name):
    return name == "workloads" or name.split(".")[0] == "rank1spec"


def load_tree(root):
    """(rank1spec, workloads) imported from the checkout at root.  Once
    loaded, their modules leave sys.modules and the ones there before come
    back, so that no two loads share a module object."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _ours(name)}
    path = sys.path[:]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
        return sys.modules["rank1spec"], workloads
    finally:
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path


def best_times(ops_by_side, repeats):
    """Best time of each operation on each side over repeats rounds: a
    (sides, ops) array, the sides alternating within every operation."""
    n_sides, n_ops = len(ops_by_side), len(ops_by_side[0])
    best = np.full((n_sides, n_ops), np.inf)
    for r in range(repeats):
        for i in range(n_ops):
            order = range(n_sides) if (r + i) % 2 == 0 else reversed(range(n_sides))
            for side in order:
                op = ops_by_side[side][i][1]
                start = time.perf_counter()
                op()
                best[side, i] = min(best[side, i], time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", help="root of the base checkout")
    parser.add_argument("--repeats", type=int, default=15, help="rounds per operation (best taken)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS), metavar="NAME")
    args = parser.parse_args(argv)
    trees = [load_tree(os.path.abspath(args.base_dir))[1], load_tree(ROOT)[1]]
    for name in args.workloads:
        for seed in args.seeds:
            ops = [w.WORKLOADS[name](seed, None).ops for w in trees]
            best = best_times(ops, args.repeats)
            q1, med, q3 = np.percentile(best[1] / best[0], [25, 50, 75])
            base_ms, this_ms = 1e3 * np.median(best, axis=1)
            print(
                f"{name} seed {seed}: this/base median {med:.3f} (quartiles {q1:.3f}-{q3:.3f}) "
                f"over {best.shape[1]} ops; median best {base_ms:.3f} -> {this_ms:.3f} ms",
                flush=True,
            )


if __name__ == "__main__":
    main()
