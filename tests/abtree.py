"""Interleaved in-process A/B of two checkouts on the declared workloads.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/abtree.py BASE_DIR [--repeats 15] [--seeds 1 2] [--workloads roundtrip]

BASE_DIR is the root of another checkout, the base (``git archive`` of the
parent commit unpacked somewhere, say).  The base is imported twice, as
base and base', and this checkout once, into one process as three
separate sets of ``src/rank1spec`` and ``perfbench/workloads.py`` modules
(``load_tree``).  Each operation of the workloads named by
``--workloads`` (``finite_batch`` and ``roundtrip`` by default) runs on
the three sides in turn, in an order that moves through every
permutation from one operation and one round to the next, and each side
keeps its best time of ``--repeats`` rounds per operation.  Per workload
and seed it prints the median over the operations of the ratio this /
base with its 95% interval (``median_interval``: a percentile bootstrap
over the operations, from a fixed seed) and the ratio's quartiles; the
same for the A/A control base' / base, which reads the bias between two
loads of one tree; the ratio of summed best times of this and of base'
to base (the benchmark's ``wall_s`` view, where the few slow operations
weigh most); and each side's median best time.  A ratio is resolved only
when its interval and the A/A interval do not overlap, and a gain only
when it is resolved below 1.
One process and alternation cancel most of the host's drift, which
separate ``perfbench/run.py`` runs do not.  It compares times only:
``tests/hashset.py`` compares the outputs.
"""

import argparse
import importlib
import itertools
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
    (sides, ops) array, the sides' order within every operation the next of
    their permutations (of two sides, forward and back in turn)."""
    n_sides, n_ops = len(ops_by_side), len(ops_by_side[0])
    orders = list(itertools.permutations(range(n_sides)))
    best = np.full((n_sides, n_ops), np.inf)
    for r in range(repeats):
        for i in range(n_ops):
            for side in orders[(r + i) % len(orders)]:
                op = ops_by_side[side][i][1]
                start = time.perf_counter()
                op()
                best[side, i] = min(best[side, i], time.perf_counter() - start)
    return best


def median_interval(ratios, level=0.95, resamples=4000, seed=0):
    """(low, high): the percentile bootstrap interval at level of the median
    of ratios, one per operation.  Each of resamples draws as many
    operations with replacement and takes their median; the interval holds
    the middle level of those medians.  The draws come from
    np.random.default_rng(seed), so one set of ratios gives one interval."""
    ratios = np.asarray(ratios, dtype=float)
    picks = np.random.default_rng(seed).integers(0, len(ratios), size=(resamples, len(ratios)))
    medians = np.median(ratios[picks], axis=1)
    tail = 50.0 * (1.0 - level)
    low, high = np.percentile(medians, [tail, 100.0 - tail])
    return float(low), float(high)


def resolved(interval, control):
    """Whether a ratio's interval clears the A/A control's: the two do not overlap."""
    return interval[1] < control[0] or interval[0] > control[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", help="root of the base checkout")
    parser.add_argument("--repeats", type=int, default=15, help="rounds per operation (best taken)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS), metavar="NAME")
    args = parser.parse_args(argv)
    base = os.path.abspath(args.base_dir)
    trees = [load_tree(base)[1], load_tree(ROOT)[1], load_tree(base)[1]]  # base, this, base'
    for name in args.workloads:
        for seed in args.seeds:
            ops = [w.WORKLOADS[name](seed, None).ops for w in trees]
            best = best_times(ops, args.repeats)
            ratios, control = best[1] / best[0], best[2] / best[0]
            q1, med, q3 = np.percentile(ratios, [25, 50, 75])
            interval, aa = median_interval(ratios), median_interval(control)
            summed = best.sum(axis=1) / best[0].sum()
            base_ms, this_ms, _ = 1e3 * np.median(best, axis=1)
            verdict = "resolved" if resolved(interval, aa) else "unresolved"
            print(
                f"{name} seed {seed}: this/base median {med:.3f} (95% interval {interval[0]:.3f}-{interval[1]:.3f}, "
                f"quartiles {q1:.3f}-{q3:.3f}), A/A base'/base {np.median(control):.3f} "
                f"({aa[0]:.3f}-{aa[1]:.3f}): {verdict}; summed best this/base {summed[1]:.3f}, "
                f"base'/base {summed[2]:.3f}; over {best.shape[1]} ops; "
                f"median best {base_ms:.3f} -> {this_ms:.3f} ms",
                flush=True,
            )


if __name__ == "__main__":
    main()
