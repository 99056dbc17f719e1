"""Layered solve benchmark for rank1spec: time to a certified spectrum.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: finite_batch, roundtrip and cli_cold, declared in BENCHMARK.json,
and power_decay, which is run by hand (see README.md).
The package is imported from the checkout's ``src/``; without it the run
fails.  Each run starts fresh interpreters, one after the other: one that
sets up, runs the closed-loop timed phase on a single compute thread and
gates every output, and, before and after it, several that only set up (the
median of all set-up times, each scaled to the calibration kernel's nominal
speed, is ``setup_s``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("power_decay", "finite_batch", "roundtrip", "cli_cold")
# set-up-only interpreters before and after the working one; with it they
# give setup_s, so its samples span the run rather than one burst of load
SETUP_PROBES = 2
WORK_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60


def _worker(role, args, workdir, src, trace_file, env, timeout):
    """Start worker.py; returns (seconds from spawn to inputs ready, its result)."""
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--src", src, "--trace-file", trace_file,
    ]  # fmt: skip
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({role}) exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["ready"] - spawned, doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rank1spec", "__init__.py")):
        print(f"no rank1spec package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    # one compute thread: BLAS/LAPACK (the dense oracle) may not fan out
    env = dict(
        os.environ,
        PYTHONPATH=src,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    trace_file = os.path.join(".perfbench_work", f"trace-{args.workload}-{args.seed}.json")
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)

    def worker(role, name, timeout):
        return _worker(role, args, os.path.join(rundir, name), src, trace_file, env, timeout)

    try:
        setups = [worker("setup", f"before{j}", PROBE_TIMEOUT_S) for j in range(SETUP_PROBES)]
        setups.append(worker("work", "work", WORK_TIMEOUT_S))
        doc = setups[-1][1]
        setups += [worker("setup", f"after{j}", PROBE_TIMEOUT_S) for j in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = doc["metrics"]
    scaled = [s * NOMINAL_S / d["kernel_s"] for s, d in setups]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    correct = doc["failed"] == 0 and doc["attempted"] > 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(doc["machine"], sort_keys=True))
    print("setup samples " + " ".join(f"{s:.4f}" for s in scaled))
    print("setup measured " + " ".join(f"{s:.4f}" for s, _ in setups))
    print("setup kernel " + " ".join(f"{d['kernel_s'] * 1e3:.4f}ms" for _, d in setups))
    print("info " + json.dumps(doc["info"], sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
