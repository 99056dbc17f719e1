"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each end-to-end metric its median, quartiles and the spread
(Q3 - Q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            doc = run_once(workload, seed, bench["run_seconds"])
            elapsed = time.monotonic() - t0
            runs[workload].append({"seed": seed, **doc})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(doc["metrics"].items()))
            print(
                f"{workload} seed {seed} ({elapsed:.0f} s): correct={doc['correct']} failed={doc['failed']} {values}",
                flush=True,
            )

    worst = 0.0
    for workload, docs in runs.items():
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            values = [d["metrics"][metric["name"]]["value"] for d in docs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = stats.quartile_spread(values)
            share = spread / metric["bound"]
            worst = max(worst, share)
            print(
                f"  {metric['name']:16s} median {med:10.5g} {metric['unit']:6s}"
                f" Q1 {q1:10.5g} Q3 {q3:10.5g} spread {spread:7.4f}"
                f" bound {metric['bound']:.2f} ({share:.2f} of bound)"
            )
    print(f"\nworst spread: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
