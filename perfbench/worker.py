"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Roles: ``setup`` builds the inputs, prints the monotonic time at which they
were ready and the calibration kernel's best time right after, and exits;
``work`` does the same set-up, then the timed phase, then the correctness
gate, and prints one JSON line of results.  With
``--trace 1`` the timed phase is followed by one traced pass over the same
operations; its spans give the per-layer metrics, and each traced operation
against an untraced run of it gives the tracing overhead.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibration
import stats
import tracing


def _machine():
    import numpy
    import scipy
    from rank1spec import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "RANK1_KERNELS": os.environ.get("RANK1_KERNELS", "unset"),
    }


def _peak_rss_mb():
    """Peak RSS of this process and of any child it waited for (CLI runs), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_op(workload, i, results, latencies):
    """Run operation i; record its latency and, outside it, its summary or error."""
    from rank1spec import errors

    t0 = time.perf_counter()
    try:
        out = workload.ops[i][1]()
    except errors.Rank1Error as exc:
        latencies.append(time.perf_counter() - t0)
        results.append((i, exc))
        return
    latencies.append(time.perf_counter() - t0)
    results.append((i, workload.summarize(out)))


def timed_phase(workload, seconds):
    """Closed loop: whole passes over the ops until ``seconds`` have elapsed
    and at least ``workload.PASSES`` passes have run.  The calibration kernel
    runs after every operation, so that its times follow the machine's speed
    at the same moments.

    Returns the results and latencies of the operations, in the order run,
    and the kernel's time after each of them.
    """
    results, latencies, kernel = [], [], []
    t0 = time.perf_counter()
    while len(latencies) < workload.PASSES * len(workload.ops) or time.perf_counter() - t0 < seconds:
        for i in range(len(workload.ops)):
            _run_op(workload, i, results, latencies)
            kernel.append(calibration.timed())
    return results, latencies, kernel


def best_times(workload, latencies):
    """Each operation's fastest latency over the first ``workload.PASSES`` passes.

    Other tenants of the host slow this process in bursts of a few seconds;
    an operation's fastest repeat is its cost outside them.  A fixed number
    of passes, not the number that fit in the run, keeps the estimate the
    same on a faster or a slower commit.
    """
    n = len(workload.ops)
    return [min(latencies[p * n + i] for p in range(workload.PASSES)) for i in range(n)]


def speed_scale(workload, kernel):
    """``NOMINAL_S`` ÷ the kernel's time in this run: the mean over the
    operations' slots of the kernel's best time after that operation."""
    return calibration.NOMINAL_S / statistics.fmean(best_times(workload, kernel))


def end_to_end(workload, verdict, latencies, kernel, rss_mb):
    measured = best_times(workload, latencies)
    scale = speed_scale(workload, kernel)
    best = [t * scale for t in measured]
    tail, pct, n = stats.tail_percentile(best)
    info = {
        "solve_tail_percentile": pct,
        "solve_samples": n,
        "passes_used": workload.PASSES,
        "passes_run": len(latencies) // len(workload.ops),
        "timed_wall_s": sum(latencies),
        "speed_scale": scale,
        "measured_wall_s": sum(measured),
        "measured_p50_s": statistics.median(measured),
    }
    metrics = {
        "wall_s": (sum(best), "s"),
        "solve_p50_s": (statistics.median(best), "s"),
        "solve_tail_s": (tail, "s"),
        "ok_ratio": (1.0 - verdict.fail_ratio, "1"),
        "accuracy_digits": (verdict.digits if verdict.digits != float("inf") else 0.0, "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, info


def traced_pass(workload, seed, workdir):
    """Validate again, run one pass and gate it under tracing; returns the overhead too.

    Each operation runs once untraced and once traced, adjacent in time, so
    that the pair sees the same machine speed; which of the two goes first
    alternates from one operation to the next, so that warm-up favours
    neither.  The overhead is the median over operations of traced time ÷
    untraced time − 1.  Every traced segment is a root span named ``bench``.
    A cold import and, on workloads other than cli_cold, one gated CLI run
    of the seed's first finite_batch instance give the cli layer its spans.
    """
    import workloads

    tracer = tracing.Tracer()
    cli = None if workload.name == "cli_cold" else workloads.CliCold(seed, workdir, count=1)

    def traced(fn):
        tracing.install(tracer, workloads.BASE_QUAD)
        tracer.wrap(workloads.CliCold, "run_cli", "cli.process")
        tracer.wrap(workloads, "import_probe", "cli.import")
        root = tracer.begin("bench")
        try:
            return fn()
        finally:
            tracer.finish(root)
            tracer.uninstall()

    traced(workload.validate)
    results, untraced, latencies = [], [], []
    for i in range(len(workload.ops)):
        if i % 2:
            traced(lambda: _run_op(workload, i, results, latencies))
            _run_op(workload, i, [], untraced)
        else:
            _run_op(workload, i, [], untraced)
            traced(lambda: _run_op(workload, i, results, latencies))
    traced(lambda: workloads.import_probe())
    verdict = traced(lambda: workloads.verify(workload, results))
    if cli is not None:
        cli_results = [(0, traced(lambda: cli.run_cli(0)))]
        traced(lambda: workloads.verify(cli, cli_results, verdict))
    overhead = statistics.median(t / u - 1.0 for t, u in zip(latencies, untraced))
    return tracer, verdict, overhead


def per_layer(tracer, verdict, overhead):
    totals = tracer.totals()
    count = tracer.counts.get

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    if min((row[2] for row in totals.values()), default=0.0) < -1e-6:
        raise RuntimeError("a child span outlasts its parent")
    eval_s = own("charfn.eval")
    windings = count("direct.winding_calls", 0)
    m = {
        "fail_ratio": (verdict.fail_ratio, "1"),
        "model.validate_s": (own("model.validate"), "s"),
        "model.json_s": (own("model.json"), "s"),
        "charfn.keps_s": (own("charfn.keps"), "s"),
        "charfn.build_s": (own("charfn.build"), "s"),
        "charfn.build_calls": (calls("charfn.build"), "count"),
        "charfn.eval_calls": (count("charfn.eval_calls", 0), "count"),
        "charfn.eval_s": (eval_s, "s"),
        "charfn.term_nodes": (count("charfn.term_nodes", 0), "count"),
        "charfn.term_node_rate": (count("charfn.term_nodes", 0) / eval_s if eval_s else 0.0, "1/s"),
        "charfn.tail_bound_s": (own("charfn.tail_bound"), "s"),
        "direct.localize_s": (incl("direct.localize"), "s"),
        "direct.assemble_s": (own("direct.assemble"), "s"),
        "direct.winding_calls": (windings, "count"),
        "direct.quad_nodes": (count("direct.quad_nodes", 0), "count"),
        "direct.quad_escalations": (count("direct.quad_escalations", 0), "count"),
        "direct.winding_certified_ratio": (
            count("direct.winding_certified", 0) / windings if windings else 0.0,
            "1",
        ),
        "direct.outer_disk_s": (own("direct.winding.outer"), "s"),
        "direct.central_disk_s": (own("direct.winding.central"), "s"),
        "direct.rect_s": (own("direct.winding.rect"), "s"),
        "direct.confirm_disk_s": (own("direct.winding.confirm"), "s"),
        "direct.other_self_s": (own("direct.localize"), "s"),
        "inverse.solve_s": (own("inverse.solve"), "s"),
        "inverse.check_s": (own("inverse.check"), "s"),
        "oracle.dense_s": (own("oracle.dense"), "s"),
        "oracle.max_dev": (verdict.max_dev, "1"),
        "cli.import_s": (incl("cli.import"), "s"),
        "cli.process_s": (own("cli.process"), "s"),
        "trace.wall_s": (incl("bench"), "s"),
        "trace.unattributed_s": (own("bench"), "s"),
        "trace.overhead_ratio": (overhead, "1"),
    }
    partition = {name: round(row[2], 6) for name, row in sorted(totals.items())}
    return m, partition


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "work"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--trace-file", required=True, help="where the spans are written")
    args = parser.parse_args(argv)

    import rank1spec

    if os.path.dirname(os.path.realpath(rank1spec.__file__)) != os.path.realpath(
        os.path.join(args.src, "rank1spec")
    ):
        raise SystemExit(f"rank1spec imported from {rank1spec.__file__}, not from {args.src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()
    kernel_s = calibration.best_of(calibration.SETUP_REPEATS)
    if args.role == "setup":
        print(json.dumps({"ready": ready, "kernel_s": kernel_s}))
        return 0

    results, latencies, kernel = timed_phase(workload, args.seconds)
    rss_mb = _peak_rss_mb()  # before the gate, whose dense eigensolves are not the program's
    doc = {"ready": ready, "kernel_s": kernel_s, "machine": _machine()}
    if args.trace:
        tracer, verdict, overhead = traced_pass(workload, args.seed, args.workdir)
        metrics, partition = per_layer(tracer, verdict, overhead)
        if workload.name == "power_decay":
            best = best_times(workload, latencies)
            scale = speed_scale(workload, kernel)
            metrics.update({f"solve_{label}_s": (t * scale, "s") for (label, _), t in zip(workload.ops, best)})
        tracer.dump(args.trace_file)
        doc["info"] = {
            "speed_scale": speed_scale(workload, kernel),
            "self_s": partition,
            "self_sum_s": sum(partition.values()),
            "trace_file": args.trace_file,
        }
    else:
        verdict = workloads.verify(workload, results)
        metrics, doc["info"] = end_to_end(workload, verdict, latencies, kernel, rss_mb)
    for msg in verdict.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    doc.update(
        attempted=verdict.attempted,
        failed=verdict.failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
