"""Tests of the benchmark's own helpers: tail percentile, best times, speed scale, span self time, failure gate."""

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 20, 57, 100, 500):
        samples = [float(v) for v in range(n, 0, -1)]
        value, pct, count = stats.tail_percentile(samples)
        assert count == n
        assert sum(1 for s in samples if s > value) == 10
        assert pct == (100 * (n - 10)) // n
    assert stats.tail_percentile([float(v) for v in range(100)])[:2] == (89.0, 90)


def test_tail_percentile_small_samples_report_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert stats.tail_percentile([float(v) for v in range(10)]) == (9.0, 100, 10)
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_best_times_use_a_fixed_number_of_passes():
    class Workload:
        ops = [("a", None), ("b", None)]
        PASSES = 2

    # three passes of (a, b); the third is faster but lies beyond PASSES
    latencies = [3.0, 5.0, 2.0, 6.0, 0.5, 0.5]
    assert worker.best_times(Workload, latencies) == [2.0, 5.0]


def test_speed_scale_uses_the_kernels_best_time_per_slot():
    class Workload:
        ops = [("a", None), ("b", None)]
        PASSES = 2

    nominal = calibration.NOMINAL_S
    # slot a's best is nominal, slot b's 3 x nominal; the third pass lies beyond PASSES
    kernel = [2 * nominal, 3 * nominal, nominal, 4 * nominal, 0.1 * nominal, 0.1 * nominal]
    assert worker.speed_scale(Workload, kernel) == pytest.approx(0.5)
    assert calibration.best_of(3) > 0


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_self_time_from_nested_spans():
    clock = itertools.count(0.0, 1.0)
    t = tracing.Tracer()
    t.clock = lambda: next(clock)
    root = t.begin("root")  # 0
    a = t.begin("a")  # 1
    b = t.begin("b")  # 2
    t.finish(b)  # 3
    t.finish(a)  # 4
    a = t.begin("a")  # 5
    t.finish(a)  # 6
    t.finish(root)  # 7
    totals = t.totals()
    assert totals["root"] == [1, 7.0, 7.0 - 3.0 - 1.0]
    assert totals["a"] == [2, 4.0, 4.0 - 1.0]
    assert totals["b"] == [1, 1.0, 1.0]
    # the layer self times partition the root span
    assert sum(row[2] for row in totals.values()) == pytest.approx(totals["root"][1])


def test_wrap_records_spans_and_uninstall_restores():
    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    original = Thing.__dict__["method"]
    seen = []
    t = tracing.Tracer()
    t.wrap(Thing, "method", lambda args: f"m{args[1]}", after=lambda args, r: seen.append(r))
    t.wrap(Thing, "make", "make")
    assert Thing.make().method(2) == 3
    assert seen == [3]
    assert sorted(t.totals()) == ["m2", "make"]
    t.uninstall()
    assert Thing.__dict__["method"] is original
    assert isinstance(Thing.__dict__["make"], classmethod)


def test_seeds_draw_the_same_mix_of_sizes(tmp_path):
    import workloads

    def sizes(seed):
        batch = workloads.FiniteBatch(seed=seed, workdir=str(tmp_path))
        trip = workloads.Roundtrip(seed=seed, workdir=str(tmp_path))
        terms = [sum(1 for b in c.b_head if b != 0) for c in batch.coeffs]
        moved = [
            sum(1 for j, nu in enumerate(t.nu_head) if nu != t.nu_head_offset + j) for t in trip.targets[2:]
        ]
        return terms, moved

    terms, moved = sizes(1)
    assert sorted(set(terms)) == list(range(2, 9))
    assert sorted(set(moved)) == list(range(1, 11))
    assert sizes(2) == (terms, moved)


def test_wrong_reference_raises_fail_ratio(tmp_path):
    import numpy as np
    from rank1spec import errors

    import workloads

    batch = workloads.FiniteBatch(seed=3, workdir=str(tmp_path))
    results = [(i, batch.summarize(op())) for i, (_label, op) in enumerate(batch.ops[:2])]
    good = workloads.verify(batch, results)
    assert (good.attempted, good.failed, good.fail_ratio) == (2, 0, 0.0)
    assert good.digits > 0

    # shift the first instance's reference by more than its tolerance
    window = results[0][1][2]
    batch._refs[(0, window)] = batch.reference(0, window) + 1e-3
    bad = workloads.verify(batch, results)
    assert (bad.attempted, bad.failed, bad.fail_ratio) == (2, 1, 0.5)
    assert bad.digits < 0

    raised = workloads.verify(batch, [(0, errors.CertificationFailed("forced"))])
    assert (raised.attempted, raised.failed) == (1, 1)
    assert np.isfinite(bad.max_dev)
