"""The 400-instance random sweep: 200 direct solves and 200 round trips.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/sweep.py

lambda_n = n over Z (gap 1), LocalizeOptions(window=12, n_trunc=40) and
one np.random.default_rng(2026), drawn in this order.  Each direct solve:
m = integers(2, 9) terms on choice(arange(-10, 11), m) without
replacement, |c_n| = 10^uniform(-3, log10 20), phases uniform(0, 2 pi),
a_n = 1, b_n = c_n, zero tails.  Each round trip: k = integers(2, 7)
moved indices, sorted choice(arange(-6, 7), k) without replacement, and
kind = integers(0, 3): a double point (0), a triple point (1) or a cluster
(2) of g = min(k, 2 if kind 0 else 3) values about the centre uniform(-6,
6) + i uniform(-0.5, 0.5); a cluster draws sep = 10^uniform(-4, -2) and
places its j-th value at centre + sep j e^(i uniform(0, 2 pi)).  The other
k - g values are uniform(-6, 6) + i uniform(-1, 1) each, the values go to
the moved indices in order, and the rest of the head stays on lambda_n;
solve_inverse, validate_coefficients and solve_direct follow, and
oracle.compare_spectra measures the distance to the target.

Each direct solve that direct._eigen_attempt takes is solved again by
the general attempt alone, and the two must give the same paired_index,
mult and origin.

It prints the number of instances certified, the failing instances by
number and kind, the worst distance to the target per round-trip kind,
and how many direct solves the eigenvalue path took and how many of those
the general attempt pairs otherwise; a failure not in EXPECTED_FAILURES,
or an expected one that now certifies, is marked.  tests/test_direct.py
runs the same sweep through run() and fails on a failure not in
EXPECTED_FAILURES, on a worst distance above the bound it states for the
kind, or on an eigenvalue-path solve paired otherwise.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rank1spec import direct, errors, inverse, model, oracle  # noqa: E402

COUNT = 200  # of each half
OPTS = direct.LocalizeOptions(window=12, n_trunc=40)
# the instances (0..199 direct, 200..399 round trips) that do not certify:
# all three-point clusters
EXPECTED_FAILURES = (210, 257, 320, 334, 340, 366, 371, 373, 374, 398)


def base():
    return model.validate_base(
        model.BaseSpectrum(index_kind="Z", head_offset=0, head=(), tail=model.AffineTail(1.0, 0.0), gap=1.0)
    )


def direct_instance(rng):
    m = int(rng.integers(2, 9))
    support = rng.choice(np.arange(-10, 11), m, replace=False)
    mags = 10.0 ** rng.uniform(-3, math.log10(20), m)
    phases = rng.uniform(0, 2 * np.pi, m)
    c = {int(n): complex(v) for n, v in zip(support, mags * np.exp(1j * phases))}
    lo, hi = min(c), max(c)
    return model.PerturbationCoefficients(
        a_head_offset=lo, a_head=(1.0 + 0j,) * (hi - lo + 1), a_tail=None,
        b_head_offset=lo, b_head=tuple(c.get(n, 0j) for n in range(lo, hi + 1)), b_tail=None,
    )  # fmt: skip


def roundtrip_instance(rng):
    """(target, kind name)."""
    k = int(rng.integers(2, 7))
    indices = sorted(int(n) for n in rng.choice(np.arange(-6, 7), k, replace=False))
    kind = int(rng.integers(0, 3))
    g = min(k, 2 if kind == 0 else 3)
    centre = rng.uniform(-6, 6) + 1j * rng.uniform(-0.5, 0.5)
    if kind == 2:
        sep = 10.0 ** rng.uniform(-4, -2)
        values = [centre + sep * j * np.exp(1j * rng.uniform(0, 2 * np.pi)) for j in range(g)]
        name = f"{g}-point cluster"
    else:
        values = [centre] * g
        name = "double" if g == 2 else "triple"
    values += [rng.uniform(-6, 6) + 1j * rng.uniform(-1, 1) for _ in range(k - g)]
    moved = dict(zip(indices, values))
    head = tuple(complex(moved.get(n, n)) for n in range(indices[0], indices[-1] + 1))
    return model.TargetSpectrum(indices[0], head), name


def _columns(ps):
    return [ps.paired_index.tolist(), ps.mult.tolist(), ps.origin.tolist()]


def _general(spec, coeffs):
    """solve_direct by the general attempt alone, _eigen_attempt declining."""
    eigen = direct._eigen_attempt
    direct._eigen_attempt = lambda *args: None
    try:
        return direct.solve_direct(spec, coeffs, OPTS)
    finally:
        direct._eigen_attempt = eigen


def run():
    """The failures as (number, kind, message), the worst distance to the
    target per round-trip kind, and the direct instances the eigenvalue
    path took with those whose columns the general attempt gives otherwise."""
    spec = base()
    rng = np.random.default_rng(2026)
    failures, worst, taken, differ = [], {}, [], []
    eigen = direct._eigen_attempt
    for i in range(COUNT):
        coeffs = model.validate_coefficients(direct_instance(rng), spec)
        try:
            ps, loc = direct.solve_direct(spec, coeffs, OPTS)
        except errors.Rank1Error as exc:
            failures.append((i, "direct", f"{type(exc).__name__}: {exc}"))
            continue
        if eigen(loc.cf, loc.window, spec.gap) is not None:
            taken.append(i)
            if _columns(_general(spec, coeffs)[0]) != _columns(ps):
                differ.append(i)
    for i in range(COUNT, 2 * COUNT):
        target, name = roundtrip_instance(rng)
        target = model.validate_target(target, spec)
        try:
            coeffs, _ = inverse.solve_inverse(spec, target)
            coeffs = model.validate_coefficients(coeffs, spec)
            ps, loc = direct.solve_direct(spec, coeffs, OPTS)
        except errors.Rank1Error as exc:
            failures.append((i, name, f"{type(exc).__name__}: {exc}"))
            continue
        reference = target.nu_at(spec.window_indices(loc.window), spec)
        _, dev = oracle.compare_spectra(ps, np.atleast_1d(reference), 1.0)
        worst[name] = max(worst.get(name, 0.0), dev)
    return failures, worst, (taken, differ)


def main():
    failures, worst, (taken, differ) = run()
    print(f"certified {2 * COUNT - len(failures)} of {2 * COUNT}")
    for i, name, message in failures:
        mark = "" if i in EXPECTED_FAILURES else "  (unexpected)"
        print(f"failed {i} ({name}){mark}: {message}")
    for i in sorted(set(EXPECTED_FAILURES) - {i for i, _, _ in failures}):
        print(f"certified {i}, an expected failure")
    for name in sorted(worst):
        print(f"worst distance to the target, {name}: {worst[name]:.3g}")
    print(f"the eigenvalue path took {len(taken)} of {COUNT} direct solves", end="; ")
    print(f"the general attempt pairs otherwise: {differ}")


if __name__ == "__main__":
    main()
