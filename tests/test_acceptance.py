"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line.  Expensive localizations of the
power-decay family are computed once and shared between criteria.
"""

import time

import numpy as np

from rank1spec import gallery, inverse, oracle
from rank1spec.direct import LocalizeOptions, assemble_spectrum, localize_spectrum, solve_direct
from rank1spec.model import TargetSpectrum, validate_base, validate_coefficients

from conftest import combined_discrepancy_bound, random_finite_instance

ZSPEC = validate_base(gallery.example_periodic_base())

_CACHE = {}


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{detail}")
    assert ok, f"{name}{detail}"


def _finite_batch():
    """50 randomized zero-tail instances with their solved spectra (cached)."""
    if "finite_batch" in _CACHE:
        return _CACHE["finite_batch"]
    rng = np.random.default_rng(2024)
    opts = LocalizeOptions(window=41, n_trunc=49)
    batch = []
    for _ in range(50):
        coeffs = validate_coefficients(
            random_finite_instance(rng, radius=40, max_points=8, c_cap=0.3), ZSPEC
        )
        ps, loc = solve_direct(ZSPEC, coeffs, opts)
        batch.append((coeffs, ps, loc))
    _CACHE["finite_batch"] = batch
    return batch


def _power_family_localization(window):
    """Certified localization of the c_n = |n|^-4 family (cached per window)."""
    key = ("power", window)
    if key not in _CACHE:
        coeffs = validate_coefficients(gallery.power_family(2.0, window), ZSPEC)
        opts = LocalizeOptions(window=window, n_trunc=max(600, 3 * window))
        loc = localize_spectrum(ZSPEC, coeffs, opts)
        _CACHE[key] = (coeffs, loc)
    return _CACHE[key]


def _random_admissible_target(rng, max_points=10, radius=8):
    m = int(rng.integers(1, max_points + 1))
    idx = sorted(int(n) for n in rng.choice(np.arange(-radius, radius + 1), m, replace=False))
    head = []
    for n in range(idx[0], idx[-1] + 1):
        if n in idx:
            head.append(complex(n + rng.uniform(-0.25, 0.25), rng.uniform(-0.2, 0.2)))
        else:
            head.append(complex(ZSPEC.lambda_at(n)))
    return TargetSpectrum(idx[0], tuple(head))


def test_criterion_1_finite_oracle_equivalence():
    t0 = time.perf_counter()
    worst_overall = 0.0
    for coeffs, ps, loc in _finite_batch():
        op = oracle.build_truncation(ZSPEC, coeffs, loc.window)
        ref = oracle.dense_eigenvalues(op)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(ref))))
        ok, worst = oracle.compare_spectra(ps, ref, tol)
        worst_overall = max(worst_overall, worst)
        assert ok, f"deviation {worst:.3e} above {tol:.3e}"
        assert ps.certified
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: direct solver matches dense oracle on 50 finite instances",
        elapsed < 30.0,
        f" (worst {worst_overall:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    opts = LocalizeOptions(window=12, n_trunc=40)
    worst_overall = 0.0
    mult_confirmed = {2: False, 3: False}
    targets = [
        TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j)),  # double point
        TargetSpectrum(0, (1.0 + 0.25j,) * 3),  # triple point
    ]
    targets += [_random_admissible_target(rng) for _ in range(48)]
    for target in targets:
        coeffs, _ = inverse.solve_inverse(ZSPEC, target)
        coeffs = validate_coefficients(coeffs, ZSPEC)
        ps, loc = solve_direct(ZSPEC, coeffs, opts)
        ref = np.atleast_1d(target.nu_at(ZSPEC.window_indices(loc.window), ZSPEC))
        ok, worst = oracle.compare_spectra(ps, ref, 1e-8)
        worst_overall = max(worst_overall, worst)
        assert ok, f"roundtrip deviation {worst:.3e}"
        for m in ps.mult.tolist():
            if m in mult_confirmed:
                mult_confirmed[m] = True
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2: 50 inverse->direct roundtrips below 1e-8",
        mult_confirmed[2] and mult_confirmed[3] and elapsed < 60.0,
        f" (worst {worst_overall:.2e}, double/triple confirmed, {elapsed:.1f}s)",
    )


def test_criterion_3_exactly_one_zero_per_disk():
    coeffs, loc = _power_family_localization(200)
    disk_reports = [r for r in loc.reports if r.region_index is not None]
    failures = [
        r.region_index
        for r in disk_reports
        if not (r.certified and len(r.zeros) == 1 and r.zeros[0][1] == 1)
    ]
    central = [r for r in loc.reports if r.region_index is None]
    central_count = sum(sum(order for _, order, _ in r.zeros) for r in central)
    idx = ZSPEC.window_indices(loc.k_prime)
    _, i1 = coeffs.partition(idx)
    n_k = len(i1)
    _report(
        "criterion 3: every outer disk holds exactly one zero; central count matches",
        not failures and central_count == n_k,
        f" ({len(disk_reports)} disks, central {central_count} == {n_k})",
    )


def test_criterion_4_summability_certificate():
    bounds = []
    for window in (50, 100, 200):
        coeffs, loc = _power_family_localization(window)
        ps = assemble_spectrum(ZSPEC, coeffs, loc)
        assert np.isfinite(ps.offset_sum) and np.isfinite(ps.tail_bound)
        bounds.append(ps.offset_sum + ps.tail_bound)
    monotone = bounds[0] >= bounds[1] >= bounds[2]
    _report(
        "criterion 4: offset sum plus tail bound finite and nonincreasing in window",
        monotone,
        f" (bounds {bounds[0]:.8f} >= {bounds[1]:.8f} >= {bounds[2]:.8f})",
    )


def test_criterion_5_nonsummable_family_asymptotics():
    rep = gallery.harmonic_report(n_max=200)
    residual_ok = rep["max_tan_residual"] < 1e-8
    scaled_ok = rep["max_scaled_error_tail"] < 0.05
    partial = rep["partial_sums"]
    growing = partial[-1] > partial[99] > partial[9]
    coeff = rep["log_fit_coefficient"]
    fit_ok = 0.8 <= coeff <= 1.2
    _report(
        "criterion 5: 1/n family obeys the tan equation; offset sums grow like log N",
        residual_ok and scaled_ok and growing and fit_ok,
        f" (residual {rep['max_tan_residual']:.1e}, log coefficient {coeff:.3f})",
    )


def test_criterion_6_power_family_decay_slope():
    coeffs, loc = _power_family_localization(200)
    idx, offs = assemble_spectrum(ZSPEC, coeffs, loc).offsets(ZSPEC)
    ns, offs = idx[idx >= 20], offs[idx >= 20]
    assert ns.tolist() == list(range(20, 201))
    slope, _ = np.polyfit(np.log(ns), np.log(offs), 1)
    expected = -4.0
    ok = abs(slope - expected) <= 0.05 * abs(expected)
    _report(
        "criterion 6: offset decay slope within 5% of the residue exponent",
        ok,
        f" (slope {slope:.4f}, expected {expected})",
    )


def test_criterion_7_self_adjoint_interlacing():
    rng = np.random.default_rng(5)
    opts = LocalizeOptions(window=10, n_trunc=30)
    alphas = [0.5, -0.5, 2.0, -2.0] * 5
    for alpha in alphas:
        m = int(rng.integers(3, 9))
        idx = np.arange(-m, m + 1)
        a = rng.uniform(0.1, 0.35, len(idx))
        from rank1spec.model import PerturbationCoefficients

        coeffs = validate_coefficients(
            PerturbationCoefficients(
                a_head_offset=-m,
                a_head=tuple(complex(v) for v in a),
                a_tail=None,
                b_head_offset=-m,
                b_head=tuple(complex(alpha * v) for v in a),
                b_tail=None,
            ),
            ZSPEC,
        )
        ps, _ = solve_direct(ZSPEC, coeffs, opts)
        vals = ps.eigenvalues()
        assert np.max(np.abs(vals.imag)) < 1e-10, "spectrum left the real axis"
        by_index = dict(zip(ps.paired_index.tolist(), ps.mu.tolist()))
        for n in idx:
            mu = by_index[int(n)].real
            lam = float(n)
            assert np.sign(mu - lam) == np.sign(alpha), f"offset sign at {n}"
            if alpha > 0:
                assert lam < mu < lam + 1.0, f"interlacing broken at {n}"
            else:
                assert lam - 1.0 < mu < lam, f"interlacing broken at {n}"
    _report(
        "criterion 7: rank-one self-adjoint perturbations stay real and interlace",
        True,
        f" ({len(alphas)} instances)",
    )


def test_criterion_8_trace_identity():
    worst = 0.0
    for coeffs, ps, loc in _finite_batch():
        idx = ZSPEC.window_indices(loc.window)
        c = np.atleast_1d(coeffs.c_at(idx))
        resid = abs(np.sum(ps.paired_mu - ZSPEC.lambda_at(ps.index)) - np.sum(c))
        tol = 1e-10 * (1.0 + float(np.sum(np.abs(c))))
        worst = max(worst, resid / tol)
        assert resid < tol, f"trace residual {resid:.3e}"
    _report(
        "criterion 8: sum of offsets equals sum of c_n on all finite instances",
        True,
        f" (worst residual at {worst:.2e} of tolerance)",
    )


def test_criterion_9_F_equals_product():
    rng = np.random.default_rng(31)
    worst_margin = 0.0
    for _ in range(25):
        target = _random_admissible_target(rng)
        coeffs, pf = inverse.solve_inverse(ZSPEC, target)
        samples = inverse.default_sample_points(ZSPEC, pf)
        disc = inverse.check_F_equals_product(coeffs, pf, samples)
        bound = combined_discrepancy_bound(coeffs, pf, samples)
        worst_margin = max(worst_margin, disc / bound if bound else 0.0)
        assert disc <= bound, f"discrepancy {disc:.3e} above bound {bound:.3e}"
    _report(
        "criterion 9: characteristic function equals the finite product on all inverse runs",
        True,
        f" (worst discrepancy at {worst_margin:.2f} of bound)",
    )


def test_criterion_10_multiplicity_rule_at_common_point():
    # two target values land on lambda_2, which keeps c_2 = 0: an order-2
    # zero of F at a retained eigenvalue must carry total multiplicity 3
    target = TargetSpectrum(0, (2.0 + 0j, 2.0 + 0j))
    coeffs, _ = inverse.solve_inverse(ZSPEC, target)
    coeffs = validate_coefficients(coeffs, ZSPEC)
    assert coeffs.c_at(2) == 0.0
    ps, _ = solve_direct(ZSPEC, coeffs, LocalizeOptions(window=10, n_trunc=30))
    (row,) = np.flatnonzero(np.abs(ps.mu - 2.0) < 1e-8)
    op = oracle.build_truncation(ZSPEC, coeffs, 12)
    dense = oracle.dense_eigenvalues(op)
    dense_mult = int(np.sum(np.abs(dense - 2.0) < 1e-3))
    _report(
        "criterion 10: zero of order 2 at a retained eigenvalue yields multiplicity 3",
        ps.mult[row] == 3 and ps.origin[row] == "both" and dense_mult == 3,
        f" (assembled {ps.mult[row]}, dense oracle {dense_mult})",
    )
