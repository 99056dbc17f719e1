import numpy as np
import pytest

from rank1spec import direct, errors, oracle
from rank1spec.charfn import CharacteristicFunction, compute_Keps
from rank1spec.direct import (
    Disk,
    LocalizeOptions,
    Rectangle,
    assemble_spectrum,
    localize_spectrum,
    refine_zero,
    solve_direct,
    winding_number,
)
from rank1spec.model import (
    ORIGIN_BOTH,
    ORIGIN_COMMON,
    ORIGIN_ZERO,
    AffineTail,
    BaseSpectrum,
    validate_base,
)

from conftest import finite_coeffs, random_finite_instance


@pytest.fixture
def two_point_cf(zspec):
    # zeros exactly at 1/4 and 11/10 (roots of z^2 - 1.35 z + 0.275)
    return CharacteristicFunction.build(zspec, finite_coeffs({0: 0.275, 1: 0.075}), 10)


@pytest.fixture
def double_cf(zspec):
    # F(z) = (z - 1/2)^2 / (z (z - 1)): an exact order-2 zero at 1/2
    return CharacteristicFunction.build(zspec, finite_coeffs({0: 0.25, 1: -0.25}), 10)


OPTS = LocalizeOptions(window=8, n_trunc=20)


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_counts_zeros_minus_poles(two_point_cf):
    # box around the zero 1/4 only
    res = winding_number(two_point_cf, Rectangle(0.1, 0.45, -0.3, 0.3), 256)
    assert res.certified and res.count == 1
    # disk containing the zero 1/4 and the pole 0
    res = winding_number(two_point_cf, Disk(0.125, 0.35), 256)
    assert res.certified and res.count == 0
    # box containing both zeros and both poles
    res = winding_number(two_point_cf, Rectangle(-0.5, 1.5, -1.0, 1.0), 256)
    assert res.certified and res.count == 0
    # empty box
    res = winding_number(two_point_cf, Rectangle(2.2, 2.8, -0.2, 0.2), 256)
    assert res.certified and res.count == 0


def test_winding_counts_multiplicity(double_cf):
    res = winding_number(double_cf, Rectangle(0.2, 0.8, -0.25, 0.25), 256)
    assert res.certified and res.count == 2


def test_contour_through_pole_rejected(two_point_cf):
    with pytest.raises(errors.ContourThroughSingularity):
        winding_number(two_point_cf, Disk(0.5, 0.5), 128)


def test_disk_half_rule_equals_independent_trapezoid(two_point_cf):
    # the q/2 check reuses every second node; compare with a fresh q/2 rule
    disk, q = Disk(0.3 + 0.05j, 0.2), 256
    res = winding_number(two_point_cf, disk, q)
    h = q // 2
    e = np.exp(2j * np.pi * np.arange(h) / h)
    z = disk.center + disk.radius * e
    dz = 1j * disk.radius * e * (2 * np.pi / h)
    F = two_point_cf.values(z)
    Fp = two_point_cf.derivative_values(z)
    ref = np.sum(dz * Fp / F) / (2j * np.pi)
    assert abs(res.integral_lo - ref) < 1e-12
    assert res.certified and res.count == 1


def test_odd_quadrature_rounds_up_to_even(two_point_cf, double_cf):
    for cf, region in (
        (two_point_cf, Disk(0.3, 0.2)),
        (two_point_cf, Rectangle(0.1, 0.45, -0.3, 0.3)),
        (double_cf, Rectangle(0.2, 0.8, -0.25, 0.25)),
    ):
        odd, even = winding_number(cf, region, 257), winding_number(cf, region, 258)
        assert (odd.count, odd.certified) == (even.count, even.certified)
        assert odd.integral == even.integral and odd.certified


# ---------------------------------------------------------------------------
# refinement


def test_refine_simple_zero_to_full_precision(two_point_cf):
    z, order, resid = refine_zero(two_point_cf, 0.2, 1, tol=1e-12, confirm_radius=0.2, d=1.0)
    assert order == 1
    assert abs(z - 0.25) < 1e-13
    z, _, _ = refine_zero(two_point_cf, 1.2, 1, tol=1e-12, confirm_radius=0.2, d=1.0)
    assert abs(z - 1.1) < 1e-12


def test_refine_double_zero(double_cf):
    z, order, resid = refine_zero(double_cf, 0.47 + 0.02j, 2, tol=1e-12, confirm_radius=0.2, d=1.0)
    assert order == 2
    assert abs(z - 0.5) < 1e-10


def test_refine_rejects_wrong_order(double_cf):
    with pytest.raises((errors.OrderMismatch, errors.NoConvergence)):
        refine_zero(double_cf, 0.47, 3, tol=1e-12, confirm_radius=0.2, d=1.0)


def _uncertified_winding(cf, region, opts, poles_inside):
    return None, None


def test_refine_rejects_uncertified_order_check(two_point_cf, monkeypatch):
    monkeypatch.setattr(direct, "_certified_winding", _uncertified_winding)
    with pytest.raises(errors.CertificationFailed, match="radius 0.2"):
        refine_zero(two_point_cf, 0.2, 1, tol=1e-12, confirm_radius=0.2, d=1.0)


# ---------------------------------------------------------------------------
# full localization and assembly


def test_two_point_spectrum_hand_values(zspec):
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    assert ps.certified
    by_index = {e.paired_index: e for e in ps.entries}
    assert abs(by_index[0].mu - 0.25) < 1e-10
    assert abs(by_index[1].mu - 1.1) < 1e-10
    assert by_index[0].origin == ORIGIN_ZERO
    assert by_index[5].origin == ORIGIN_COMMON
    assert by_index[5].mu == 5.0
    assert ps.offset_sum == pytest.approx(0.35, abs=1e-10)
    assert ps.tail_bound == 0.0


def test_double_zero_assembled_with_multiplicity(zspec):
    ps, _ = solve_direct(zspec, finite_coeffs({0: 0.25, 1: -0.25}), OPTS)
    assert ps.certified
    doubles = [e for e in ps.entries if e.mult == 2]
    assert len(doubles) == 1
    assert abs(doubles[0].mu - 0.5) < 1e-9
    # the pairing carries one slot per unit of multiplicity
    slots = [n for n, mu in ps.pairing if abs(mu - 0.5) < 1e-9]
    assert sorted(slots) == [0, 1]


def test_complex_coefficients_move_spectrum_off_axis(zspec):
    coeffs = finite_coeffs({0: 0.2j})
    ps, _ = solve_direct(zspec, coeffs, OPTS)
    by_index = {e.paired_index: e for e in ps.entries}
    mu = by_index[0].mu
    assert mu.imag > 0.05
    # exact zero of 1 + 0.2i/(0 - z) is z = 0.2i
    assert abs(mu - 0.2j) < 1e-10


def test_matches_dense_oracle_on_random_instance(zspec):
    rng = np.random.default_rng(42)
    coeffs = random_finite_instance(rng, radius=6, max_points=5)
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    op = oracle.build_truncation(zspec, coeffs, loc.window)
    ref = oracle.dense_eigenvalues(op)
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_central_rectangle_for_n_indexed_spectrum_below_zero():
    # lambda_n = n - 100 over N: every central pole lies left of zero
    spec = validate_base(
        BaseSpectrum(index_kind="N", head_offset=0, head=(), tail=AffineTail(1.0, -100.0), gap=1.0)
    )
    coeffs = finite_coeffs({1: 0.2, 2: 0.1j, 3: -0.15})
    k_prime = compute_Keps(spec, coeffs, 1.0 / 3.0)[1]  # eps = d / (2 + d)
    rect = direct._central_rectangle(spec, k_prime, spec.gap)
    assert rect.re_lo < rect.re_hi
    for n in spec.window_indices(k_prime):
        assert rect.contains(complex(spec.lambda_at(n)))
    ps, loc = solve_direct(spec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_central_rectangle_holds_a_far_zero_left_of_an_n_indexed_head():
    # lambda_n = n over N and c_1 = -5: F = 1 - 5/(1 - z) vanishes at z = -4,
    # left of every pole, so the rectangle must reach past lambda_start
    spec = validate_base(
        BaseSpectrum(index_kind="N", head_offset=0, head=(), tail=AffineTail(1.0, 0.0), gap=1.0)
    )
    coeffs = finite_coeffs({1: -5.0})
    k_prime = compute_Keps(spec, coeffs, 1.0 / 3.0)[1]  # eps = d / (2 + d)
    assert direct._central_rectangle(spec, k_prime, spec.gap).contains(-4.0 + 0j)
    ps, loc = solve_direct(spec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    assert np.min(np.abs(ref + 4.0)) < 1e-10
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_localization_reports_enclosure_structure(zspec):
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    assert loc.certified
    disk_reports = [r for r in loc.reports if r.region_index is not None]
    # one disk per index beyond the central rectangle, each with the
    # expected count: 1 on the deviating indices, 0 elsewhere
    for rep in disk_reports:
        assert rep.certified
        expected = 1 if rep.region_index in (0, 1) else 0
        assert rep.winding_count == expected
    central = [r for r in loc.reports if r.region_index is None]
    assert sum(len(r.zeros) for r in central) + sum(
        len(r.zeros) for r in disk_reports
    ) == 2


def test_localize_raises_when_winding_uncertified(zspec, monkeypatch):
    monkeypatch.setattr(direct, "_certified_winding", _uncertified_winding)
    with pytest.raises(errors.CertificationFailed):
        localize_spectrum(zspec, finite_coeffs({0: 0.275, 1: 0.075}), OPTS)


def test_assemble_rejects_a_missing_zero(zspec):
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    next(r for r in loc.reports if r.zeros).zeros.pop()
    with pytest.raises(errors.CountMismatch):
        assemble_spectrum(zspec, coeffs, loc)


def test_assemble_marks_common_point_zero_as_both(zspec):
    # residues of (2 - z)^2 / (z (z - 1)) pull lambda_2 into the point spectrum
    # with multiplicity l + 1 = 3: double zero of F at a common eigenvalue
    from rank1spec.inverse import solve_inverse
    from rank1spec.model import TargetSpectrum, validate_coefficients

    coeffs, _ = solve_inverse(zspec, TargetSpectrum(0, (2.0 + 0j, 2.0 + 0j)))
    coeffs = validate_coefficients(coeffs, zspec)
    ps, _ = solve_direct(zspec, coeffs, OPTS)
    assert ps.certified
    both = [e for e in ps.entries if e.origin == ORIGIN_BOTH]
    assert len(both) == 1
    assert both[0].mult == 3
    assert abs(both[0].mu - 2.0) < 1e-9


def test_tail_bound_positive_for_infinite_instance(zspec):
    from rank1spec.model import PerturbationCoefficients, PowerTail

    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=2.0, scale=0.3, phase=0.0),
        b_head_offset=0,
        b_head=(0.1,),
        b_tail=PowerTail(beta=2.0, scale=0.3, phase=0.0),
    )
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=12, n_trunc=200))
    assert ps.certified
    assert ps.tail_bound > 0.0
    assert np.isfinite(ps.offset_sum)


def test_central_rectangle_for_an_empty_central_set():
    # N-indexed, first index 5 beyond K' = 1: every pole has its own disk
    spec = validate_base(
        BaseSpectrum(index_kind="N", head_offset=5, head=(5.0, 6.0, 7.0), tail=AffineTail(1.0, 0.0), gap=1.0)
    )
    coeffs = finite_coeffs({5: 0.01, 6: 0.015j, 7: -0.02})
    k_prime = compute_Keps(spec, coeffs, 1.0 / 3.0)[1]  # eps = d / (2 + d)
    assert k_prime < spec.start
    rect = direct._central_rectangle(spec, k_prime, spec.gap)
    assert rect.re_lo < rect.re_hi and rect.im_lo < rect.im_hi
    for n in spec.window_indices(12):
        assert not rect.contains(complex(spec.lambda_at(n)))
    ps, loc = solve_direct(spec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# disks counted in blocks


def _tail_cf(zspec):
    from rank1spec.model import PerturbationCoefficients, PowerTail

    tail = PowerTail(beta=1.5, scale=0.5, phase=0.2)
    coeffs = PerturbationCoefficients(
        a_head_offset=-2, a_head=(1.0,) * 5, a_tail=tail,
        b_head_offset=-2, b_head=(0.1, 0.2j, 0.3, 0.0, -0.25), b_tail=tail,
    )
    return CharacteristicFunction.build(zspec, coeffs, 40)


def test_disk_windings_equal_winding_number_field_by_field(zspec):
    cf = _tail_cf(zspec)
    assert cf.tail_total > 0.0
    # 42 disks in several blocks at every q, complex centres, uncertified ones
    centers = np.concatenate([np.arange(-20, 20) + 0.0, [0.3 + 0.2j, 1.5 - 0.1j]])
    for radius, q in ((0.5, 256), (0.3, 64), (0.45, 17)):
        batched = direct._disk_windings(cf, centers, radius, q)
        assert len(batched) == len(centers)
        for c, res in zip(centers, batched):
            assert res == winding_number(cf, Disk(complex(c), radius), q)
    assert not all(r.certified for r in direct._disk_windings(cf, centers, 0.45, 17))


def test_disk_through_a_pole_is_marked_and_falls_back(two_point_cf):
    # the circle |z - 1/2| = 1/2 passes through the poles 0 and 1
    through, clear = direct._disk_windings(two_point_cf, [0.5, 0.3], 0.5, 128)
    assert through is None
    assert clear == winding_number(two_point_cf, Disk(0.3, 0.5), 128)
    # a missing first result escalates instead of raising, to the same report
    opts = LocalizeOptions()
    first = direct._disk_windings(two_point_cf, [0.0], 0.5, opts.quad)[0]
    got = direct._localize_disk(two_point_cf, 0, 0.0, 0.275, None, opts, 1.0)
    assert got == direct._localize_disk(two_point_cf, 0, 0.0, 0.275, first, opts, 1.0)
    assert got.winding_count == 0 and len(got.zeros) == 1


def test_uncertified_batched_disk_escalates_from_twice_the_quadrature(zspec, monkeypatch):
    # F = 1 - 0.45/z: the zero 0.45 lies 0.05 inside |z| = 1/2, which 16
    # nodes do not resolve
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.45}), 10)
    opts = LocalizeOptions(quad=16)
    first = direct._disk_windings(cf, [0.0], 0.5, opts.quad)[0]
    assert not first.certified
    expected, res = direct._certified_winding(cf, Disk(0j, 0.5), opts, 1)
    quads = []

    def spy(cf, region, q):
        quads.append(q)
        return winding_number(cf, region, q)

    monkeypatch.setattr(direct, "winding_number", spy)
    rep = direct._localize_disk(cf, 0, 0.0, 0.45, first, opts, 1.0)
    assert quads[0] == 32
    assert rep.winding_count == res.count and expected == 1
    assert len(rep.zeros) == 1 and abs(rep.zeros[0][0] - 0.45) < 1e-12


def test_wide_window_localization_memory_stays_bounded(zspec):
    # 401 disks at q = 256 in one call peak at about 8 MB (102 656 nodes,
    # 16 bytes each, in several node arrays); blocks of DISK_BLOCK_NODES
    # peak at about 1 MB
    import tracemalloc

    coeffs = finite_coeffs({-7: 0.2, -3: 0.1j, -1: 0.05, 0: 0.25, 2: -0.1, 4: 0.3j, 9: 0.15, 11: -0.2})
    tracemalloc.start()
    try:
        loc = localize_spectrum(zspec, coeffs, LocalizeOptions(window=200, n_trunc=210))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loc.window == 200
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_rect_nodes_equal_the_panel_loop():
    def loop(rect, q):
        corners = [
            complex(rect.re_lo, rect.im_lo), complex(rect.re_hi, rect.im_lo),
            complex(rect.re_hi, rect.im_hi), complex(rect.re_lo, rect.im_hi),
            complex(rect.re_lo, rect.im_lo),
        ]
        gl_t, gl_w = np.polynomial.legendre.leggauss(8)
        panels = max(2, int(np.ceil(q / 32)))
        zs, ws = [], []
        for a, b in zip(corners[:-1], corners[1:]):
            edges = np.linspace(0.0, 1.0, panels + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                zs.append(a + (b - a) * (mid + half * gl_t))
                ws.append((b - a) * half * gl_w)
        return np.concatenate(zs), np.concatenate(ws)

    for rect in (Rectangle(0.1, 0.45, -0.3, 0.3), Rectangle(-17.5, 17.5, -17.5, 17.5), Rectangle(4.5, 7.3, -1e-3, 2.1)):
        for q in (16, 64, 100, 128, 256, 1000, 4096):
            z, w = direct._rect_nodes(rect, q)
            z_ref, w_ref = loop(rect, q)
            assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)
