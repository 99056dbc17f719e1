import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from rank1spec import _kernels, charfn, direct, errors, gallery, inverse, oracle
from rank1spec.charfn import CharacteristicFunction, Terms, compute_Keps
from rank1spec.direct import (
    Disk,
    LocalizeOptions,
    Rectangle,
    assemble_spectrum,
    localize_spectrum,
    solve_direct,
    winding_number,
)
from rank1spec.model import (
    ORIGIN_BOTH,
    ORIGIN_COMMON,
    ORIGIN_ZERO,
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    TargetSpectrum,
    spectrum_to_json,
    validate_base,
    validate_coefficients,
    validate_target,
)

from conftest import (
    finite_coeffs,
    random_base,
    random_coeffs,
    random_finite_instance,
    settling_double_point,
    with_tail,
)
import sweep


@pytest.fixture
def two_point_cf(zspec):
    # zeros exactly at 1/4 and 11/10 (roots of z^2 - 1.35 z + 0.275)
    return CharacteristicFunction.build(zspec, finite_coeffs({0: 0.275, 1: 0.075}), 10)


@pytest.fixture
def double_cf(zspec):
    # F(z) = (z - 1/2)^2 / (z (z - 1)): an exact order-2 zero at 1/2
    return CharacteristicFunction.build(zspec, finite_coeffs({0: 0.25, 1: -0.25}), 10)


OPTS = LocalizeOptions(window=8, n_trunc=20)


def past_eigen_max(c_by_index, window=8):
    """finite_coeffs of c_by_index with c_n = 1e-9 added on the free indices
    from -window up, to EIGEN_MAX + 1 terms: a zero-tail F that
    _eigen_attempt leaves to _localize_attempt."""
    c = dict(c_by_index)
    for n in range(-window, window + 1):
        if len(c) > direct.EIGEN_MAX:
            break
        c.setdefault(n, 1e-9)
    return finite_coeffs(c)


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_counts_zeros_minus_poles(two_point_cf):
    # disk around the zero 1/4 only
    res = winding_number(two_point_cf, Disk(0.25, 0.2), 256)
    assert res.certified and res.count == 1
    # disk containing the zero 1/4 and the pole 0
    res = winding_number(two_point_cf, Disk(0.125, 0.35), 256)
    assert res.certified and res.count == 0
    # disk containing both zeros and both poles
    res = winding_number(two_point_cf, Disk(0.5, 1.0), 256)
    assert res.certified and res.count == 0
    # empty disk
    res = winding_number(two_point_cf, Disk(2.5, 0.3), 256)
    assert res.certified and res.count == 0


def test_winding_counts_multiplicity(double_cf):
    res = winding_number(double_cf, Disk(0.5, 0.3), 256)
    assert res.certified and res.count == 2


def test_contour_through_pole_rejected(two_point_cf):
    # the circle passes through both poles, 0 and 1: every arc whose disk
    # reaches a pole fails the arc walk's check, so the circle comes back
    # not certified, with no warning from the division at the poles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert winding_number(two_point_cf, Disk(0.5, 0.5), 128) == (0, False)


# ---------------------------------------------------------------------------
# central zeros and their order windings

# the central rectangle of two_point_cf and double_cf, whose poles are 0 and 1
CENTRAL = Rectangle(-1.5, 2.5, 2.5)
NO_DISKS = ((), ())  # no certified disk: (centres, radii)


def _central_zeros(cf, n_zeros):
    """The central step on CENTRAL (K' = 1, d = 1) with every pole hard: the
    seeds from _hard_seeds with no certified terms, polished by one Newton
    pass as _localize_attempt polishes them."""
    seeds = direct._hard_seeds(cf.lam1, cf.c1, np.empty(0), np.empty(0))
    polished = direct._newton(cf, seeds, 1)
    return direct._central_zeros(cf, CENTRAL, seeds, polished, n_zeros, 1.0, NO_DISKS)


def test_refine_simple_zero_to_full_precision(two_point_cf):
    (z, order), (z2, order2) = _central_zeros(two_point_cf, 2)
    assert order == order2 == 1
    assert abs(z - 0.25) < 1e-13
    assert abs(z2 - 1.1) < 1e-12


def test_refine_double_zero(double_cf):
    ((z, order),) = _central_zeros(double_cf, 2)
    assert order == 2
    assert abs(z - 0.5) < 1e-10


def test_refine_rejects_wrong_order(double_cf):
    # a seed that claims a simple zero at the double zero: its winding counts 2
    seed = np.array([0.5 + 0j])
    polished = (seed, np.ones(1, dtype=bool))
    with pytest.raises(errors.CertificationFailed, match="counts 2 zeros, expected 1"):
        direct._central_zeros(double_cf, CENTRAL, seed, polished, 1, 1.0, NO_DISKS)
    # three seeds, none polished, that claim a triple zero there: no order-3 zero passes
    seeds = np.full(3, 0.47 + 0j)
    polished = (np.full(3, np.nan + 0j), np.zeros(3, dtype=bool))
    with pytest.raises(errors.CertificationFailed):
        direct._central_zeros(double_cf, CENTRAL, seeds, polished, 3, 1.0, NO_DISKS)


def _two_points_at(cf, at):
    """The central step on two points polished onto one location; a
    RuntimeWarning (from their circles of radius 0) raises."""
    points = np.full(2, complex(at))
    polished = (points, np.ones(2, dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return direct._central_zeros(cf, CENTRAL, points, polished, 2, 1.0, NO_DISKS)


def test_two_points_on_a_double_zero_join_into_it(double_cf):
    # each point's circle has radius 0 and fails, the two join, and their
    # order-2 zero's circle counts 2
    ((z, order),) = _two_points_at(double_cf, 0.5)
    assert order == 2 and abs(z - 0.5) < 1e-12


def test_two_points_on_a_simple_zero_are_no_double_zero(two_point_cf):
    # the two join as at a double zero, and Newton on F' from 1/4 finds no
    # order-2 zero
    with pytest.raises(errors.CertificationFailed, match="^no zero of order 2 found near 0.25"):
        _two_points_at(two_point_cf, 0.25)


def test_a_triple_point_takes_two_walks_and_one_multiple_zero(zspec, monkeypatch):
    # the three seeds' circles fail, all three join in one round, and the
    # order-3 zero's circle certifies in the second walk
    calls = []
    for name in ("_arc_walk", "_try_multiple"):
        f = getattr(direct, name)
        monkeypatch.setattr(direct, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(0, (1.0 + 0.25j,) * 3))
    loc = localize_spectrum(zspec, validate_coefficients(coeffs, zspec), LocalizeOptions(window=12, n_trunc=40))
    assert [m for _, m in loc.central] == [3]
    assert calls == ["_arc_walk", "_try_multiple", "_arc_walk"]


def test_try_multiple_rejects_a_point_where_a_m_vanishes(two_point_cf):
    # far out F''/2 underflows to 0 while F' does not: Newton on F' takes an
    # infinite first step there and fails the point, and the order-2 zero is
    # rejected, with no division warning
    seed = np.array([1e110 + 0j])
    shift = direct._shift(two_point_cf, seed)
    a = np.abs(two_point_cf.taylor(seed - shift, 2, shift))[:, 0]
    assert a[1] > 0.0 and a[2] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok = direct._newton(two_point_cf, [1e110], 2)
        assert not ok[0]
        assert direct._try_multiple(two_point_cf, 1e110, 2) is None


def test_central_zeros_must_add_up_to_what_the_rectangle_holds(two_point_cf):
    # two simple zeros found where the rectangle's count says three
    with pytest.raises(errors.CertificationFailed, match="total order 2 found, the rectangle holds 3"):
        _central_zeros(two_point_cf, 3)


def test_refine_rejects_uncertified_order_check(two_point_cf, monkeypatch):
    monkeypatch.setattr(direct, "_arc_walk", lambda cf, centers, radii, p: [None] * len(centers))
    with pytest.raises(errors.CertificationFailed, match="radius 0.125 .* could not be certified"):
        _central_zeros(two_point_cf, 2)


def test_uncertified_order_winding_in_the_central_step_raises(zspec, monkeypatch):
    # circles narrower than the outer disks' stay uncertified; the outer
    # disks and the rectangle certify as before.  Rouche fails on both
    # central disks (the zeros 0.5 -+ 0.2^(1/2) i lie between the poles), so
    # both go through the order circles (radius d/4)
    arc_walk = direct._arc_walk

    def narrow_fail(cf, centers, radii, p):
        res = arc_walk(cf, centers, radii, p)
        return [None if r < 0.45 else w for r, w in zip(np.broadcast_to(radii, len(res)), res)]

    monkeypatch.setattr(direct, "_arc_walk", narrow_fail)
    with pytest.raises(errors.CertificationFailed, match="order winding on .* could not be certified"):
        localize_spectrum(zspec, finite_coeffs({0: 0.45, 1: -0.45}), OPTS)


def test_order_circles_keep_clear_of_poles(zspec, monkeypatch):
    # the triple point 1 + i/4 lies d/4 from the pole lambda_1: its circle
    # shrinks to radius d/8 instead of passing through it
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(0, (1.0 + 0.25j,) * 3))
    coeffs = validate_coefficients(coeffs, zspec)
    radii = []
    arc_walk = direct._arc_walk

    def spy(cf, centers, radius, p):
        radii.append(radius)
        return arc_walk(cf, centers, radius, p)

    monkeypatch.setattr(direct, "_arc_walk", spy)
    loc = localize_spectrum(zspec, coeffs, OPTS)
    ((z, order, _),) = next(r for r in loc.reports if r.region_index is None).zeros
    assert order == 3 and abs(z - (1.0 + 0.25j)) < 1e-9
    assert list(radii[-1]) == [0.125]


# ---------------------------------------------------------------------------
# full localization and assembly


def test_two_point_spectrum_hand_values(zspec):
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    assert ps.certified
    row = {n: j for j, n in enumerate(ps.paired_index.tolist())}
    assert abs(ps.mu[row[0]] - 0.25) < 1e-10
    assert abs(ps.mu[row[1]] - 1.1) < 1e-10
    assert ps.origin[row[0]] == ORIGIN_ZERO
    assert ps.origin[row[5]] == ORIGIN_COMMON
    assert ps.mu[row[5]] == 5.0
    assert ps.offset_sum == pytest.approx(0.35, abs=1e-10)
    assert ps.tail_bound == 0.0


def test_double_zero_assembled_with_multiplicity(zspec):
    ps, _ = solve_direct(zspec, finite_coeffs({0: 0.25, 1: -0.25}), OPTS)
    assert ps.certified
    (double,) = ps.mu[ps.mult == 2]
    assert abs(double - 0.5) < 1e-9
    # the pairing carries one slot per unit of multiplicity
    slots = ps.index[np.abs(ps.paired_mu - 0.5) < 1e-9]
    assert sorted(slots.tolist()) == [0, 1]


def test_complex_coefficients_move_spectrum_off_axis(zspec):
    coeffs = finite_coeffs({0: 0.2j})
    ps, _ = solve_direct(zspec, coeffs, OPTS)
    (mu,) = ps.mu[ps.paired_index == 0]
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


def test_complex_central_zeros_match_the_oracle(zspec):
    # non-self-adjoint: the zeros near -0.58 - 0.01i, 1.82 + 0.33i and
    # -0.14 + 1.18i do not each sit in the d/2 disk of their own pole
    coeffs = finite_coeffs({-1: 0.3 + 0.5j, 0: -0.2 + 0.6j, 2: 0.4j})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    central = next(r for r in loc.reports if r.region_index is None)
    assert [o for _, o, _ in central.zeros] == [1, 1, 1]
    assert sum(abs(z.imag) > 0.3 for z, _, _ in central.zeros) == 2
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-10 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_simple_zero_at_an_inflection_point_stays_simple(zspec):
    # F(1/2) = 0, F'(1/2) = 9 and F''(1/2) = 0: the double-zero round-off
    # radius there is large, but the point's own circle counts one zero, so
    # it stays apart from the zeros near -0.53 and 3.78
    coeffs = finite_coeffs({-1: 27 / 16, 0: 1.0, 1: 17 / 16})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    central = next(r for r in loc.reports if r.region_index is None)
    assert [o for _, o, _ in central.zeros] == [1, 1, 1]
    assert abs(central.zeros[1][0] - 0.5) < 1e-14
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-10 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_two_close_double_zeros_are_not_one_order_four_zero(zspec):
    # F's values cannot tell these two double zeros 1.5e-3 apart from one
    # order-4 zero between them, but F'' can: the pair does not split on its
    # order circles, and the solve fails naming the order-4 zero it rejected
    # near them (at the mean of Newton's points, which moves across the pair
    # with the last bits of the coefficients), never returning it
    a, b, c = -1.135536401173598, -1.1369914450269683, 0.5014617185308676
    target = TargetSpectrum(-1, (a, a, b, b, c, c, c))
    coeffs, _ = inverse.solve_inverse(zspec, target)
    with pytest.raises(errors.CertificationFailed, match=r"^no zero of order 4 found near -1\.13[56]"):
        solve_direct(zspec, coeffs, LocalizeOptions(window=14, n_trunc=40))


def test_central_rectangle_for_n_indexed_spectrum_below_zero():
    # lambda_n = n - 100 over N: every central pole lies left of zero
    spec = validate_base(
        BaseSpectrum(index_kind="N", head_offset=0, head=(), tail=AffineTail(1.0, -100.0), gap=1.0)
    )
    coeffs = finite_coeffs({1: 0.2, 2: 0.1j, 3: -0.15})
    k_prime = compute_Keps(spec, coeffs, 1.0 / 3.0)[1]  # eps = d / (2 + d)
    rect = direct._central_rectangle(spec, k_prime, spec.gap, spec.lambda_at)
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
    assert direct._central_rectangle(spec, k_prime, spec.gap, spec.lambda_at).contains(-4.0 + 0j)
    ps, loc = solve_direct(spec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    assert np.min(np.abs(ref + 4.0)) < 1e-10
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_clustered_head_matches_the_oracle():
    # lambda_n = n for |n| <= 30 and 5n beyond: the affine projection of a
    # zero near 20 is index 4, and Newton must still shift by lambda_20
    spec = validate_base(
        BaseSpectrum(
            index_kind="Z",
            head_offset=-30,
            head=tuple(float(n) for n in range(-30, 31)),
            tail=AffineTail(5.0, 0.0),
            gap=1.0,
        )
    )
    coeffs = finite_coeffs({3: 0.2, 20: 1e-8 * (1 + 1j)})
    ps, loc = solve_direct(spec, coeffs)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_localization_reports_enclosure_structure(zspec):
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    disk_reports = [r for r in loc.reports if r.region_index is not None]
    # one disk per index beyond the central rectangle, each with the
    # expected count: 1 on the deviating indices, 0 elsewhere
    for rep in disk_reports:
        assert rep.certified
        expected = 1 if rep.region_index in (0, 1) else 0
        assert len(rep.zeros) == expected
    central = [r for r in loc.reports if r.region_index is None]
    assert sum(len(r.zeros) for r in central) + sum(
        len(r.zeros) for r in disk_reports
    ) == 2


def test_each_reported_residual_is_F_at_the_reported_location(zspec):
    # an easy solve (every disk certifies), a hard one (c_0 = -c_1 = 0.45:
    # neither disk certifies, both zeros are central), a zero moved onto the
    # retained lambda_0 = 0 (nu_1 = 1e-17), and an outer zero c_6 = 3e-17
    # right of lambda_6 = 6 that rounds onto its pole, where |F| is inf.
    # reports evaluates them on read, with no warning
    retained, _ = inverse.solve_inverse(zspec, TargetSpectrum(1, (1e-17 + 0j, 2.3 + 0.1j)))
    cases = [
        finite_coeffs({0: 0.275, 1: 0.075, 6: 0.01}),
        finite_coeffs({0: 0.45, 1: -0.45}),
        validate_coefficients(retained, zspec),
        finite_coeffs({0: 0.1, 6: 3e-17}),
    ]
    counts, residuals = [], []
    for coeffs in cases:
        loc = localize_spectrum(zspec, coeffs, OPTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeros = loc.all_zeros()
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = [abs(complex(loc.cf.values(np.array([z]))[0])) for z, _, _ in zeros]
        assert [r for _, _, r in zeros] == expected
        counts.append((len(loc.owned[0]), len(loc.central)))
        residuals.append({z: r for z, _, r in zeros})
    assert counts == [(3, 0), (0, 2), (0, 2), (2, 0)]
    easy, hard, on_lambda_0, on_pole = residuals
    assert max(easy.values()) < 1e-14 and max(hard.values()) < 1e-14
    assert 0j in on_lambda_0 and on_pole[6.0] == math.inf


def test_localize_raises_when_winding_uncertified(zspec, monkeypatch):
    # the central rectangle [-1.5, 1.5] x [-1.5, 1.5] (K' = 1): S_Q =
    # 0.275/1.5 + 0.075/0.5 and a tail of 1e-12 |n|^-3 (a zero tail checks
    # no rectangle), forced to fail with its own margin at every n_trunc
    rouche_rect = direct._rouche_rect
    monkeypatch.setattr(direct, "_rouche_rect", lambda cf, rect: (rouche_rect(cf, rect)[0], False))
    failed = r"^escalation exhausted \(n_trunc 20480\): central rectangle failed to certify \(Rouche margin 0.667\)$"
    with pytest.raises(errors.CertificationFailed, match=failed):
        localize_spectrum(zspec, with_tail(finite_coeffs({0: 0.275, 1: 0.075}), 8), OPTS)


def test_n_trunc_doubles_only_while_a_tail_is_left_out(zspec, monkeypatch):
    # with every nonzero c_n summed, a doubled n_trunc repeats the attempt:
    # a zero-tail failure is final at once, a power-tail one still doubles.
    # Both inputs leave central disks that Rouche does not certify, so the
    # central step runs; the zero-tail one has a double zero at 1/2, which
    # _eigen_attempt leaves to _localize_attempt
    attempt, tried = direct._localize_attempt, []

    def spy(cf, *args):
        tried.append(cf.n_trunc)
        return attempt(cf, *args)

    def fail(*args):
        raise errors.CertificationFailed("central zeros forced to fail")

    monkeypatch.setattr(direct, "_localize_attempt", spy)
    monkeypatch.setattr(direct, "_central_zeros", fail)
    monkeypatch.setattr(charfn, "TRUNC_CAP", 80)
    with pytest.raises(errors.CertificationFailed, match="^central zeros forced to fail$"):
        localize_spectrum(zspec, finite_coeffs({0: 0.25, 1: -0.25}), OPTS)
    assert tried == [20]
    tried.clear()
    with pytest.raises(errors.CertificationFailed, match=r"^escalation exhausted \(n_trunc 80\)"):
        localize_spectrum(zspec, _tail_coeffs(), OPTS)
    assert tried == [20, 40, 80]


def test_escalation_fixes_K_prime_once_and_doubles_the_n_trunc_it_built(zspec, monkeypatch):
    # the target (0.5, 0.5, 2, 2) with a slow b tail (c_n about 1e-3
    # |n|^-1.55) leaves three zeros no disk certifies, two near 0.5 and one
    # near the common eigenvalue 2.  Their order circles fail at n_trunc 20
    # (window 12 + 8, above the requested 1), where the tail term alone
    # reaches |F| at most of their nodes, and pass at 40.  K' is taken once,
    # no n_trunc is cut twice (doubling the requested 1 built the same F at
    # 20 five times over, 105 s in all), and the terms are evaluated once per
    # n_trunc that outgrows them
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j, 2 + 0j, 2 + 0j)))
    coeffs = validate_coefficients(dataclasses.replace(coeffs, b_tail=PowerTail(0.55, 1e-3, 0.0)), zspec)
    cut, evaluated, keps = _spy_on_the_setup(monkeypatch)
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=12, n_trunc=1))
    assert cut == [20, 40] and evaluated == [20, 40] and keps == [loc.eps]
    assert loc.cf.n_trunc == 40 and loc.window == 12
    assert ps.certified and ps.mult.sum() == 2 * loc.window + 1


def test_reports_are_built_once_per_result(zspec, monkeypatch):
    # reports forms its residuals with one values pass on the first read, and
    # every later read (all_zeros included) returns the same list
    loc = localize_spectrum(zspec, finite_coeffs({0: 0.3, 1: 0.3, 6: 0.01}), OPTS)
    calls, values = [], CharacteristicFunction.values
    monkeypatch.setattr(CharacteristicFunction, "values", lambda cf, z: calls.append(len(z)) or values(cf, z))
    first = loc.reports
    assert loc.reports is first and len(loc.all_zeros()) == 3 and calls == [3]


def test_a_subnormal_power_tail_c_n_is_a_degenerate_index(zspec):
    # a = PowerTail(1, 1, 0) and b = PowerTail(250, 1, 0) with c_0 = 0.3 put
    # c_n = |n|^-251 below 2^-1022 at 17 <= |n| <= 19, and b's beta 300 puts
    # c_11 there: at window 30 and 12 (n_trunc 40) the solves failed Newton
    # in the disk around index -19 and -11, and stopped on an overflow in the
    # kernel with RuntimeWarnings as errors.  Validation passes them (the
    # heads hold c_0 alone); the first terms a solve evaluates raise
    for beta, window, index in ((250.0, 30, -19), (300.0, 12, -11)):
        coeffs = PerturbationCoefficients(0, (1.0,), PowerTail(1.0, 1.0, 0.0), 0, (0.3,), PowerTail(beta, 1.0, 0.0))
        coeffs = validate_coefficients(coeffs, zspec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.DegenerateIndex, match=rf"^0 < \|c_n\| < 2\^-1022 at tail index {index}: "):
                solve_direct(zspec, coeffs, LocalizeOptions(window=window, n_trunc=40))
    # over N from 5, c_1..c_4 = 1.28e-321 n^-4 are subnormal but no terms of
    # F (c_5 = 0.3, and c_n rounds to 0 beyond): that solve still certifies
    nspec = validate_base(BaseSpectrum("N", 5, (5.0,), AffineTail(1.0, 0.0), 1.0))
    tail = PowerTail(3.0, 1.28e-321, 0.0)
    coeffs = validate_coefficients(PerturbationCoefficients(5, (1.0,), PowerTail(1.0, 1.0, 0.0), 5, (0.3,), tail), nspec)
    assert solve_direct(nspec, coeffs, OPTS)[0].certified


def test_a_subnormal_c_n_beyond_the_window_is_summed_as_at_any_other_n(zspec):
    # the gallery's power family at beta 50 and window 200 keeps c_n =
    # |n|^-100 normal in the window, and it is subnormal for 1194 <= |n| <=
    # 1722, inside the default n_trunc 2000, where it adds about 0 to F: the
    # solve certifies (warnings as errors), and a cut at 1000 doubles into
    # that band
    coeffs = validate_coefficients(gallery.power_family(50.0, 200), zspec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert solve_direct(zspec, coeffs, LocalizeOptions())[0].certified
    cf, _, _ = charfn.first_cut(zspec, coeffs, 200, 1000, 1.0 / 3.0)
    assert cf.next_cut(errors.CertificationFailed("a failed attempt")).n_trunc == 2000


def test_every_certificate_takes_its_tail_term_from_tail_bound_at(zspec, monkeypatch):
    # on F with a power tail, disks, the central rectangle and arcs that
    # certify stop certifying once tail_bound_at alone says +inf: the tail
    # term has no other source
    cf = _tail_cf(zspec)
    win = cf.window(8)
    outer = np.abs(cf.idx[win]) > 3  # the outer disks of window 8 with K' = 3
    idx, lam, c = cf.idx[win][outer], cf.lam[win][outer], cf.c[win][outer]
    rect = direct._central_rectangle(zspec, 3, 1.0, zspec.lambda_at)
    w = 0.3 * np.exp(2j * np.pi * np.arange(32) / 32)
    shift = np.full(32, 5.0)
    rho = np.abs(np.roll(w, -1) - w)

    def certificates():
        _, disks, _ = direct._rouche(cf, idx, lam, c, 0.5, np.zeros(len(idx), dtype=bool))
        _, arcs, _ = direct._arc_test(cf, w, shift, rho, 3)
        return disks, direct._rouche_rect(cf, rect)[1], arcs

    disks, rect_ok, arcs = certificates()
    assert disks.all() and rect_ok and arcs.all()
    monkeypatch.setattr(
        CharacteristicFunction,
        "tail_bound_at",
        lambda cf, z, rho=0.0, factor=False: (math.inf, math.inf) if factor else math.inf,
    )
    disks, rect_ok, arcs = certificates()
    assert not disks.any() and not rect_ok and not arcs.any()


def test_solves_ask_delta_only_between_the_bounding_poles(zspec, monkeypatch):
    # tail_bound_at's delta is exact between the poles that bound the
    # window, lambda at max(n_trunc + 1, the first index) and, over Z,
    # lambda_{-n_trunc-1}, and only a lower bound beyond them: every disk
    # centre, arc node and rectangle end a tailed solve asks it for lies
    # between, on the power family, an N-indexed instance with a tail and
    # the escalating instance above (n_trunc 20, then 40)
    asked, bound = [], CharacteristicFunction.tail_bound_at
    monkeypatch.setattr(
        CharacteristicFunction,
        "tail_bound_at",
        lambda cf, z, rho=0.0, factor=False: asked.append((cf.n_trunc, z)) or bound(cf, z, rho, factor),
    )
    nspec = validate_base(BaseSpectrum("N", 0, (), AffineTail(1.0, 0.0), 1.0))
    tail = PowerTail(beta=1.5, scale=0.5, phase=0.2)
    ntail = PerturbationCoefficients(1, (1.0,) * 5, tail, 1, (0.1, 0.2j, 0.3, 0.0, -0.25), tail)
    escalating, _ = inverse.solve_inverse(zspec, TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j, 2 + 0j, 2 + 0j)))
    escalating = dataclasses.replace(escalating, b_tail=PowerTail(0.55, 1e-3, 0.0))
    cases = [
        (zspec, gallery.power_family(2.0, 30), LocalizeOptions(window=30, n_trunc=80)),
        (nspec, ntail, OPTS),
        (zspec, escalating, LocalizeOptions(window=12, n_trunc=1)),
    ]
    for spec, coeffs, opts in cases:
        asked.clear()
        ps, _ = solve_direct(spec, validate_coefficients(coeffs, spec), opts)
        assert ps.certified and ps.tail_bound > 0.0 and asked
        for n, z in asked:
            x = np.atleast_1d(np.asarray(z, dtype=complex)).real
            right = spec.lambda_at(max(n + 1, spec.first_index(n)))
            left = spec.lambda_at(-n - 1) if spec.index_kind == "Z" else -np.inf
            assert np.all((left <= x) & (x <= right)), (n, x.min(), x.max())


def _spy_on_the_setup(monkeypatch):
    """Lists the n_trunc of each CharacteristicFunction.cut, the radius of
    each Terms evaluation and the eps of each Terms.keps, as they are called."""
    cut, evaluated, keps = [], [], []
    cut_f, init, keps_f = CharacteristicFunction.cut.__func__, Terms.__init__, Terms.keps
    monkeypatch.setattr(
        CharacteristicFunction, "cut", classmethod(lambda cls, t, n: cut.append(n) or cut_f(cls, t, n))
    )
    monkeypatch.setattr(Terms, "__init__", lambda self, s, c, r, h=None: evaluated.append(r) or init(self, s, c, r, h))
    monkeypatch.setattr(Terms, "keps", lambda self, eps: keps.append(eps) or keps_f(self, eps))
    return cut, evaluated, keps


def test_assemble_rejects_a_missing_zero(zspec):
    # c_0 = -c_1 = 0.45: neither disk certifies, so both zeros 0.5 -+ 0.447i
    # are central; with one dropped, an index no disk owns has no zero left
    coeffs = finite_coeffs({0: 0.45, 1: -0.45})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    assert len(loc.central) == 2 and len(loc.owned[0]) == 0
    with pytest.raises(errors.CountMismatch):
        assemble_spectrum(zspec, coeffs, dataclasses.replace(loc, central=loc.central[:-1]))


def test_a_certified_disk_pairs_its_zero_with_its_own_index(zspec):
    # c_1 = 3e-17 puts a zero within an ulp of lambda_1 = 1, certified by
    # index 1's disk; c_0 = 1.5 puts the other near 1.5, a central zero.
    # Either pairing of the two costs 1.5, so an assignment over every
    # index let the last bit of the zero near 1.5 choose; the disk's zero
    # goes to index 1 whichever way that zero moves by an ulp
    coeffs = finite_coeffs({0: 1.5, 1: 3e-17})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    for ulps in (0, -1, 1):
        if ulps:
            ((hard, order),) = loc.central
            moved = complex(np.nextafter(hard.real, hard.real + ulps), hard.imag)
            ps = assemble_spectrum(zspec, coeffs, dataclasses.replace(loc, central=[(moved, order)]))
        pairing = dict(zip(ps.index.tolist(), ps.paired_mu.tolist()))
        assert abs(pairing[1] - 1.0) <= np.spacing(1.0) and abs(pairing[0] - 1.5) < 1e-12
        zero = ps.origin == ORIGIN_ZERO
        paired = dict(zip(ps.paired_index[zero].tolist(), ps.mu[zero].tolist()))
        assert paired == {0: pairing[0], 1: pairing[1]}


def test_assemble_marks_common_point_zero_as_both(zspec):
    # residues of (2 - z)^2 / (z (z - 1)) pull lambda_2 into the point spectrum
    # with multiplicity l + 1 = 3: double zero of F at a common eigenvalue
    from rank1spec.inverse import solve_inverse

    coeffs, _ = solve_inverse(zspec, TargetSpectrum(0, (2.0 + 0j, 2.0 + 0j)))
    coeffs = validate_coefficients(coeffs, zspec)
    ps, _ = solve_direct(zspec, coeffs, OPTS)
    assert ps.certified
    both = ps.origin == ORIGIN_BOTH
    assert ps.mult[both].tolist() == [3]
    assert abs(ps.mu[both][0] - 2.0) < 1e-9


def test_spectrum_columns_keep_their_contract(zspec):
    # a double zero of F at 0.5 (paired with index -2), an order-2 zero at
    # the common eigenvalue lambda_2 (multiplicity 3) and common eigenvalues
    # elsewhere: every origin, and rows of more than one unit
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(-2, (0.5, 0.5, 2.0, 2.0)))
    ps, loc = solve_direct(zspec, validate_coefficients(coeffs, zspec), OPTS)
    assert set(ps.origin.tolist()) == {ORIGIN_ZERO, ORIGIN_COMMON, ORIGIN_BOTH}
    assert sorted(zip(ps.origin[ps.mult > 1].tolist(), ps.mult[ps.mult > 1].tolist())) == [
        (ORIGIN_BOTH, 3),
        (ORIGIN_ZERO, 2),
    ]
    assert len(ps.mu) == len(ps.mult) == len(ps.paired_index) == len(ps.origin)
    keys = list(zip(ps.mu.real.tolist(), ps.mu.imag.tolist()))
    assert keys == sorted(keys)
    assert ps.index.tolist() == list(range(-loc.window, loc.window + 1)) and len(ps.paired_mu) == len(ps.index)
    assert ps.mult.sum() == len(ps.index)
    assert len(set(ps.paired_index.tolist())) == len(ps.paired_index)
    assert set(ps.paired_index.tolist()) <= set(ps.index.tolist())
    assert np.array_equal(ps.eigenvalues(), np.repeat(ps.mu, ps.mult))
    # the JSON holds Python numbers and strings only, so no default= hook is needed
    doc = spectrum_to_json(ps)
    json.dumps(doc)
    for entry in doc["entries"]:
        assert [type(v) for v in entry["mu"]] == [float, float]
        assert type(entry["mult"]) is int and type(entry["paired_index"]) is int
        assert type(entry["origin"]) is str
    assert (type(doc["offset_sum"]), type(doc["tail_bound"]), type(doc["certified"])) == (float, float, bool)


def test_tail_bound_positive_for_infinite_instance(zspec):
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
    rect = direct._central_rectangle(spec, k_prime, spec.gap, spec.lambda_at)
    assert rect.re_lo < rect.re_hi and rect.h > 0
    for n in spec.window_indices(12):
        assert not rect.contains(complex(spec.lambda_at(n)))
    ps, loc = solve_direct(spec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-8 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# the verified arc walk


def _tail_coeffs():
    tail = PowerTail(beta=1.5, scale=0.5, phase=0.2)
    return PerturbationCoefficients(
        a_head_offset=-2, a_head=(1.0,) * 5, a_tail=tail,
        b_head_offset=-2, b_head=(0.1, 0.2j, 0.3, 0.0, -0.25), b_tail=tail,
    )


def _tail_cf(zspec):
    return CharacteristicFunction.build(zspec, _tail_coeffs(), 40)


def test_arc_walk_counts_the_eigenvalues_inside_each_circle(zspec):
    # with finite coefficients the zeros of F are the eigenvalues of
    # diag(lambda) + c 1^T: on random circles clear of every zero and pole,
    # each certified count is zeros minus poles inside, the batched walk
    # equals one walk per circle, and winding_number is the one-circle case
    rng = np.random.default_rng(21)
    certified = 0
    for _ in range(6):
        cf = CharacteristicFunction.build(zspec, random_finite_instance(rng, radius=6, max_points=5), 12)
        zeros = np.linalg.eigvals(np.diag(cf.lam1.astype(complex)) + cf.c1[:, np.newaxis])
        centers = rng.uniform(-7, 7, 40) + 1j * rng.uniform(-1, 1, 40)
        radii = rng.uniform(0.05, 2.0, 40)
        points = np.concatenate([zeros, cf.lam1])
        clear = np.abs(np.abs(points - centers[:, np.newaxis]) - radii[:, np.newaxis]).min(axis=1) > 1e-3
        centers, radii = centers[clear], radii[clear]
        inside = lambda pts: (np.abs(pts - centers[:, np.newaxis]) < radii[:, np.newaxis]).sum(axis=1)
        expected = inside(zeros) - inside(cf.lam1)
        counts = direct._arc_walk(cf, centers, radii, 3)
        for c, r, got, want in zip(centers, radii, counts, expected):
            assert got in (None, want)
            assert direct._arc_walk(cf, [c], [r], 3) == [got]
            res = winding_number(cf, Disk(complex(c), float(r)), direct.ARC_START)
            assert (res.count, res.certified) == (want if got is not None else 0, got is not None)
            certified += got is not None
    assert certified > 150
    # with a discarded tail too, the batched walk equals one walk per circle
    cf = _tail_cf(zspec)
    centers = np.concatenate([np.arange(-20, 20) + 0.25, [0.3 + 0.2j, 1.5 - 0.1j]])
    radii = np.linspace(0.1, 0.45, len(centers))
    counts = direct._arc_walk(cf, centers, radii, 3)
    assert counts == [direct._arc_walk(cf, [c], [r], 3)[0] for c, r in zip(centers, radii)]


def test_arc_walk_bisects_near_a_zero_and_gives_up_on_one(two_point_cf, monkeypatch):
    # the zero 1/4 lies 8e-4 outside the first circle: the arcs near it are
    # bisected until they pass; the second circle has a node on it, where
    # |a_0| is at the rounding floor, so no split of that arc could pass
    # and the walk gives up after one pass (it used to bisect ARC_SPLITS
    # times)
    arc_test, calls = direct._arc_test, []

    def spy(cf, w, shift, rho, p):
        calls.append(len(w))
        return arc_test(cf, w, shift, rho, p)

    monkeypatch.setattr(direct, "_arc_test", spy)
    assert direct._arc_walk(two_point_cf, [0.5 + 0.02j], [0.25], 3) == [0]
    assert 1 < len(calls) < direct.ARC_SPLITS and calls[0] == direct.ARC_START
    calls.clear()
    assert direct._arc_walk(two_point_cf, [0.5, 2.0], [0.25, 0.25], 3) == [None, 0]
    assert len(calls) == 1
    # the radius 1e-16 is under two float spacings of the centre 0.25 (the
    # window eigenvalue 0 shifts nothing): every node is at the rounding
    # floor, and the walk gives up after one pass (it used to bisect every
    # arc ARC_SPLITS times, 2 s); a circle of 1e-12 still counts its zero
    calls.clear()
    assert direct._arc_walk(two_point_cf, 0.25, 1e-16, 3) == [None]
    assert calls == [direct.ARC_START]
    calls.clear()
    assert direct._arc_walk(two_point_cf, 0.25, 1e-12, 3) == [1]
    assert calls == [direct.ARC_START]


def test_arc_walk_fails_a_circle_at_once_where_the_tail_term_alone_reaches_F(zspec, monkeypatch):
    # the first node of this circle is a zero of F cut to the window, so
    # the tail term T / delta exceeds |a_0| there: every split of its first
    # arc starts at that node and fails.  The walk stops after one pass,
    # with the outcome that bisecting ARC_SPLITS times gives
    cf = _tail_cf(zspec)
    zeros = np.linalg.eigvals(np.diag(cf.lam1.astype(complex)) + cf.c1[:, np.newaxis])
    z0 = zeros[np.argmin(np.abs(zeros - 0.3))]
    arc_test, calls = direct._arc_test, []

    def spy(cf, w, shift, rho, p):
        calls.append(len(w))
        return arc_test(cf, w, shift, rho, p)

    def blind(cf, w, shift, rho, p):  # the walk without the rule
        a0, ok, hopeless = spy(cf, w, shift, rho, p)
        return a0, ok, np.zeros_like(hopeless)

    monkeypatch.setattr(direct, "_arc_test", spy)
    assert direct._arc_walk(cf, [z0 - 0.1], [0.1], 3) == [None]
    assert calls == [direct.ARC_START]
    calls.clear()
    monkeypatch.setattr(direct, "_arc_test", blind)
    assert direct._arc_walk(cf, [z0 - 0.1], [0.1], 3) == [None]
    assert len(calls) == direct.ARC_SPLITS + 1


def test_arc_walk_fails_circles_at_the_rounding_floor_at_once(zspec, monkeypatch):
    # the two double zeros 1.5e-3 apart of the test above, F cut at n_trunc
    # 40: on one circle of radius 2e-3 about both and on one of radius
    # 4.85e-4 about each, |a_0| at every node is below the rounding allowance
    # gamma B, which no split lowers.  Each walk fails after one pass, where
    # bisecting ARC_SPLITS times took 4.2 M and 8.4 M nodes with the same
    # outcome
    a, b, c = -1.135536401173598, -1.1369914450269683, 0.5014617185308676
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(-1, (a, a, b, b, c, c, c)))
    cf = CharacteristicFunction.build(zspec, validate_coefficients(coeffs, zspec), 40)
    arc_test, calls = direct._arc_test, []

    def spy(cf, w, shift, rho, p):
        calls.append(len(w))
        return arc_test(cf, w, shift, rho, p)

    monkeypatch.setattr(direct, "_arc_test", spy)
    assert direct._arc_walk(cf, [0.5 * (a + b)], [2e-3], 6) == [None]
    assert calls == [direct.ARC_START]
    calls.clear()
    assert direct._arc_walk(cf, [a, b], [4.85e-4, 4.85e-4], 4) == [None, None]
    assert calls == [2 * direct.ARC_START]


def test_no_window_beyond_the_cap_is_built(zspec, monkeypatch):
    # c_0 = 1e9 puts K' at 3000000001, and a window of 1e8 is asked for:
    # both raise WindowExceeded before any window is cut or any term beyond
    # the cap evaluated (K' alone once asked for about 48 GB).  On lambda_n
    # = n the cap's boundary is c_0 = 10664
    cut, evaluated, _ = _spy_on_the_setup(monkeypatch)
    with pytest.raises(errors.WindowExceeded, match=r"K' = 3000000001\) exceeds 32000$"):
        localize_spectrum(zspec, validate_coefficients(finite_coeffs({0: 1e9}), zspec), OPTS)
    with pytest.raises(errors.WindowExceeded, match=r"^summation window 100000008 "):
        localize_spectrum(zspec, finite_coeffs({0: 0.3}), LocalizeOptions(window=10**8))
    with pytest.raises(errors.WindowExceeded, match=r"^summation window 32001 "):
        localize_spectrum(zspec, finite_coeffs({0: 10664.0}), OPTS)
    assert cut == [] and evaluated == [20, 32000, 20]
    loc = localize_spectrum(zspec, finite_coeffs({0: 10663.0}), OPTS)
    assert cut == [31998] and evaluated == [20, 32000, 20, 20, 31998] and loc.k_prime == 31990


def test_clustered_round_trip_certifies_every_order_circle(zspec):
    # three points 1e-2 (1 + i) apart: the order circle of the middle one
    # (radius 0.00471) was not certified by the trapezoid winding at any
    # quadrature, and the solve raised CertificationFailed; the arc walk
    # certifies every circle
    target = TargetSpectrum(
        -4, (2.349236 - 0.101013j, 2.359236 - 0.091013j, 2.369236 - 0.081013j, 1.899736 + 0.001357j)
    )
    coeffs, _ = inverse.solve_inverse(zspec, target)
    coeffs = validate_coefficients(coeffs, zspec)
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=12, n_trunc=40))
    assert ps.certified and loc.window == 2435
    mus = ps.eigenvalues()
    mus = np.sort_complex(mus[np.abs(mus) < 6])
    ref = np.sort_complex(np.atleast_1d(target.nu_at(np.arange(-5, 6), zspec)))
    assert len(mus) == len(ref) and np.max(np.abs(mus - ref)) < 2e-7


def _iv_arc(iv, cf, w0, w1, shift, p):
    """The upper end of _arc_test's S and the lower end of |a_0| at the node
    shift + w0, for the arc to shift + w1, in interval arithmetic from the
    same float data (delta as _arc_test takes it)."""
    zr, zi = iv.mpf(float(shift)) + iv.mpf(w0.real), iv.mpf(w0.imag)
    rho = iv.sqrt((iv.mpf(w1.real) - iv.mpf(w0.real)) ** 2 + (iv.mpf(w1.imag) - iv.mpf(w0.imag)) ** 2)
    a = [[iv.mpf(j == 0), iv.mpf(0)] for j in range(p + 1)]
    s = iv.mpf(0)
    for lam_n, c_n in zip(cf.lam1, cf.c1):
        dr, di = iv.mpf(float(lam_n)) - zr, -zi
        den = dr * dr + di * di
        dist = iv.sqrt(den)
        tr, ti = iv.mpf(c_n.real), iv.mpf(c_n.imag)
        for j in range(p + 1):  # t = c / d^(j+1), one quotient at a time
            tr, ti = (tr * dr + ti * di) / den, (ti * dr - tr * di) / den
            a[j][0] += tr
            a[j][1] += ti
        s += _iv_modulus(iv, complex(c_n)) * (rho / dist) ** (p + 1) / (dist - rho)
    for j in range(1, p + 1):
        s += iv.sqrt(a[j][0] ** 2 + a[j][1] ** 2) * rho**j
    if cf.tail_total:
        delta = cf.delta_unrepresented(np.array([shift + w0]))[0]
        s += iv.mpf(cf.tail_total) / (iv.mpf(float(delta)) - rho)
    return s.b, iv.sqrt(a[0][0] ** 2 + a[0][1] ** 2).a


def test_arc_certificate_holds_in_interval_arithmetic(zspec):
    # random power-tail instances and arcs; every c_n, turned so that F(z) =
    # 1 - f |G(z)| at the arc's first node, and the tail scaled by f, with f
    # on a grid of ulps around where the float check starts to accept: the
    # check never accepts an arc whose interval S reaches |a_0|
    from mpmath import iv

    rng = np.random.default_rng(14)
    outcomes = []
    prec, iv.prec = iv.prec, 113  # intervals far narrower than the allowance
    try:
        _arc_checks(iv, zspec, rng, outcomes)
    finally:
        iv.prec = prec
    assert 100 < sum(outcomes) < len(outcomes) - 100


def _arc_checks(iv, zspec, rng, outcomes):
    for _ in range(3):
        tail = PowerTail(beta=float(rng.uniform(1.2, 3.0)), scale=float(rng.uniform(0.05, 0.5)), phase=0.3)
        head = rng.uniform(-0.3, 0.3, 7) + 1j * rng.uniform(-0.3, 0.3, 7)
        coeffs = PerturbationCoefficients(
            a_head_offset=-3, a_head=(1.0,) * 7, a_tail=tail,
            b_head_offset=-3, b_head=tuple(head), b_tail=tail,
        )  # fmt: skip
        cf = CharacteristicFunction.build(zspec, coeffs, 6)
        assert cf.tail_total > 0.0
        for _ in range(3):
            center = np.array([rng.uniform(-3, 3) + 1j * rng.uniform(-0.3, 0.3)])
            shift = direct._shift(cf, center)
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 0.3)
            w0, w1 = (center - shift) + r * np.exp(1j * (theta + np.array([0.0, 2 * np.pi / direct.ARC_START])))
            w0, w1, rho = w0[None], w1[None], direct._modulus(w1 - w0)[None]
            g = complex(cf.taylor(w0, 0, shift)[0, 0]) - 1.0
            turn = -abs(g) / g

            def scaled(f):
                return dataclasses.replace(cf, c1=(f * turn) * cf.c1, tail_total=f * cf.tail_total)

            lo, hi = 0.0, 1.0 / abs(g)  # F = 1 passes, F = 0 fails
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if direct._arc_test(scaled(mid), w0, shift, rho, 3)[1][0] else (lo, mid)
            for ulps in range(-40, 41, 2):
                sc = scaled(lo * (1.0 + ulps * direct.UNIT_ROUNDOFF))
                accepted = bool(direct._arc_test(sc, w0, shift, rho, 3)[1][0])
                if accepted:
                    s_hi, a0_lo = _iv_arc(iv, sc, w0[0], w1[0], float(shift[0]), 3)
                    assert s_hi < a0_lo, ulps
                outcomes.append(accepted)


def test_wide_window_localization_memory_stays_bounded(zspec):
    # 401 window indices; the Rouche checks run in blocks of _CHUNK disks x
    # terms and the kernel in chunks of _CHUNK terms x points, and
    # the localization peaks at about 0.4 MB
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


def _beside_lambda_0(zspec, nu_1, monkeypatch=None):
    """solve_direct on lambda_n = n with nu_1 and nu_2 = 2.3 + 0.1i moved:
    c_0 = 0, so lambda_0 = 0 is retained; with monkeypatch, also the
    centres and radii of the last arc walk."""
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(1, (complex(nu_1), 2.3 + 0.1j)))
    coeffs = validate_coefficients(coeffs, zspec)
    assert coeffs.c_at(0) == 0.0
    walks = []
    if monkeypatch is not None:
        arc_walk = direct._arc_walk
        spy = lambda cf, centers, radii, p: walks.append((centers, radii)) or arc_walk(cf, centers, radii, p)
        monkeypatch.setattr(direct, "_arc_walk", spy)
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    near = np.abs(ps.mu.real) < 0.5
    rows = list(zip(*(x[near].tolist() for x in (ps.mu, ps.mult, ps.origin, ps.paired_index))))
    return rows, loc, walks[-1] if walks else None


def test_a_zero_1e_9_from_a_retained_eigenvalue_is_a_second_eigenvalue(zspec):
    # nu_1 = 1e-9: B has 0 and 1e-9 as two simple eigenvalues, where a
    # tolerance of 1e-7 d max(1, |lambda_n|) once merged the zero into
    # lambda_0 as one entry of multiplicity 2
    (common, zero) = _beside_lambda_0(zspec, 1e-9)[0]
    assert common == (0j, 1, ORIGIN_COMMON, 0)
    assert abs(zero[0] - 1e-9) < 1e-15 and zero[1:] == (1, ORIGIN_ZERO, 1)


def test_a_retained_eigenvalue_inside_a_circle_that_fails_the_round_off_test_stays_apart(zspec, monkeypatch):
    # nu_1 = 1e-12, five orders below the old tolerance: lambda_0 lies inside
    # the zero's order circle, but F(0) is far above its round-off, so the
    # zero keeps its place and lambda_0 its own entry
    rows, loc, (centers, radii) = _beside_lambda_0(zspec, 1e-12, monkeypatch)
    z = loc.central[0][0]
    assert abs(z - 1e-12) < 1e-14
    (i,) = np.flatnonzero(np.asarray(centers) == z)
    assert abs(z) < np.broadcast_to(radii, len(centers))[i]
    assert not direct._multiple_to_roundoff(loc.cf, np.zeros(1), 1)
    assert [r[1:] for r in rows] == [(1, ORIGIN_COMMON, 0), (1, ORIGIN_ZERO, 1)]


def test_a_zero_within_round_off_of_a_retained_eigenvalue_lands_on_it(zspec):
    # nu_1 = 1e-17, below F's round-off at 0: the zero moves onto lambda_0,
    # which takes multiplicity 2, and its reported residual is |F(0)|
    rows, loc, _ = _beside_lambda_0(zspec, 1e-17)
    assert rows == [(0j, 2, ORIGIN_BOTH, 0)]
    (z, order), _ = loc.central
    assert z == 0 and order == 1
    (central,) = [r for r in loc.reports if r.region_index is None]
    assert (0j, 1, abs(complex(loc.cf.values(np.zeros(1))[0]))) in central.zeros


@pytest.mark.xfail(
    strict=True,
    reason="the round-off test accepts two simple zeros 1.6e-4 apart as one order-2 zero",
)
def test_two_simple_zeros_that_F_separates_are_not_claimed_as_one_double_zero():
    # in 40-digit arithmetic the F this round trip solves has two simple
    # zeros 1.6e-4 apart, 2.58594076 + 1.37e-6i and 2.58578863 - 6.58e-5i.
    # The solve reports one order-2 zero at 2.5858640 - 2.985e-5i, where
    # |a_0| = 7.2e-14 and eta_0 = 1.6e-14: F's values tell the two apart,
    # but ROUNDOFF = 20 widens the radius the round-off test accepts
    # twentyfold.  Two simple eigenvalues, or CertificationFailed, would be
    # honest
    spec = validate_base(
        BaseSpectrum(index_kind="Z", head_offset=0, head=(), tail=AffineTail(1.0, -4.4140603763182416), gap=1.0)
    )
    moved = {
        -6: spec.lambda_at(7),
        -5: 2.5851477941263727 + 0.0011690183354935923j,
        -4: -8.693560889892066 + 0.2910319316102513j,
        -2: -7.413805562866763 - 0.0006014151517804669j,
        3: -1.7051817275378207 + 0.3713120681493248j,
        4: -0.2309898093059281 + 0.20299166146485448j,
        8: 2.5857896208955773 - 6.430657143367542e-05j,
    }
    head = tuple(complex(moved.get(n, spec.lambda_at(n))) for n in range(-6, 9))
    coeffs, _ = inverse.solve_inverse(spec, TargetSpectrum(-6, head))
    coeffs = validate_coefficients(coeffs, spec)
    try:
        ps, _ = solve_direct(spec, coeffs, LocalizeOptions(window=12, n_trunc=40))
    except errors.CertificationFailed:
        return
    near = (np.abs(ps.mu - 2.5858640) < 1e-3) & (ps.origin == ORIGIN_ZERO)
    zeros = sorted(zip(ps.mu[near].tolist(), ps.mult[near].tolist()), key=lambda t: t[0].real)
    expected = [2.58578863476578 - 6.581870266263e-05j, 2.58594076195977 + 1.36622612604e-06j]
    assert [m for _, m in zeros] == [1, 1]
    assert all(abs(z - e) < 1e-9 for (z, _), e in zip(zeros, expected))


def _sweep_round_trip(i):
    """Round trip i (200..399) of tests/sweep.py, drawn as sweep.run draws
    it, solved as it solves it: (spectrum, F's cut)."""
    rng = np.random.default_rng(2026)
    for _ in range(sweep.COUNT):
        sweep.direct_instance(rng)
    for _ in range(sweep.COUNT, i + 1):
        target, _ = sweep.roundtrip_instance(rng)
    spec = sweep.base()
    coeffs, _ = inverse.solve_inverse(spec, validate_target(target, spec))
    ps, loc = solve_direct(spec, validate_coefficients(coeffs, spec), sweep.OPTS)
    return ps, loc.cf


def _zeros_of_F(cf, dps):
    """F's zeros to dps digits, F cut to its terms with no tail: the
    eigenvalues of diag(lambda_n) + c 1^T over I1, from the solver's own
    double c_n (mpmath's eig)."""
    from mpmath import mp

    with mp.workdps(dps):
        a = mp.matrix([[mp.mpc(complex(c)) for _ in cf.c1] for c in cf.c1])
        for j, lam_n in enumerate(cf.lam1.tolist()):
            a[j, j] += lam_n
        e = mp.eig(a, left=False, right=False)
        # mpmath gives a 1 x 1 matrix's eigenvectors too
        return np.array([complex(x) for x in (e[0] if len(cf.c1) == 1 else e)])


@pytest.mark.xfail(
    strict=True,
    reason="items 3 and 18: certified simple zeros lie 3.6e-8 to 3.9e-7 from F's zeros, with no radius",
)
def test_the_zeros_of_a_three_point_cluster_are_those_of_the_solvers_own_F():
    # sweep instance 287, a three-point cluster: the solve certifies three
    # simple zeros, each 3.6e-8, 5.8e-8 and 3.9e-7 from the nearest
    # 60-digit zero of the F it was given.  Input rounding is not the
    # cause: the reference is built from the solver's own c_n.  Each should
    # lie within 1e-14 (1 + |mu|) of its zero
    ps, cf = _sweep_round_trip(287)
    zeros = ps.mu[ps.origin == ORIGIN_ZERO]
    assert len(zeros) == 3 and ps.mult[ps.origin == ORIGIN_ZERO].tolist() == [1, 1, 1]
    off = np.abs(zeros[:, np.newaxis] - _zeros_of_F(cf, 60)).min(axis=1)
    assert np.all(off <= 1e-14 * (1.0 + np.abs(zeros))), off


@pytest.mark.xfail(strict=True, reason="item 5: three simple zeros up to 3.9e-4 apart come out as one triple entry")
def test_three_simple_zeros_of_a_rounded_triple_point_are_not_one_entry_of_multiplicity_3():
    # sweep instance 240, a triple point through solve_inverse: the rounded
    # c_n give an F whose 90-digit zeros near the point are three simple
    # ones, up to 3.9e-4 apart, and the solve returns one entry of mult 3
    # within 2.2e-4 of them.  Three simple zeros, or a cluster entry whose
    # radius holds all three, would be honest
    ps, cf = _sweep_round_trip(240)
    zeros = _zeros_of_F(cf, 90)
    near = zeros[np.abs(zeros - (-2.4787 - 0.3015j)) < 1e-3]
    gaps = np.abs(near[:, np.newaxis] - near)[np.triu_indices(3, 1)]
    assert len(near) == 3 and 1e-5 < gaps.min() and gaps.max() < 4e-4
    assert 3 not in ps.mult.tolist()


@pytest.mark.xfail(
    strict=True,
    reason="items 3 and 5: two simple zeros 1.04e-6 apart come out as one double entry 5.2e-7 from each",
)
def test_the_two_zeros_of_the_widest_rounded_double_point_are_not_one_entry_of_multiplicity_2():
    # sweep instance 337, the sweep's widest double point through
    # solve_inverse: the rounded c_n give an F whose 50-digit zeros near the
    # point are two simple ones 1.04e-6 apart, and the solve returns one
    # entry of mult 2 at 4.37061 - 0.10216i, 5.2e-7 from each.  Two simple
    # zeros, or a cluster entry whose radius holds both, would be honest
    ps, cf = _sweep_round_trip(337)
    zeros = _zeros_of_F(cf, 50)
    near = zeros[np.abs(zeros - (4.37061 - 0.10216j)) < 1e-4]
    assert len(near) == 2 and 1e-6 < abs(near[0] - near[1]) < 1.1e-6
    assert 2 not in ps.mult.tolist()


def test_assign_reaches_the_least_total_cost_of_scipy():
    from scipy.optimize import linear_sum_assignment

    rows, cols = direct._assign(np.zeros((0, 0)))
    assert rows.shape == cols.shape == (0,)
    with pytest.raises(ValueError, match="infeasible"):
        direct._assign(np.array([[1.0, np.nan], [np.nan, np.nan]]))
    rng = np.random.default_rng(17)
    for n in range(9):
        for trial in range(40):
            cost = rng.uniform(0.0, 3.0, (n, n))
            if trial % 4 == 1:
                cost = np.round(cost)  # ties between whole assignments
            elif trial % 4 == 2 and n:
                cost = cost[rng.integers(0, n, n)]  # repeated rows: one slot per unit of order
            elif trial % 4 == 3 and n:
                cost = np.round(cost[rng.integers(0, n, n)], 1)
            rows, cols = direct._assign(cost)
            assert rows.tolist() == list(range(n)) and sorted(cols.tolist()) == list(range(n))
            best_rows, best_cols = linear_sum_assignment(cost)
            assert abs(cost[rows, cols].sum() - cost[best_rows, best_cols].sum()) <= 1e-12


# ---------------------------------------------------------------------------
# batched Newton


@np.errstate(divide="ignore", invalid="ignore")
def _newton_by_loop(cf, seed, order):
    # the one-seed loop: the location, or None
    lam_c = float(direct._shift(cf, np.array([complex(seed)]))[0])
    w, step = complex(seed) - lam_c, np.inf
    fac = math.factorial(order - 1)
    for _ in range(direct.NEWTON_MAX_ITER):
        a = cf.taylor(np.array([w]), order, lam_c)[:, 0]
        g, gp = fac * a[order - 1], math.factorial(order) * a[order]
        new_step = g / gp
        start, w = w, w - new_step
        size = abs(new_step)
        if size < 1e-16 * (1.0 + abs(lam_c) + abs(w)):
            break
        if not size < step:
            if not size < 10.0 * (step + 1.0):
                return None
            noise = fac * direct._noise(cf, np.array([lam_c + start]), [order - 1])[0, 0]
            if size <= direct.ROUNDOFF * noise / abs(gp):
                break
        step = size
    else:
        return None
    return lam_c + w


def test_batched_newton_equals_the_one_seed_loop(zspec, double_cf):
    # seeds near simple zeros; on the double zero (F = F' = 0 there: a NaN
    # step) and near it, where steps shrink by half until round-off settles
    # them; near it at order 2; far out where Newton diverges; and next to
    # a zero 1e-12 from its pole
    rng = np.random.default_rng(3)
    cf = CharacteristicFunction.build(zspec, random_finite_instance(rng, radius=10), 20)
    near_pole_cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 3: 1e-12}), 20)
    cases = [(cf, 1, rng.uniform(-12, 12, 40) + 1j * rng.uniform(-1, 1, 40))]
    cases += [(double_cf, 1, [0.5, 0.3, 0.7 + 0.1j, 1e6j]), (double_cf, 2, [0.47, 0.52 - 0.01j, 0.5])]
    cases += [(near_pole_cf, 1, [3.0 + 1e-12, 3.0 + 2e-12j, 0.28])]
    outcomes = set()
    for cf, order, seeds in cases:
        z, ok = direct._newton(cf, seeds, order)
        for j, seed in enumerate(seeds):
            ref = _newton_by_loop(cf, seed, order)
            assert ok[j] == (ref is not None)
            if ok[j]:
                assert z[j] == ref
            outcomes.add(bool(ok[j]))
    assert outcomes == {True, False}


def _kernel_calls(monkeypatch):
    # the number of points of each kernel call, as a list that fills as
    # the calls are made
    calls, kernel = [], _kernels.pole_taylor

    def spy(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(_kernels, "pole_taylor", spy)
    return calls


def test_newton_converges_next_to_a_pole(zspec, monkeypatch):
    # seeds near the two zeros: the one 1e-12 from its pole converges in
    # three steps, the other in five, and no kernel call follows the last step
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 3: 1e-12}), 20)
    calls = _kernel_calls(monkeypatch)
    z, ok = direct._newton(cf, [0.28, 3.0 + 1e-12], 1)
    assert ok.all() and np.allclose(z, [0.3 / (1.0 + 1e-12 / 2.7), 3.0 + 1e-12 / 0.9], rtol=0, atol=1e-15)
    assert calls == [2, 2, 2, 1, 1]


def test_newton_diverges_from_beside_a_pole_after_43_steps(zspec, monkeypatch):
    # from 0.6 the first step lands within rounding of the pole 0, on the far
    # side from the zero 0.3; there F is about -c_0 / z, so each step doubles
    # z, within ten times the last, until a step grows past that and the
    # point diverges, after 43 kernel calls, one a step
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 3: 1e-12}), 20)
    calls = _kernel_calls(monkeypatch)
    z, ok = direct._newton(cf, [0.6], 1)
    assert calls == [1] * 43
    assert not ok[0] and z[0].real < -1.0


def test_newton_settles_only_within_the_roundoff_floor(zspec, monkeypatch):
    # the points from 0.6 double their distance from the pole 0 (-3.75e-13,
    # -7.5e-13, -1.5e-12, ...): every step grows, within ten times the last,
    # and stays far above the round-off floor, about 20e-15 times that
    # distance, so no step settles the point.  Had the floor also taken
    # 1e-12 (1 + |shift|), the step to -1.5e-12 would settle it, where |F|
    # is about 2e11
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 3: 1e-12}), 20)
    points, pole_taylor = [], _kernels.pole_taylor

    def spy(c, poles, z, p):
        # Newton hands the kernel its poles lambda_n - shift: shift is lambda_n less them
        points.extend(cf.lam1[0] - poles[0] + z)
        return pole_taylor(c, poles, z, p)

    monkeypatch.setattr(_kernels, "pole_taylor", spy)
    _, ok = direct._newton(cf, [0.6], 1)
    monkeypatch.undo()
    assert not ok[0]
    z = np.array(points)
    landed = z[1:][np.abs(np.diff(z)) < 1e-12]
    assert len(landed) and np.abs(cf.values(landed)).min() > 1e11


def test_newton_fails_where_the_derivative_vanishes(zspec, monkeypatch):
    # F' = 0.3/0.25 - 0.3/0.25 = 0 exactly at 0.5, where F = -0.2: the first
    # step is infinite, the point fails there, as on a pole, with no warning
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 1: -0.3}), 10)
    assert cf.taylor(np.array([0.5]), 1)[1, 0] == 0.0
    calls = _kernel_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok = direct._newton(cf, [0.5], 1)
    assert calls == [1] and not ok[0]


def test_newton_fails_a_point_still_moving_at_the_iteration_cap(zspec, monkeypatch):
    # from 0.28 the steps shrink to about 1e-8 in three steps and converge
    # in the fourth: with the cap at three steps the point is still moving
    # there and fails, where its third step landed
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3, 3: 0.2}), 20)
    zero, ok = direct._newton(cf, [0.28], 1)
    assert ok[0]
    calls = _kernel_calls(monkeypatch)
    monkeypatch.setattr(direct, "NEWTON_MAX_ITER", 3)
    z, ok = direct._newton(cf, [0.28], 1)
    assert calls == [1, 1, 1]
    assert not ok[0] and abs(z[0] - zero[0]) < 1e-6


def test_newton_gives_each_point_what_it_gives_that_point_alone(zspec, monkeypatch):
    # no point's steps depend on the others: each point of a pass lands, bit
    # for bit, where a pass from its seed alone puts it, as the live set
    # shrinks.  Poles gathered by fancy indexing (poles[:, move], columns in
    # Fortran order, which numpy sums pairwise) would move 16 of the 247
    # Newton points of the benchmark's finite_batch seed 1 in the last bit.
    # The instances take a tail, so that _localize_attempt solves them
    calls, newton = [], direct._newton

    def spy(cf, seeds, order, shift=None):
        out = newton(cf, seeds, order, shift)
        calls.append((cf, np.array(seeds, dtype=complex), order, shift, out))
        return out

    monkeypatch.setattr(direct, "_newton", spy)
    rng = np.random.default_rng(1)
    for _ in range(50):
        solve_direct(zspec, with_tail(random_finite_instance(rng), 41), LocalizeOptions(window=41, n_trunc=49))
    monkeypatch.undo()
    points = 0
    for cf, seeds, order, shift, (z, ok) in calls:
        for i in range(len(seeds)):
            one = newton(cf, seeds[i : i + 1], order, None if shift is None else shift[i : i + 1])
            assert one[0].tobytes() == z[i : i + 1].tobytes() and one[1][0] == ok[i], (seeds, i)
        points += len(seeds)
    assert points > 200


def test_newton_settles_beside_a_double_point(monkeypatch):
    # on N from 1 with lambda_n = s n and gap s, a target with a double point
    # at 7.4195 - 0.2145i: the two eigen-seeds beside it converge by halving
    # steps until round-off settles them, where they used to run to the
    # 80-step cap (82 kernel calls for the pass); the order circles then
    # merge them into the double zero, and the round trip gives the target
    spec, target, double = settling_double_point()
    coeffs, _ = inverse.solve_inverse(spec, target)
    calls, passes, newton = _kernel_calls(monkeypatch), [], direct._newton

    def newton_spy(cf, seeds, order, shift=None):
        before = len(calls)
        result = newton(cf, seeds, order, shift)
        passes.append((order, len(result[0]), len(calls) - before))
        return result

    monkeypatch.setattr(direct, "_newton", newton_spy)
    ps, loc = solve_direct(spec, validate_coefficients(coeffs, spec), LocalizeOptions())
    reference = target.nu_at(spec.window_indices(loc.window), spec)
    _, worst = oracle.compare_spectra(ps, reference, 1e-10)
    assert ps.certified and worst < 1e-15
    assert [(order, n) for order, n, _ in passes] == [(1, 7), (2, 1)]
    assert passes[0][2] <= 30
    assert [(z, m) for z, m in loc.central if m > 1] == [(pytest.approx(double, abs=1e-15), 2)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_outer_zero_just_above_the_smallest_normal_double_certifies(zspec):
    # c_6 = 2.3e-308: S0_0 = |c_6| / 36 has nearly underflowed, and rho_0's
    # |c_0| / S0_0 overflowed to inf with a RuntimeWarning (fmin(r, inf) = r
    # all the same); a c_n below 2^-1022 is rejected by validation
    coeffs = validate_coefficients(finite_coeffs({0: 0.3, 6: 2.3e-308}), zspec)
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    assert oracle.compare_spectra(ps, ref, 1e-15)[0]


def test_one_order_one_newton_pass_per_localization_attempt(zspec, monkeypatch):
    # c_6 = 0.01 puts a zero in the outer disk around index 6 (K' = 1), and
    # c_0, c_1 two zeros in central disks that Rouche certifies: all three
    # seeds lambda_k + w_k, w_k the root of beta_k w + beta'_k w^2 = c_k
    # (about 0.2510, 1.0994 and 6.0106, the zeros 0.2496, 1.0997 and
    # 6.0106), in index order, are polished by one order-1 _newton call, with
    # no eigen-seed.  The tail of 1e-12 |n|^-3 sends the solve to
    # _localize_attempt
    newton, attempt, calls, attempts = direct._newton, direct._localize_attempt, [], []

    def newton_spy(cf, seeds, order, shift=None):
        points = seeds if shift is None else shift + seeds
        calls.append((order, np.round(points, 2).tolist()))
        return newton(cf, seeds, order, shift)

    def attempt_spy(*args):
        attempts.append(args)
        return attempt(*args)

    monkeypatch.setattr(direct, "_newton", newton_spy)
    monkeypatch.setattr(direct, "_localize_attempt", attempt_spy)
    loc = localize_spectrum(zspec, with_tail(finite_coeffs({0: 0.275, 1: 0.075, 6: 0.01}), 8), OPTS)
    assert len(attempts) == 1 and calls == [(1, [0.25, 1.1, 6.01])]
    zeros = {r.region_index: [round(z.real, 2) for z, _, _ in r.zeros] for r in loc.reports if r.zeros}
    assert zeros == {6: [6.01], None: [0.25, 1.1]}


def test_an_easy_solve_makes_a_fixed_number_of_kernel_and_model_calls(zspec, monkeypatch):
    # every disk certifies, so a solve pays for one Newton pass and nothing
    # else: kernel passes are Newton's steps alone, and the coefficients are
    # evaluated once (charfn.Terms: c_range, beyond the heads +0 with no b
    # tail, and over them one _product kept on the coefficients, two _eval
    # calls, a and b), from one head_radius; K', the window, the
    # rectangle's ends and the tail sums are sliced from them.  The
    # eigenvalues are sliced from the spectrum's run, evaluated again only
    # when a solve reaches past it: the batch-shaped solve widens it
    # (n_trunc 49 against 20), and the same solve again evaluates neither.
    # The solve enters np.errstate once, for all its helpers, and its disks
    # take one Rouche block.  Padded with c_n = 1e-9 past EIGEN_MAX, each
    # input goes to _localize_attempt and no eigensolver runs; as it is, it
    # goes to _eigen_attempt: one eigvals, one kernel pass (_discs), no
    # Rouche block
    keys = ["sums", "eval", "lambda_range", "head_radius", "errstate", "rouche_block", "eigvals"]
    counts = dict.fromkeys(keys, 0)

    def counting(key, f):
        def spy(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return spy

    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    monkeypatch.setattr(direct, "_rouche_block", counting("rouche_block", direct._rouche_block))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(_kernels, "pole_taylor", counting("sums", _kernels.pole_taylor))
    evaluate = counting("eval", PerturbationCoefficients._eval)
    monkeypatch.setattr(PerturbationCoefficients, "_eval", staticmethod(evaluate))
    monkeypatch.setattr(BaseSpectrum, "lambda_range", counting("lambda_range", BaseSpectrum.lambda_range))
    head_radius = counting("head_radius", PerturbationCoefficients.head_radius)
    monkeypatch.setattr(PerturbationCoefficients, "head_radius", head_radius)
    hand_c = {0: 0.275, 1: 0.075, 6: 0.01}
    # shaped like a finite_batch instance: 5 terms on |n| <= 40, window 41
    batch_c = {-31: 0.21 - 0.08j, -4: 0.05 + 0.17j, 9: -0.12 + 0.2j, 17: 0.28j, 30: -0.09 - 0.03j}
    batch_opts = LocalizeOptions(window=41, n_trunc=49)
    padded, plain = past_eigen_max(batch_c, 41), finite_coeffs(batch_c)
    for coeffs, opts, expected in (
        (past_eigen_max(hand_c), OPTS, [4, 2, 1, 1, 1, 1, 0]),
        (padded, batch_opts, [3, 2, 1, 1, 1, 1, 0]),
        (padded, batch_opts, [3, 0, 0, 1, 1, 1, 0]),
        (finite_coeffs(hand_c), OPTS, [1, 2, 0, 1, 1, 0, 1]),
        (plain, batch_opts, [1, 2, 0, 1, 1, 0, 1]),
        (plain, batch_opts, [1, 0, 0, 1, 1, 0, 1]),
    ):
        counts.update(dict.fromkeys(counts, 0))
        ps, loc = solve_direct(zspec, coeffs, opts)
        assert not loc.central and ps.certified
        assert list(counts.values()) == expected, (list(counts.values()), expected)


def test_second_order_seeds_start_nearer_the_zero_than_first_order_ones(zspec):
    # every certified disk's seed lambda_k + w_k lies nearer its polished
    # zero than lambda_k + c_k / beta_k did, by half at least; the zeros of
    # {0: 0.275, 1: 0.075} are 1/4 and 11/10 exactly
    for c_by_index in (
        {0: 0.275, 1: 0.075},
        {0: 0.275, 1: 0.075, 6: 0.01},
        {-3: 0.2 + 0.1j, 2: -0.15j, 5: 0.05},
    ):
        loc = localize_spectrum(zspec, finite_coeffs(c_by_index), OPTS)
        (own, lam, w, rho), (hard, _) = direct._disks(loc.cf, loc.k_prime, loc.window, zspec.gap)
        c = loc.cf.c[np.searchsorted(loc.cf.idx, own)]
        _, _, (beta, _, _) = direct._rouche(loc.cf, own, lam, c, 0.5, np.abs(own) <= loc.k_prime)
        owned_idx, owned_z = loc.owned
        assert sorted(owned_idx.tolist()) == sorted(c_by_index) and not loc.central
        assert own.tolist() == owned_idx.tolist() and not len(hard)  # every disk owned
        second = np.abs(lam + w - owned_z)
        first = np.abs(lam + c / beta - owned_z)
        assert np.all(second < 0.5 * first), (second, first)
        assert np.all(np.abs(w) < 2.0 * rho)
    loc = localize_spectrum(zspec, finite_coeffs({0: 0.275, 1: 0.075}), OPTS)
    assert np.allclose(loc.owned[1], [0.25, 1.1], rtol=0, atol=1e-15)


def test_assembly_gives_the_same_columns_with_and_without_central_zeros(zspec):
    # c_0 = 0: index 0 is in I0, between the two certified central disks
    # around -1 and 1.  Handed to assembly as central zeros instead of owned
    # ones, their zeros go to the free indices -1 and 1 by least distance,
    # and every column comes out the same
    coeffs = finite_coeffs({-1: 0.2, 0: 0.0, 1: 0.1 + 0.05j, 6: 0.01})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    idx, z = loc.owned
    inner = np.abs(idx) <= loc.k_prime
    assert idx[inner].tolist() == [-1, 1] and not loc.central
    moved = dataclasses.replace(
        loc,
        owned=tuple(x[~inner] for x in loc.owned),
        central=[(complex(a), 1) for a in z[inner]],
    )
    ps, again = assemble_spectrum(zspec, coeffs, loc), assemble_spectrum(zspec, coeffs, moved)
    assert ps.origin[ps.paired_index == 0].tolist() == [ORIGIN_COMMON]
    for field in dataclasses.fields(ps):
        assert np.array_equal(getattr(again, field.name), getattr(ps, field.name)), field.name


def test_outer_disks_and_assembly_slice_the_window_data(zspec, monkeypatch):
    # neither evaluates lambda_n or c_n again: they slice the window that
    # CharacteristicFunction.build evaluated.  With no tail _disks takes the
    # I1 disks alone; with one (whose tail term reads lambda_n at the two
    # poles that bound the window) every outer disk of the reports too
    coeffs = finite_coeffs({0: 0.275, 1: 0.075, 6: 0.01})
    loc = localize_spectrum(zspec, coeffs, OPTS)
    ps = assemble_spectrum(zspec, coeffs, loc)
    tailed = localize_spectrum(zspec, with_tail(coeffs, 8), OPTS)

    def refuse(*args):
        raise AssertionError("the model was evaluated again")

    monkeypatch.setattr(PerturbationCoefficients, "c_at", refuse)
    monkeypatch.setattr(BaseSpectrum, "lambda_at", refuse)
    again = assemble_spectrum(zspec, coeffs, loc)
    for field in dataclasses.fields(ps):
        assert np.array_equal(getattr(again, field.name), getattr(ps, field.name)), field.name
    (idx, lam, _, _), hard = direct._disks(loc.cf, loc.k_prime, loc.window, zspec.gap)
    assert idx.tolist() == lam.tolist() == [0, 1, 6] and not any(map(len, hard))
    monkeypatch.undo()
    # the c_k = 0 outer disks certify and own no zero: the tailed solve owns the same three
    (idx, lam, _, _), hard = direct._disks(tailed.cf, tailed.k_prime, tailed.window, zspec.gap)
    assert idx.tolist() == lam.tolist() == [0, 1, 6] and not any(map(len, hard))
    outer = [r.region_index for r in tailed.reports if r.region_index is not None]
    win = tailed.cf.window(tailed.window)
    assert outer == [k for k in tailed.cf.idx[win].tolist() if abs(k) > tailed.k_prime] and outer


# ---------------------------------------------------------------------------
# Newton near its noise floor


def test_noisy_simple_zero_stops_at_its_round_off_step(zspec):
    # c_n up to 1620 and F'(1) = 1/720: Newton's last steps near the simple
    # zero at 1 cycle around 1e-11, above 1e-12 (1 + |shift|) but within the
    # step the noise of F allows; before, every n_trunc up to 20480 failed
    # with "no zero of order 1 found near 1"
    coeffs, _ = inverse.solve_inverse(zspec, TargetSpectrum(0, (0.0,) * 6 + (1.0,) * 2))
    ps, _ = solve_direct(zspec, coeffs, LocalizeOptions(window=12, n_trunc=40))
    near = np.abs(ps.mu) < 2.5
    assert ps.mult[near].tolist() == [1, 1, 6, 2]
    assert np.allclose(ps.mu[near], [-2.0, -1.0, 0.0, 1.0], rtol=0, atol=1e-8)


def test_simple_zero_next_to_its_pole_is_not_stopped_early(zspec):
    # the zero 1e-12 from lambda_3 has |F'| about 1e12: a step below
    # 1e-16 (1 + |shift| + |w|) still moved w by 1e-5 of itself and left a
    # residual above tol, and every n_trunc up to 25600 failed to certify
    coeffs = finite_coeffs({0: 0.3, 3: 1e-12})
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=40, n_trunc=50))
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-10 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"
    (z,) = [z for z, _, _ in loc.all_zeros() if abs(z - 3.0) < 0.5]
    assert abs(z - (3.0 + 1e-12 / 0.9)) < 1e-15


def test_lone_central_seed_next_to_its_pole_is_polished_from_the_pole(zspec):
    # the zero about 2.2e-16 left of lambda_1 = 1: the eigenvalue seed lands
    # on the far side of the pole, Newton from it does not converge, and the
    # one-member group raised "no zero of order 1 found near 1+0j"
    coeffs = finite_coeffs({0: 0.1, 1: -2e-16})
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    assert ps.certified
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-15)
    assert ok, f"worst deviation {worst:.3e}"


@pytest.mark.parametrize("c_1", [1e-16, 3e-17])
def test_lone_central_seed_within_half_an_ulp_of_its_pole(zspec, c_1):
    # the zero lies c_1 / 0.9 right of lambda_1 = 1, within half an ulp of
    # it: the retry seed lambda_1 + c_1 rounded to the pole itself, and the
    # solve raised "no zero of order 1 found near 1+0j" after divide-by-zero
    # warnings; the retry starts at w = c_1 about the shift lambda_1
    coeffs = finite_coeffs({0: 0.1, 1: c_1})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps, loc = solve_direct(zspec, coeffs, OPTS)
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-15)
    assert ok, f"worst deviation {worst:.3e}"


@pytest.mark.parametrize("c_6", [1e-16, 3e-17])
def test_outer_disk_seed_within_half_an_ulp_of_its_pole(zspec, c_6):
    # the zero in the outer disk around index 6 (K' = 1) lies about c_6
    # right of lambda_6 = 6, within half an ulp of it: the seed lambda_6 +
    # c_6 rounded to the pole itself, and the solve raised "Newton from
    # 6+0j found no zero in the disk around index 6"; the seed is now the
    # offset w_6 (close to c_6) from the shift lambda_6
    coeffs = finite_coeffs({0: 0.1, 6: c_6})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps, loc = solve_direct(zspec, coeffs, OPTS)
    (disk,) = [r for r in loc.reports if r.region_index == 6]
    assert len(disk.zeros) == 1
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-15)
    assert ok, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# central disks certified by Rouche, and eigen-seeds for the ones left


def _dense_coeffs(radius, pinned=()):
    """c_n = 1e-3 e^(i phi_n) on |n| <= radius, phases drawn with seed 0,
    but the (n, c_n) pairs pinned."""
    phi = np.random.default_rng(0).uniform(0, 2 * np.pi, 2 * radius + 1)
    c = {n: 1e-3 * np.exp(1j * p) for n, p in zip(range(-radius, radius + 1), phi)}
    return finite_coeffs(c | dict(pinned))


@pytest.mark.parametrize(
    "coeffs, opts",
    [
        (with_tail(finite_coeffs({0: 0.05, 3: 0.05}), 8), OPTS),
        (_dense_coeffs(100), LocalizeOptions(window=100, n_trunc=108)),
    ],
)
def test_certified_central_disks_need_no_eigen_seeds_or_arc_walk(zspec, monkeypatch, coeffs, opts):
    # every central disk certifies by Rouche and holds one simple zero,
    # polished from its seed in the one Newton pass: no eigenvalue solve, no
    # order circle.  The first input has a tail, the second 201 terms, so
    # that _localize_attempt solves both
    def refuse(*args, **kwargs):
        raise AssertionError("called on a solve whose central disks all certify")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(direct, "_arc_walk", refuse)
    ps, loc = solve_direct(zspec, coeffs, opts)
    monkeypatch.undo()
    (central,) = [r for r in loc.reports if r.region_index is None]
    n_poles = np.count_nonzero(np.abs(loc.cf.idx1) <= loc.k_prime)
    assert len(central.zeros) == n_poles > 0 and all(m == 1 for _, m, _ in central.zeros)
    assert central.zeros == sorted(central.zeros, key=lambda t: (t[0].real, t[0].imag))
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-10 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


def test_rouche_on_central_disks_where_c_k_exceeds_the_radius_stays_quiet():
    # random_base/random_coeffs rng 0, instance 27: on central disks with
    # |c_k| >= r, gamma was inf, and s (1 + gamma) or g (1 - gamma) gave
    # "invalid value encountered in multiply"
    rng = np.random.default_rng(0)
    for _ in range(28):
        spec = random_base(rng)
        coeffs = validate_coefficients(random_coeffs(rng, spec), spec)
    d = spec.gap
    _, k_prime = compute_Keps(spec, coeffs, d / (2.0 + d))
    cf = CharacteristicFunction.build(spec, coeffs, 60)
    central = (np.abs(cf.idx) <= k_prime) & (cf.c != 0)
    idx, lam, c = cf.idx[central], cf.lam[central], cf.c[central]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin, certified, _ = direct._rouche(cf, idx, lam, c, 0.5 * d, np.zeros(len(idx), bool))
        margins = margin()
    large = np.abs(c) >= 0.5 * d
    assert large.any() and not certified[large].any() and np.all(margins[large] == -np.inf)


def _eigvals_shapes(monkeypatch):
    """Spy on np.linalg.eigvals: the list of the matrix shapes it is called on."""
    eigvals, shapes = np.linalg.eigvals, []

    def spy(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return shapes


def test_hard_central_disks_are_seeded_from_their_run(zspec, monkeypatch):
    # K' = 4: the disks around 0 and 1 fail Rouche (the zeros 0.5 -+ 0.44i
    # lie between the poles), the one around 3 certifies, its seed mu_3 =
    # lambda_3 + w_3, w_3 the root of beta_3 w + beta'_3 w^2 = c_3 nearest
    # c_3 / beta_3, with beta_3 = 1 - 0.45/3 + 0.45/2 and beta'_3 = 0.45/9 -
    # 0.45/4.  That zero divided out, the hard zeros are the eigenvalues of
    # the 2 x 2 matrix diag(0, 1) + c~ 1^T, c~_n = c_n (3 - n) / (mu_3 - n);
    # all three seeds go into one order-1 Newton pass.  The tail of 1e-30
    # |n|^-3 sends the solve to _localize_attempt
    newton, calls = direct._newton, []

    def newton_spy(cf, seeds, order, shift=None):
        calls.append((order, shift + seeds))
        return newton(cf, seeds, order, shift)

    monkeypatch.setattr(direct, "_newton", newton_spy)
    shapes = _eigvals_shapes(monkeypatch)
    coeffs = with_tail(finite_coeffs({0: 0.45, 1: -0.45, 3: 0.05}), 8, 1e-30)
    loc = localize_spectrum(zspec, coeffs, OPTS)
    monkeypatch.undo()
    beta, slope = 1.0 - 0.45 / 3.0 + 0.45 / 2.0, 0.45 / 9.0 - 0.45 / 4.0
    mu_3 = 3.0 + 2.0 * 0.05 / (beta + np.sqrt(beta**2 + 4.0 * slope * 0.05))
    c = np.array([0.45 * 3.0 / mu_3, -0.45 * 2.0 / (mu_3 - 1.0)])
    deflated = np.sort_complex(np.linalg.eigvals(np.diag([0.0, 1.0]) + c[:, np.newaxis]))
    assert loc.k_prime == 4 and shapes == [(2, 2)]
    ((order, points),) = calls
    assert order == 1 and abs(points[0] - mu_3) < 1e-15
    assert np.allclose(np.sort_complex(points[1:]), deflated, rtol=0, atol=1e-15)
    (central,) = [r for r in loc.reports if r.region_index is None]
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ref = ref[np.abs(ref - np.round(ref.real)) > 1e-12]  # F's zeros, not the common lambda_n
    assert [m for _, m, _ in central.zeros] == [1, 1, 1]
    assert np.abs(np.array([z for z, _, _ in central.zeros])[:, np.newaxis] - ref).min(axis=1).max() < 1e-13
    # the seeds lie within 3e-5 of the hard zeros
    assert np.abs(deflated[:, np.newaxis] - ref).min(axis=1).max() < 3e-5


def test_hard_pair_at_large_k_prime_takes_one_two_by_two_eigenproblem(zspec, monkeypatch):
    # K' = 37: every central disk but the two around 0 and 1 certifies, and
    # the 73 certified zeros and the window's outer ones are divided out, so
    # the hard pair is seeded by one 2 x 2 eigenvalue solve (not a run block
    # over the 14 poles within 6 gaps)
    shapes = _eigvals_shapes(monkeypatch)
    coeffs = _dense_coeffs(200, {0: 0.45, 1: -0.45})
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=200, n_trunc=208))
    monkeypatch.undo()
    assert loc.k_prime == 37 and shapes == [(2, 2)]
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-10 * (1 + np.max(np.abs(ref))))
    assert ok, f"worst deviation {worst:.3e}"


@pytest.mark.parametrize(
    "pinned, certified",
    [({0: 0.3, 1: 0.3}, [True, False]), ({0: 1.5, 1: 3e-17}, [False, True])],
)
def test_local_pole_model_certifies_a_disk_the_constant_model_left(zspec, monkeypatch, pinned, certified):
    # against 1 + c_k / (lambda_k - z) on radius d/2 both disks failed.
    # c_0 = c_1 = 0.3: beta_0 = 1.3, and |beta_0| - 0.6 - S_0 = 0.4 at rho_0 =
    # d/2, so the zero 0.8 - 0.34^(1/2) is the disk's.  c_1 = 3e-17 beside
    # c_0 = 1.5: beta_1 = -0.5, and the disk of radius (|c_1| / S0_1)^(1/2)
    # = 4.5e-9 holds the zero c_1 / beta_1 from lambda_1, within an ulp.
    # The other disk's zero takes a 1 x 1 eigenproblem.  The tail of 1e-30
    # |n|^-3 sends the solve to _localize_attempt
    coeffs = with_tail(finite_coeffs(pinned), 8, 1e-30)
    loc = localize_spectrum(zspec, coeffs, OPTS)
    (own, _, _, rho), (hard, _) = direct._disks(loc.cf, loc.k_prime, loc.window, zspec.gap)
    central = np.abs(own) <= loc.k_prime
    assert own[central].tolist() == [k for k, ok in zip([0, 1], certified) if ok]
    assert hard.tolist() == [k for k, ok in zip([0.0, 1.0], certified) if not ok]
    assert np.all(rho[central] <= 0.5) and rho[central].min() > 0.0
    shapes = _eigvals_shapes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps, loc = solve_direct(zspec, coeffs, OPTS)
    monkeypatch.undo()
    assert shapes == [(1, 1)]
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-15)
    assert ok, f"worst deviation {worst:.3e}"


@pytest.mark.parametrize("c_0, c_1", [(1.5, 3e-17), (1.5, -5e-17), (0.6, 1e-16)])
def test_lone_seed_retry_starts_on_the_side_of_its_zero(zspec, c_0, c_1):
    # the zero near lambda_1 lies c_1 / beta_1 from it, within an ulp; with
    # c_0 = 1.5, beta_1 = -0.5 puts it on the other side of the pole from
    # c_1.  These inputs once left that zero's seed unpolished and needed a
    # lone-seed retry from c_1 / beta_1, since deleted: its disk now
    # certifies at a radius of a few 1e-9 and Newton polishes the zero from
    # c_1 / beta_1 in the one pass.  Kept as a dense-oracle check
    coeffs = finite_coeffs({0: c_0, 1: c_1})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps, loc = solve_direct(zspec, coeffs, OPTS)
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-15)
    assert ok, f"worst deviation {worst:.3e}"


def test_zero_within_an_ulp_of_its_pole_beside_a_hard_zero_stays_simple(zspec):
    # the zero about lambda_-3 lies within an ulp of it, the one of the pair
    # of large terms at -2.9686, 0.031 away: against 1 + c_k / (lambda_k - z)
    # no central disk certified, the two seeds were grouped, and every solve
    # raised "no zero of order 2 found near -2.96857".  The disk around
    # lambda_-3 now certifies at a radius of its own and holds the first
    coeffs = finite_coeffs({-4: -0.8585678142254348, -2: -1.7748169866553203, -3: 3.66e-18 - 7.05e-18j})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps, loc = solve_direct(zspec, coeffs, OPTS)
    (own, _, _, rho), _ = direct._disks(loc.cf, loc.k_prime, loc.window, zspec.gap)
    assert -3 in own and rho[own == -3] < 1e-8
    near = sorted((z.real, m) for z, m, _ in loc.all_zeros() if abs(z + 3.0) < 0.5)
    assert np.allclose(near, [(-3.0, 1), (-2.968572, 1)], atol=1e-6)
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, loc.window))
    ok, worst = oracle.compare_spectra(ps, ref, 1e-14)
    assert ok, f"worst deviation {worst:.3e}"


def test_random_sweep_matches_the_dense_oracle():
    # random_base/random_coeffs rng 8 (window 40, n_trunc 60): instance 174
    # has a zero at 19.93 - 3.85i, far from any pole: one of five hard
    # zeros, whose poles lie 3.9 to 5.8 gaps apart (seeds from runs of poles
    # split at 3 gaps missed it).  Every 25th instance besides, within the
    # tail bound plus 1e-8 (1 + max |mu|)
    rng = np.random.default_rng(8)
    opts = LocalizeOptions(window=40, n_trunc=60)
    for i in range(175):
        spec = random_base(rng)
        coeffs = validate_coefficients(random_coeffs(rng, spec), spec)
        if i % 25 and i != 174:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ps, loc = solve_direct(spec, coeffs, opts)
        ref = oracle.dense_eigenvalues(oracle.build_truncation(spec, coeffs, loc.window))
        ok, worst = oracle.compare_spectra(ps, ref, ps.tail_bound + 1e-8 * (1 + np.max(np.abs(ref))))
        assert ok, (i, worst)
    assert np.min(np.abs(np.array(ps.eigenvalues()) - (19.93 - 3.85j))) < 5e-3


# ---------------------------------------------------------------------------
# Rouche certificates of the outer disks and the central rectangle


def _iv_modulus(iv, v):
    return iv.sqrt(iv.mpf(v.real) ** 2 + iv.mpf(v.imag) ** 2)


def _iv_rouche_holds(iv, cf, k, lam_k, c_k, rho):
    """S_k < |beta_k| - |c_k| / rho on |z - lambda_k| = rho in interval
    arithmetic, beta_k and S_k from the same float data (delta_k as
    tail_bound_at takes it)."""
    at, rho = iv.mpf(float(lam_k)), iv.mpf(float(rho))
    re, im, s = iv.mpf(1), iv.mpf(0), iv.mpf(0)
    for n, lam_n, c_n in zip(cf.idx1, cf.lam1, cf.c1):
        if n != k:
            diff = iv.mpf(float(lam_n)) - at
            re += iv.mpf(c_n.real) / diff
            im += iv.mpf(c_n.imag) / diff
            s += _iv_modulus(iv, complex(c_n)) * rho / (abs(diff) * (abs(diff) - rho))
    if cf.tail_total:
        s += iv.mpf(cf.tail_total) / (iv.mpf(float(cf.delta_unrepresented(float(lam_k))[0])) - rho)
    return s.b < (iv.sqrt(re**2 + im**2) - _iv_modulus(iv, complex(c_k)) / rho).a


def test_rouche_certificate_holds_in_interval_arithmetic(zspec):
    # random power-tail instances; each disk's c_k, at a random phase, on a
    # grid of ulps about where the float check starts to certify it, at
    # rho = d/2, at a radius below it and at the radius _rouche chooses for
    # a central disk: the check never certifies a disk whose interval S_k
    # reaches |beta_k| - |c_k| / rho
    from mpmath import iv

    rng = np.random.default_rng(11)
    outcomes = []
    prec, iv.prec = iv.prec, 113  # intervals far narrower than the allowance
    try:
        _rouche_checks(iv, zspec, rng, outcomes)
    finally:
        iv.prec = prec
    assert 100 < sum(outcomes) < len(outcomes) - 100


def _rouche_checks(iv, zspec, rng, outcomes):
    for _ in range(3):
        tail = PowerTail(beta=float(rng.uniform(1.2, 3.0)), scale=float(rng.uniform(0.05, 0.5)), phase=0.3)
        head = rng.uniform(-0.2, 0.2, 21) + 1j * rng.uniform(-0.2, 0.2, 21)
        coeffs = PerturbationCoefficients(
            a_head_offset=-10, a_head=(1.0,) * 21, a_tail=tail,
            b_head_offset=-10, b_head=tuple(head), b_tail=tail,
        )  # fmt: skip
        cf = CharacteristicFunction.build(zspec, coeffs, 12)
        assert cf.tail_total > 0.0
        idx = np.sort(rng.choice(np.arange(-12, 13), 6, replace=False))
        lam = idx.astype(float)
        phase = np.exp(2j * np.pi * rng.uniform(size=len(idx)))
        fixed = np.zeros(len(idx), bool)  # every disk keeps radius r
        for r, shrink in ((0.5, fixed), (float(rng.uniform(0.05, 0.3)), fixed), (0.5, np.ones(len(idx), bool))):

            def check(t):
                _, certified, (beta, _, rho) = direct._rouche(cf, idx, lam, t * phase, r, shrink)
                return certified, beta, rho

            lo = np.full(len(idx), 1e-200)
            live, beta, _ = check(lo)
            hi = r * (np.abs(beta) + 1.0)  # |c_k| / rho >= |beta_k|: fails
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                ok = check(mid)[0]
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            for ulps in range(-24, 25, 4):
                t = lo * (1.0 + ulps * direct.UNIT_ROUNDOFF)
                certified, _, rho = check(t)
                for j in np.flatnonzero(certified):
                    assert _iv_rouche_holds(iv, cf, idx[j], lam[j], t[j] * phase[j], rho[j]), (idx[j], ulps)
                outcomes.extend(certified[live].tolist())


def test_rouche_slope_matches_a_loop_over_the_terms(zspec):
    # beta'_k = sum_{n != k} c_n / (lambda_n - lambda_k)^2 over cf's terms,
    # head and power tail alike, for disks inside and beyond the terms
    rng = np.random.default_rng(21)
    tail = PowerTail(beta=1.5, scale=0.2, phase=0.3)
    head = rng.uniform(-0.2, 0.2, 21) + 1j * rng.uniform(-0.2, 0.2, 21)
    coeffs = PerturbationCoefficients(-10, (1.0,) * 21, tail, -10, tuple(head), tail)
    cf = CharacteristicFunction.build(zspec, coeffs, 30)
    idx = np.arange(-35, 36)
    lam = idx.astype(float)
    c = np.atleast_1d(coeffs.c_at(idx))
    _, _, (_, slope, _) = direct._rouche(cf, idx, lam, c, 0.5, np.zeros(len(idx), bool))
    for k, lam_k, got in zip(idx, lam, slope):
        terms = [c / (l - lam_k) ** 2 for n, l, c in zip(cf.idx1, cf.lam1, cf.c1) if n != k]
        assert abs(got - sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)


def _finite_batch_seed_1():
    """The zero-tail instances of the finite_batch benchmark at seed 1, drawn
    as its generator draws them: 2 + j % 7 terms c_n on |n| <= 40, |c_n| in
    [0.02, 0.3] at random phases, solved at window 41 and n_trunc 49."""
    rng = np.random.default_rng(1)
    for j in range(50):
        m = 2 + j % 7
        support = rng.choice(np.arange(-40, 41), size=m, replace=False)
        mags = rng.uniform(0.02, 0.3, size=m)
        phases = rng.uniform(0, 2 * np.pi, size=m)
        yield finite_coeffs({int(n): complex(v) for n, v in zip(support, mags * np.exp(1j * phases))})


def _rouche_disks(loc):
    """The arguments _disks gives _rouche for a localization's window: with
    a tail its outer disks and its disks with c_k != 0, with none the latter
    alone."""
    cf = loc.cf
    win = cf.window(loc.window)
    idx, lam, c = cf.idx[win], cf.lam[win], cf.c[win]
    keep = (np.abs(idx) > loc.k_prime) | (c != 0) if cf.has_tail else c != 0
    return cf, idx[keep], lam[keep], c[keep], cf.spec.gap / 2, np.abs(idx[keep]) <= loc.k_prime


def _rouche_outputs(result):
    margin, certified, (beta, slope, rho) = result
    return [beta, slope, rho, certified, margin()]


def test_a_window_with_no_disk_to_check_solves(zspec):
    # window 1 = K' has no outer index, and c_n = 0 in it: _rouche gets no
    # disk (one empty block), and the spectrum is lambda_-1, lambda_0 and
    # lambda_1, which c_5 leaves in place
    coeffs = validate_coefficients(finite_coeffs({5: 0.01}), zspec)
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=1, n_trunc=10))
    assert (loc.k_prime, loc.window, loc.owned[0].size) == (1, 1, 0)
    assert ps.mu.tolist() == [-1, 0, 1] and ps.origin.tolist() == [ORIGIN_COMMON] * 3 and ps.certified


@pytest.mark.parametrize("case", ["finite_batch", "power_family"])
def test_rouche_block_loop_gives_the_one_block_path_bit_for_bit(zspec, monkeypatch, case):
    # a call that one block of _kernels._CHUNK disks x terms covers takes its
    # arrays as they are, a wider one stores block after block: the same
    # beta_k, beta'_k, rho_k, verdicts and margins to the bit, with the
    # solve's c_k and with each |c_k| bisected to where its verdict flips
    # (there every term of the check decides it).  A matrix product's
    # rounding depends on how many rows it has (the BLAS orders its sums by
    # row blocks), so each block of the loop is compared with the one-block
    # path on that block's disks, and the whole call with the one-block
    # call within 1e-14
    if case == "finite_batch":  # its first instance of 8 terms: 8 disks, 3 blocks of 3
        coeffs, opts = list(_finite_batch_seed_1())[6], LocalizeOptions(window=41, n_trunc=49)
    else:  # a power tail: the tail term too
        coeffs = validate_coefficients(gallery.power_family(2.0, 50), zspec)
        opts = LocalizeOptions(window=50, n_trunc=100)
    cf, idx, lam, c, r, shrink = _rouche_disks(localize_spectrum(zspec, coeffs, opts))
    assert len(idx) * len(cf.c1) <= _kernels._CHUNK  # one block by default
    phase = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=len(idx)))
    lo, hi = np.full(len(idx), 1e-200), r * (np.abs(direct._rouche(cf, idx, lam, c, r, shrink)[2][0]) + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = direct._rouche(cf, idx, lam, mid * phase, r, shrink)[1]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    verdicts = []
    for c_k in (c, lo * phase, hi * phase):
        whole = _rouche_outputs(direct._rouche(cf, idx, lam, c_k, r, shrink))
        verdicts.append(whole[3])
        for per_block in (3, 7):
            monkeypatch.setattr(_kernels, "_CHUNK", per_block * len(cf.c1))
            blocks = _rouche_outputs(direct._rouche(cf, idx, lam, c_k, r, shrink))
            monkeypatch.undo()
            for i in range(0, len(idx), per_block):
                b = slice(i, i + per_block)
                one = _rouche_outputs(direct._rouche(cf, idx[b], lam[b], c_k[b], r, shrink[b]))
                for got, want in zip(blocks, one):
                    assert got[b].tobytes() == want.tobytes()
            for got, want in zip(blocks[:3] + blocks[4:], whole[:3] + whole[4:]):
                assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    _, below, above = verdicts  # the edges bracket nearly every disk's flip
    assert np.count_nonzero(below & ~above) > 0.9 * len(idx)


@pytest.mark.parametrize("rows", [None, 7, 1])
def test_a_window_in_several_rouche_blocks_certifies_as_one_block(zspec, monkeypatch, rows):
    # power_family(2, 50) at window 50 has a tail: 100 disks x 200 terms, one
    # block by default.  With _kernels._CHUNK cut to a third of the disks (or
    # to 7 or 1 rows) the check runs in 3 blocks or more, each through the
    # one-block function, with the one block's verdicts, and beta_k, beta'_k
    # and rho_k within a few ulps of it (a matrix product rounds with the
    # number of rows a block holds); the solve certifies the same spectrum
    coeffs = validate_coefficients(gallery.power_family(2.0, 50), zspec)
    opts = LocalizeOptions(window=50, n_trunc=100)
    ps, loc = solve_direct(zspec, coeffs, opts)
    cf, idx, lam, c, r, shrink = _rouche_disks(loc)
    _, certified, model = direct._rouche(cf, idx, lam, c, r, shrink)
    assert loc.cf.has_tail and np.count_nonzero(certified) > 0.9 * len(idx)
    blocks, block = [], direct._rouche_block

    def spy(*args):
        blocks.append(len(args[3]))
        return block(*args)

    monkeypatch.setattr(direct, "_rouche_block", spy)
    monkeypatch.setattr(_kernels, "_CHUNK", (rows or len(idx) // 3) * len(cf.c1))
    _, split, split_model = direct._rouche(cf, idx, lam, c, r, shrink)
    assert len(blocks) >= 3 and sum(blocks) == len(idx)
    assert split.tobytes() == certified.tobytes()
    for got, want in zip(split_model, model):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
    blocks.clear()
    split_ps, _ = solve_direct(zspec, coeffs, opts)
    assert len(blocks) >= 3 and split_ps.certified
    assert np.allclose(split_ps.mu, ps.mu, rtol=0, atol=1e-14) and split_ps.mult.tolist() == ps.mult.tolist()


def test_one_rouche_allowance_covers_every_disk_and_keeps_its_verdicts(zspec, monkeypatch):
    # each _rouche call forms one allowance, gamma_m at the largest kappa_S
    # of the disks that pass the preconditions: no smaller than any disk's
    # own (that disk checked alone), and with the verdicts each disk gets
    # alone, on every window of finite_batch seed 1 and on disks whose
    # kappa_S differ: the central disk around 0 at radius 0.999, its pole
    # at 1 just outside (kappa_S = 1000), and two disks far from every pole
    gamma, allowance = direct._gamma, []

    def spy(m):
        allowance.append(m)
        return gamma(m)

    monkeypatch.setattr(direct, "_gamma", spy)

    def checked(cf, idx, lam, c, r, shrink):
        """The verdicts and the allowance's m of one call, and of each disk alone."""
        allowance.clear()
        certified = direct._rouche(cf, idx, lam, c, r, shrink)[1]
        (m,) = allowance
        alone = []
        for k in range(len(idx)):
            allowance.clear()
            one = direct._rouche(cf, idx[k : k + 1], lam[k : k + 1], c[k : k + 1], r, shrink[k : k + 1])[1]
            alone.append((bool(one[0]), allowance[0]))
        assert certified.tolist() == [v for v, _ in alone]
        assert m == max(m_k for _, m_k in alone) and all(gamma(m) >= gamma(m_k) for _, m_k in alone)
        return certified, m, [m_k for _, m_k in alone]

    for coeffs in _finite_batch_seed_1():
        checked(*_rouche_disks(localize_spectrum(zspec, coeffs, LocalizeOptions(window=41, n_trunc=49))))
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.2, 1: 0.1}), 20)
    idx = np.array([-5, 0, 5])
    c = np.array([0.0, 0.2, 0.0], dtype=complex)
    certified, m, own = checked(cf, idx, idx.astype(float), c, 0.999, np.array([False, True, False]))
    assert certified.tolist() == [True, False, True]
    assert own == [2 + 23 + 2.0, 2 + 23 + 1000.0, 2 + 23 + 2.0] and m == own[1]


def _iv_rect_bound(iv, cf, rect):
    """The upper end of S_Q on the rectangle's boundary in interval
    arithmetic, from the same float data (delta_Q as _rouche_rect takes it)."""
    s = iv.mpf(0)
    for lam_n, c_n in zip(cf.lam1, cf.c1):
        x = iv.mpf(float(lam_n))
        sides = [abs(x - rect.re_lo), abs(x - rect.re_hi)]
        if rect.re_lo < lam_n < rect.re_hi:
            sides.append(iv.mpf(rect.h))
        s += _iv_modulus(iv, complex(c_n)) / min(side.a for side in sides)
    if cf.tail_total:
        delta = cf.delta_unrepresented([rect.re_lo, rect.re_hi]).min()
        s += iv.mpf(cf.tail_total) / iv.mpf(float(delta))
    return s.b


def test_rect_rouche_certificate_holds_in_interval_arithmetic(zspec):
    # random power-tail instances, every c_n and the tail scaled so that S_Q
    # lies on a grid of ulps around 1, where rounding decides: the float
    # check never certifies a rectangle whose interval S_Q reaches 1
    from mpmath import iv

    rng = np.random.default_rng(12)
    rect = Rectangle(-10.5, 10.5, 10.5)
    outcomes = []
    for _ in range(4):
        tail = PowerTail(beta=float(rng.uniform(1.2, 3.0)), scale=float(rng.uniform(0.05, 0.5)), phase=0.3)
        head = rng.uniform(-0.2, 0.2, 21) + 1j * rng.uniform(-0.2, 0.2, 21)
        coeffs = PerturbationCoefficients(
            a_head_offset=-10, a_head=(1.0,) * 21, a_tail=tail,
            b_head_offset=-10, b_head=tuple(head), b_tail=tail,
        )  # fmt: skip
        cf = CharacteristicFunction.build(zspec, coeffs, 24)
        assert cf.tail_total > 0.0
        s = 1.0 - direct._rouche_rect(cf, rect)[0]
        for ulps in range(-480, 49, 16):
            f = (1.0 + ulps * direct.UNIT_ROUNDOFF) / s
            scaled = dataclasses.replace(cf, c1=f * cf.c1, tail_total=f * cf.tail_total)
            _, certified = direct._rouche_rect(scaled, rect)
            if certified:
                assert _iv_rect_bound(iv, scaled, rect) < 1, ulps
            outcomes.append(certified)
    assert 20 < sum(outcomes) < len(outcomes) - 20


def test_rect_rouche_fails_with_a_pole_on_the_boundary(two_point_cf):
    # the pole 0 on the left side, or 1 on the right: S_Q is infinite, and
    # the margin is -inf, with no division by the zero distance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rect in (Rectangle(0.0, 2.5, 2.5), Rectangle(-1.5, 1.0, 2.5)):
            assert direct._rouche_rect(two_point_cf, rect) == (-math.inf, False)


def test_rouche_without_its_allowance_certifies_a_disk_that_fails(zspec, monkeypatch):
    # the weakened twin of _rouche: with u = 0 (gamma = 0) it certifies the
    # disk |z| < 1/2 of c_0 and c_-1 below, c_0 at the float edge of that
    # check, where 300-bit arithmetic on the same floats has S_0 + |c_0| /
    # rho >= |beta_0|; with its allowance it refuses
    from mpmath import mp

    c = {-1: 0.02473611332846054 - 0.1338652775727775j, 0: 0.3813350987559725 + 0.185679537632533j}
    cf = CharacteristicFunction.build(zspec, finite_coeffs(c), 12)
    with mp.workprec(300):
        # D_-1 = 1 and rho = 1/2: beta_0 = 1 - c_-1 and S_0 = |c_-1|
        assert abs(mp.mpc(c[-1])) + abs(mp.mpc(c[0])) / 0.5 >= abs(1 - mp.mpc(c[-1]))
    disk = (cf, np.array([0]), np.array([0.0]), np.array([c[0]]), 0.5, np.array([False]))
    assert direct._rouche(*disk)[1].tolist() == [False]
    monkeypatch.setattr(direct, "UNIT_ROUNDOFF", 0.0)
    assert direct._rouche(*disk)[1].tolist() == [True]


def test_rect_rouche_without_its_allowance_certifies_a_rectangle_that_fails(zspec, monkeypatch):
    # the weakened twin of _rouche_rect: with u = 0 (gamma = 0) it certifies
    # |Re z| < 3.5, |Im z| < 3.5 for c_-2 and c_0 below, at the float edge of
    # that check, where 300-bit arithmetic on the same floats has S_Q >= 1;
    # with its allowance it refuses
    from mpmath import mp

    c = {-2: -1.3921236600674947 + 0.04149731947862929j, 0: -0.21359827498844539 + 0.1304230356637408j}
    cf = CharacteristicFunction.build(zspec, finite_coeffs(c), 12)
    rect = Rectangle(-3.5, 3.5, 3.5)
    with mp.workprec(300):
        # the poles -2 and 0 lie 1.5 and 3.5 from the boundary
        assert abs(mp.mpc(c[-2])) / 1.5 + abs(mp.mpc(c[0])) / 3.5 >= 1
    assert direct._rouche_rect(cf, rect)[1] is False
    monkeypatch.setattr(direct, "UNIT_ROUNDOFF", 0.0)
    assert direct._rouche_rect(cf, rect)[1] is True


def test_gamma_at_a_float_equals_the_array_form_to_past_the_cap(two_point_cf, monkeypatch):
    # _rouche_rect, _rouche and _discs form their one allowance at a float,
    # _arc_test over arrays: the same gamma bit for bit, and Higham's m u / (1 - m u)
    # in Python floats, from m = 1 to past m u = 1/2 (m = 2^52), where both
    # cap at gamma = 1
    cap = 2.0**52
    for m in (1.0, 2.0, 3.0, 23.0, 1e3, 1e8, 1e15, cap - 2.0, cap - 1.0, cap, cap + 2.0, 2.0**53, 1e300, math.inf):
        scalar = direct._gamma(m)
        assert np.array([scalar]).tobytes() == direct._gamma(np.array([m])).tobytes(), m
        assert scalar == (1.0 if m >= cap else m * direct.UNIT_ROUNDOFF / (1.0 - m * direct.UNIT_ROUNDOFF))
    assert direct._gamma(cap - 2.0) < 1.0
    gamma, seen = direct._gamma, []
    monkeypatch.setattr(direct, "_gamma", lambda m: seen.append(m) or gamma(m))
    assert direct._rouche_rect(two_point_cf, Rectangle(-1.5, 2.5, 2.5)) == (pytest.approx(1.0 - 0.35 / 1.5), True)
    assert len(seen) == 1


def test_no_check_passes_at_the_gamma_cap_nor_at_gamma_inf(zspec, monkeypatch):
    # with u = 1/2 every m u is past the cap and gamma = 1: no Rouche disk,
    # no rectangle and no arc passes, with no warning, as with gamma = inf,
    # which the cap replaced; an outer disk that fails names its margin.  The
    # input has a tail, so that _disks checks the c_k = 0 disks too
    loc = localize_spectrum(zspec, with_tail(finite_coeffs({0: 0.275, 1: 0.075, 6: 0.01}), 8), OPTS)
    cf, d = loc.cf, zspec.gap
    win = cf.window(loc.window)
    idx, lam, c = cf.idx[win], cf.lam[win], cf.c[win]
    keep = (np.abs(idx) > loc.k_prime) | (c != 0)  # the disks _disks checks
    idx, lam, c = idx[keep], lam[keep], c[keep]
    zeros = np.array([z for z, _, _ in loc.all_zeros()])

    def outcomes():
        certified = direct._rouche(cf, idx, lam, c, 0.5 * d, np.abs(idx) <= loc.k_prime)[1]
        return certified.tolist(), direct._rouche_rect(cf, loc.rect)[1], direct._arc_walk(cf, zeros, 0.005, 3)

    assert outcomes() == ([True] * len(idx), True, [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(direct, "UNIT_ROUNDOFF", 0.5)
        capped = outcomes()
        with pytest.raises(errors.CertificationFailed, match=r"Rouche margin 1\.04\)$"):
            direct._disks(cf, loc.k_prime, loc.window, d)
        monkeypatch.undo()
        infinite = lambda m: math.inf if isinstance(m, float) else np.full(np.shape(m), np.inf)
        monkeypatch.setattr(direct, "_gamma", infinite)
        assert capped == outcomes() == ([False] * len(idx), False, [None, None, None])


def _rouche_and_winding_counts(loc):
    """Indices of a localization's disks, whether each is outer, and its
    zeros by Rouche (None where it does not certify) and by the arc walk on
    the same circle |z - lambda_k| = rho_k (None where it does not)."""
    cf, idx, lam, c, r, shrink = _rouche_disks(loc)
    _, certified, (_, _, rho) = direct._rouche(cf, idx, lam, c, r, shrink)
    poles = (c != 0).astype(int)  # lambda_k is a pole of F when c_k != 0
    rouche = [int(p) if ok else None for p, ok in zip(poles, certified)]
    walk = direct._arc_walk(loc.cf, lam.astype(complex), rho, 3)
    winding = [None if w is None else w + p for w, p in zip(walk, poles)]
    return idx, np.abs(idx) > loc.k_prime, rouche, winding, rho


def test_a_zero_tail_solve_counts_its_zeros_by_the_degree(zspec, monkeypatch):
    # with no tail F has |I1| zeros: _rouche checks exactly the I1 indices
    # in the window (an index beyond it, 45, keeps the enclosure's outer
    # disk) and the rectangle is not checked.  With a tail every window disk
    # and the rectangle are
    checked, rouche, rouche_rect = [], direct._rouche, direct._rouche_rect
    monkeypatch.setattr(direct, "_rouche", lambda cf, idx, *a: checked.append(idx.tolist()) or rouche(cf, idx, *a))
    monkeypatch.setattr(direct, "_rouche_rect", lambda cf, rect: checked.append("rect") or rouche_rect(cf, rect))
    coeffs = finite_coeffs({-30: 0.2, 0: 0.275, 1: 0.075, 6: 0.01, 45: 0.1})
    ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=41, n_trunc=49))
    assert ps.certified and not loc.cf.has_tail and loc.window == 41
    assert checked == [[-30, 0, 1, 6]]
    ref = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, 60))
    assert oracle.compare_spectra(ps, ref[np.abs(ref.real) < 41.5], 1e-10)[0]
    checked.clear()
    power = validate_coefficients(gallery.power_family(2.0, 50), zspec)
    loc = localize_spectrum(zspec, power, LocalizeOptions(window=50, n_trunc=60))
    win = loc.cf.window(loc.window)
    idx, c = loc.cf.idx[win], loc.cf.c[win]
    assert loc.cf.has_tail and checked == [idx[(np.abs(idx) > loc.k_prime) | (c != 0)].tolist(), "rect"]
    assert checked[0] == [k for k in range(-50, 51) if k != 0]


def test_rouche_count_equals_the_winding_count(zspec):
    # every outer disk of the power family behind criteria 3 and 4 (windows
    # 50 and 100 share the w = 200 disks: n_trunc is 600 for all three) and
    # of random finite instances given a tail past the window (a zero tail
    # checks only the I1 disks), and every central disk that certifies, at
    # the radius of its own

    power = validate_coefficients(gallery.power_family(2.0, 200), zspec)
    cases = [(power, LocalizeOptions(window=200, n_trunc=600))]
    rng = np.random.default_rng(2024)
    finite = LocalizeOptions(window=41, n_trunc=49)
    cases += [(with_tail(random_finite_instance(rng, radius=40), 41), finite) for _ in range(12)]
    central_radii = []
    for coeffs, opts in cases:
        loc = localize_spectrum(zspec, coeffs, opts)
        idx, outer, rouche, winding, rho = _rouche_and_winding_counts(loc)
        assert all(r is not None for r, o in zip(rouche, outer) if o)
        assert [w for w, r in zip(winding, rouche) if r is not None] == [r for r in rouche if r is not None]
        outer_zeros = [len(r.zeros) for r in loc.reports if r.region_index is not None]
        assert outer_zeros == [r for r, o in zip(rouche, outer) if o]
        central_radii += [p for p, r, o in zip(rho, rouche, outer) if r is not None and not o]
    # central disks at d/2 and below it
    assert len(central_radii) > 20 and min(central_radii) < 0.5 == max(central_radii)


def test_outer_disk_failure_names_its_rouche_margin(zspec, monkeypatch):
    # the first outer disk, index -8: |G| = |beta| = 1 + 0.275/8 + 0.075/9,
    # S = 0.275 / (2 * 8 * 7.5) + 0.075 / (2 * 9 * 8.5), to three digits
    # with the tail of 1e-12 |n|^-3 (a zero tail checks no c_k = 0 disk),
    # which fails at every n_trunc
    rouche = direct._rouche

    def reject(cf, idx, lam, c, r, shrink):
        margin, _, local = rouche(cf, idx, lam, c, r, shrink)
        return margin, np.zeros(len(idx), dtype=bool), local

    monkeypatch.setattr(direct, "_rouche", reject)
    failed = r"^escalation exhausted \(n_trunc 20480\): disk around index -8 failed to certify \(Rouche margin 1.04\)$"
    with pytest.raises(errors.CertificationFailed, match=failed):
        localize_spectrum(zspec, with_tail(finite_coeffs({0: 0.275, 1: 0.075}), 8), OPTS)


def test_outer_disk_newton_failure_names_its_seed(zspec, monkeypatch):
    # c_6 = 0.01 lies beyond K' = 1: its disk is certified, but its Newton
    # zero, from about 6 + c_6 / (1 - 0.275/6), is forced to fail.  The
    # terms c_n = 1e-9 past EIGEN_MAX send the solve to _localize_attempt
    newton = direct._newton

    def fail(cf, seeds, order, shift=None):
        z, ok = newton(cf, seeds, order, shift)
        return z, ok & (shift != 6.0)

    monkeypatch.setattr(direct, "_newton", fail)
    failed = r"^Newton from 6.01048\+0j found no zero in the disk around index 6$"
    with pytest.raises(errors.CertificationFailed, match=failed):
        localize_spectrum(zspec, past_eigen_max({0: 0.275, 6: 0.01}), OPTS)


def test_rouche_margin_exceeds_the_enclosure_bound():
    # K_eps and K' of compute_Keps give |G_k| - S_k > eps / (2 (K' - K_eps) + 1)
    # on every outer circle |z - lambda_k| = d/2: Rouche cannot fail there,
    # whatever the index set, head, tail or phase of c_n
    rng = np.random.default_rng(8)
    disks, count = set(), 0
    for _ in range(60):
        spec = random_base(rng)
        coeffs = validate_coefficients(random_coeffs(rng, spec), spec)
        d = spec.gap
        eps = d / (2.0 + d)
        k_eps, k_prime = compute_Keps(spec, coeffs, eps)
        for window, n_trunc in ((k_prime + 20, k_prime + 28), (k_prime + 5, 2 * k_prime + 40)):
            cf = CharacteristicFunction.build(spec, coeffs, n_trunc)
            idx = spec.window_indices(window)
            idx = idx[np.abs(idx) > k_prime]
            lam = np.atleast_1d(spec.lambda_at(idx)).astype(float)
            c = np.atleast_1d(coeffs.c_at(idx)).astype(complex)
            margin, certified, _ = direct._rouche(cf, idx, lam, c, 0.5 * d, np.zeros(len(idx), bool))
            assert certified.all()
            assert np.all(margin() > eps / (2 * (k_prime - k_eps) + 1)), (spec, coeffs)
            # the central rectangle by the same inequality against 1
            margin, certified = direct._rouche_rect(cf, direct._central_rectangle(spec, k_prime, d, spec.lambda_at))
            assert certified and margin > eps / (2 * (k_prime - k_eps) + 1), (spec, coeffs)
            disks.update((spec.index_kind, cf.tail_total > 0, bool(c_k != 0)) for c_k in c)
            count += len(idx)
    # 2250 disks of every kind: both index sets, with and without a tail,
    # with and without a zero inside
    assert len(disks) == 8 and count == 2250


def test_nearest_pole_of_a_function_with_no_poles_is_infinitely_far(zspec):
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.0, 1: 0.0}), 5)
    assert len(cf.lam1) == 0
    np.testing.assert_array_equal(direct._nearest_pole(cf, np.array([0.5 + 0j, 3.0 + 1j])), [np.inf, np.inf])


# ---------------------------------------------------------------------------
# the eigenvalue path of small zero-tail spectra


def _roundtrip_seed_1():
    """The coefficients of the roundtrip benchmark's targets at seed 1 after
    its double and triple points, drawn as its generator draws them: 1 + j %
    10 indices of |n| <= 8, each moved by U(-1/4, 1/4) + i U(-1/5, 1/5),
    through solve_inverse, solved at window 12 and n_trunc 40."""
    rng, spec = np.random.default_rng(1), sweep.base()
    for j in range(98):
        moved = sorted(int(n) for n in rng.choice(np.arange(-8, 9), 1 + j % 10, replace=False))
        head = [
            complex(n + rng.uniform(-0.25, 0.25), rng.uniform(-0.2, 0.2)) if n in moved else complex(n)
            for n in range(moved[0], moved[-1] + 1)
        ]
        coeffs, _ = inverse.solve_inverse(spec, validate_target(TargetSpectrum(moved[0], tuple(head)), spec))
        yield validate_coefficients(coeffs, spec)


def test_every_eigenvalue_path_zero_lies_within_2_rho_of_its_40_digit_eigenvalue(zspec, monkeypatch):
    # the first 10 finite_batch and 10 roundtrip instances of seed 1 (2 to 8
    # and 1 to 10 terms), all solved by the eigenvalue path: each reported
    # zero lies within 2 rho of the 40-digit eigenvalue of diag(lambda) + c
    # 1^T nearest it (mpmath's eig), each of those within rho of the
    # eigenvalue its disc is centred on
    discs, check = [], direct._discs
    monkeypatch.setattr(direct, "_discs", lambda *args: discs.append(args) or check(*args))
    finite = [(c, LocalizeOptions(window=41, n_trunc=49)) for c in list(_finite_batch_seed_1())[:10]]
    roundtrip = [(c, sweep.OPTS) for _, c in zip(range(10), _roundtrip_seed_1())]
    for coeffs, opts in finite + roundtrip:
        discs.clear()
        _, loc = solve_direct(zspec, coeffs, opts)
        ((_, z, *_, rho),) = discs
        zeros, exact, rho = loc.owned[1], _zeros_of_F(loc.cf, 40), np.array(rho)
        assert not loc.central and len(zeros) == len(exact) == len(loc.cf.c1)
        nearest = np.abs(zeros[:, np.newaxis] - exact).argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(len(exact)))
        assert np.all(np.abs(zeros - exact[nearest]) < 2.0 * rho) and np.all(np.abs(z - exact[nearest]) < rho)


def _disc(cf, point, radius):
    """_discs' arguments for the disc of radius about point, shifted by its
    nearest pole, as _eigen_attempt gives them."""
    z = np.array([point], dtype=complex)
    pos = direct._nearest(cf.lam, z)
    return cf, z, pos, pos.tolist(), cf.c[pos].tolist(), [radius]


def _discs_twin(old, new):
    """A weakened twin of _discs: its source with the one line or expression
    old replaced by new, defined in direct's namespace."""
    source = inspect.getsource(direct._discs)
    assert source.count(old) == 1
    namespace = dict(vars(direct))
    exec(source.replace(old, new), namespace)
    return namespace["_discs"]


def test_the_discs_bounds_from_two_distances_hold_every_pole_term(zspec, monkeypatch):
    # _discs bounds rem and B by the own pole's term at D_k and every other
    # pole's at D_o, the nearer run neighbour: on every disc of the 50
    # finite_batch solves of seed 1 and the first 10 roundtrip ones, both
    # bounds hold the kernel's sums over every pole, formed as the parent's
    # check formed them
    discs, check = [], direct._discs
    monkeypatch.setattr(direct, "_discs", lambda *args: discs.append(args) or check(*args))
    finite = [(c, LocalizeOptions(window=41, n_trunc=49)) for c in _finite_batch_seed_1()]
    for coeffs, opts in finite + [(c, sweep.OPTS) for _, c in zip(range(10), _roundtrip_seed_1())]:
        solve_direct(zspec, coeffs, opts)
    assert len(discs) == 60
    for cf, z, pos, at, c, rho in discs:
        shift, rho = cf.lam[pos], np.array(rho)
        _, _, b, rem, _ = _kernels.pole_taylor(cf.c1[:, np.newaxis], cf.lam1[:, np.newaxis] - shift, z - shift, 1, rho)
        lam = np.concatenate([cf.lam, [np.inf]])
        d_k = np.abs(z - lam[pos])
        d_o = np.minimum(np.abs(z - lam[pos - 1]), np.abs(z - lam[pos + 1]))
        absc, rest = np.abs(np.array(c)), np.abs(cf.c1).sum() - np.abs(np.array(c))
        own, other = absc / (d_k - rho), rest / (d_o - rho)
        assert np.all(own + other >= b * (1 - 1e-12)), (b, own + other)
        assert np.all(own * (rho / d_k) ** 2 + other * (rho / d_o) ** 2 >= rem * (1 - 1e-12))


def test_discs_without_the_remainder_certify_a_disc_the_zero_misses(zspec):
    # the weakened twin of _discs with rem dropped: F = 1 + 0.3 / (0 - z)
    # has its zero at c_0 = 0.3, and from 0.2 the Newton step lands short of
    # it, at 0.2 + 1/15.  The disc |w - 0.2| < 0.08 holds that step but not
    # the zero, 0.1 away: |a_0| = 0.5 < |a_1| rho = 0.6, and only rem = 0.4
    # refuses it
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.3}), 10)
    disc = _disc(cf, 0.2, 0.08)
    assert direct._discs(*disc)[1].tolist() == [False]
    zero, certified = _discs_twin("rem = own * q * q + rest * qo * qo", "rem = 0.0")(*disc)
    assert certified.tolist() == [True] and abs(zero[0] - (0.2 + 1.0 / 15.0)) < 1e-15
    assert abs(cf.c1[0] - 0.2) > 0.08


def test_discs_with_the_own_pole_term_alone_certify_a_disc_no_zero_lies_in(zspec):
    # the weakened twin of _discs that bounds B and rem by lambda_k's term
    # alone, dropping the neighbours' (S - |c_k|) terms: F of c_0 = 0.058
    # and c_1 = -0.58 has its zeros at 0.239 +- 0.0296i, and the Newton step
    # from 0.43 lands at 0.326, inside |w - 0.43| < 0.12, which holds
    # neither zero (40 digits), 0.193 away.  Only the pole at 1, 0.57 from
    # the point, refuses the disc
    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.058, 1: -0.58}), 10)
    disc = _disc(cf, 0.43, 0.12)
    assert direct._discs(*disc)[1].tolist() == [False]
    zero, certified = _discs_twin("(total - absc) / (do - r)", "0.0")(*disc)
    assert certified.tolist() == [True] and abs(zero[0] - 0.43) < 0.12
    assert np.all(np.abs(_zeros_of_F(cf, 40) - 0.43) > 0.19)


def test_discs_without_their_allowance_certify_a_disc_the_zero_misses(zspec, monkeypatch):
    # the weakened twin of _discs with u = 0 (gamma = 0): F of c_0 = 0.275
    # and c_1 = 0.075 rounds to exactly 0 at 0.25, but in 300-bit
    # arithmetic on the same floats its zero lies 2.0e-17 above.  The disc of
    # radius 1e-17 about 0.25 misses it, and the twin, with a_0 = 0,
    # certifies it; with its allowance the check refuses
    from mpmath import mp

    cf = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.275, 1: 0.075}), 10)
    with mp.workprec(300):
        zero = mp.findroot(lambda z: 1 + mp.mpf(0.275) / (0 - z) + mp.mpf(0.075) / (1 - z), mp.mpf(0.25))
        assert 1e-17 < zero - 0.25 < 3e-17
    disc = _disc(cf, 0.25, 1e-17)
    assert direct._discs(*disc)[1].tolist() == [False]
    monkeypatch.setattr(direct, "UNIT_ROUNDOFF", 0.0)
    zero, certified = direct._discs(*disc)
    assert certified.tolist() == [True] and zero.tolist() == [0.25]


def _declined(zspec, coeffs, monkeypatch):
    """The verdicts of the _discs calls of a solve of coeffs at OPTS, which
    _eigen_attempt must decline, giving bit for bit the output of the
    general attempt alone."""
    eigen, check, verdicts, discs = direct._eigen_attempt, direct._discs, [], []
    monkeypatch.setattr(direct, "_eigen_attempt", lambda *args: verdicts.append(eigen(*args)) or verdicts[-1])
    monkeypatch.setattr(direct, "_discs", lambda *args: discs.append(check(*args)[1].tolist()) or check(*args))
    ps, loc = solve_direct(zspec, coeffs, OPTS)
    monkeypatch.setattr(direct, "_eigen_attempt", lambda *args: None)
    general, general_loc = solve_direct(zspec, coeffs, OPTS)
    monkeypatch.undo()
    assert verdicts == [None]
    for name in ("mu", "mult", "paired_index", "origin", "index", "paired_mu"):
        assert getattr(ps, name).tobytes() == getattr(general, name).tobytes()
    assert [x.tobytes() for x in loc.owned] == [x.tobytes() for x in general_loc.owned]
    assert loc.central == general_loc.central
    return ps, discs


def test_eigenvalues_within_a_quarter_gap_decline_to_the_general_attempt(zspec, monkeypatch):
    # F = (z - 1/2)^2 / (z (z - 1)): its eigenvalues 1/2, 1/2 to round-off
    # lie within d/4, so no disc is formed; the general attempt gives the
    # double zero
    ps, discs = _declined(zspec, finite_coeffs({0: 0.25, 1: -0.25}), monkeypatch)
    assert discs == [] and 2 in ps.mult.tolist()


def test_zeros_that_share_a_nearest_pole_decline_to_the_general_attempt(zspec, monkeypatch):
    # c_0 = |mu|^2 and c_1 = -|mu - 1|^2 put F's zeros at mu = 0.2 +- 0.4i,
    # 0.8 apart, both nearest the pole 0
    ps, discs = _declined(zspec, finite_coeffs({0: 0.2, 1: -0.8}), monkeypatch)
    zeros = ps.mu[ps.origin == ORIGIN_ZERO]
    assert discs == [] and np.allclose(zeros[zeros.imag.argsort()], [0.2 - 0.4j, 0.2 + 0.4j], rtol=0, atol=1e-14)


def test_a_zero_whose_nearest_pole_has_c_n_0_declines_to_the_general_attempt(zspec, monkeypatch):
    # c_0 = mu_1 mu_2 and c_1 = -(mu_1 - 1)(mu_2 - 1) put F's zeros at 0.2 and
    # 1.9, whose nearest pole 2 has c_2 = 0; the general attempt pairs 1.9
    # with index 1
    ps, discs = _declined(zspec, finite_coeffs({0: 0.38, 1: 0.72}), monkeypatch)
    assert discs == [] and abs(ps.paired_mu[ps.index.tolist().index(1)] - 1.9) < 1e-14


def test_a_disc_that_fails_declines_to_the_general_attempt(zspec, monkeypatch):
    # the zero about 3 + 1e-12 / 0.9 lies nearer its pole than the disc's
    # radius 2^-26 (1 + 3): that disc fails, the one about 0.3 passes
    ps, discs = _declined(zspec, finite_coeffs({0: 0.3, 3: 1e-12}), monkeypatch)
    assert discs == [[True, False]]


def test_the_random_sweep_fails_only_where_it_expects_to():
    # tests/sweep.py's 200 direct solves and 200 round trips; an expected
    # failure that now certifies passes, so that EXPECTED_FAILURES can shrink.
    # Every direct solve the eigenvalue path takes pairs as the general
    # attempt does
    failures, worst, (taken, differ) = sweep.run()
    assert len(taken) > 40 and differ == []
    assert [(i, kind) for i, kind, _ in failures if i not in sweep.EXPECTED_FAILURES] == []
    # about ten times the worst distances measured when this test was written
    bounds = {"double": 1e-11, "triple": 3e-11, "2-point cluster": 1e-9, "3-point cluster": 5e-6}
    assert {name: worst[name] for name in bounds if worst[name] > bounds[name]} == {}
