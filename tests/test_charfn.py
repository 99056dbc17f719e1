import numpy as np
import pytest

from rank1spec import errors
from rank1spec.charfn import CharacteristicFunction, compute_Keps
from rank1spec.model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    validate_base,
)

from conftest import finite_coeffs


@pytest.fixture
def two_point(zspec):
    # F(z) = 1 + 0.275/(0 - z) + 0.075/(1 - z) has the exact zeros 1/4, 11/10
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    return CharacteristicFunction.build(zspec, coeffs, 10)


def test_hand_zeros_and_derivative(two_point):
    f, err = two_point.eval_F(0.25)
    assert abs(f) < 1e-15 and err == 0.0
    f, _ = two_point.eval_F(1.1)
    assert abs(f) < 1e-14
    # F'(1/4) = 0.275/(1/4)^2 + 0.075/(3/4)^2 = 4.4 + 2/15
    fp, _ = two_point.eval_F_derivative(0.25)
    assert fp == pytest.approx(4.4 + 2.0 / 15.0, rel=1e-14)


def test_finite_difference_derivatives(two_point):
    z = 0.4 + 0.3j
    h = 1e-6
    for order in (1, 2):
        lo = two_point.derivative_values(np.array([z - h]), order - 1)[0]
        hi = two_point.derivative_values(np.array([z + h]), order - 1)[0]
        if order == 1:
            lo, hi = two_point.values(np.array([z - h]))[0], two_point.values(np.array([z + h]))[0]
        fd = (hi - lo) / (2 * h)
        exact = two_point.derivative_values(np.array([z]), order)[0]
        assert abs(fd - exact) < 1e-7 * (1 + abs(exact))


def test_conjugate_symmetry_for_real_coefficients(two_point):
    z = 0.37 + 0.91j
    up = two_point.values(np.array([z]))[0]
    down = two_point.values(np.array([np.conj(z)]))[0]
    assert abs(np.conj(up) - down) < 1e-15


def test_pole_detection(two_point):
    with pytest.raises(errors.PoleHit):
        two_point.eval_F(0.0)
    with pytest.raises(errors.PoleHit):
        two_point.eval_F(1.0 + 1e-16j)
    # lambda_5 is not a pole: c_5 = 0
    f, _ = two_point.eval_F(5.0)
    assert np.isfinite(f)


def test_tail_bound_certifies_truncation_error(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=1.0, scale=1.0, phase=0.0),
        b_head_offset=0,
        b_head=(0.3,),
        b_tail=PowerTail(beta=1.2, scale=1.0, phase=0.7),
    )
    coarse = CharacteristicFunction.build(zspec, coeffs, 40)
    fine = CharacteristicFunction.build(zspec, coeffs, 5000)
    for z in (0.5 + 0.5j, -3.3 + 0.2j, 10.4 - 1.0j):
        lo, bound = coarse.eval_F(z)
        hi, fine_bound = fine.eval_F(z)
        assert abs(lo - hi) <= bound
        assert fine_bound < bound


def test_shifted_evaluation_matches_direct(two_point):
    w = 1e-9 + 1e-10j
    direct = two_point.values(np.array([1.0 + w], dtype=complex))[0]
    shifted = two_point.shifted_values(1, np.array([w]))[0]
    # shifted coordinates keep precision that the direct form has already lost
    assert abs(shifted - direct) < 1e-6 * abs(direct)
    assert abs(shifted - (1.0 + 0.275 / (-1.0 - w) + 0.075 / (-w))) < 1e-3 * abs(shifted)


def test_single_term_and_partial_sum_approximants(two_point):
    z = 0.5 + 0.25j
    g0 = two_point.eval_Gk(0, z)
    assert g0 == 1.0 + 0.275 / (0.0 - z)
    h1 = two_point.eval_Hk(1, z)
    full, _ = two_point.eval_F(z)
    assert abs(h1 - full) < 1e-15
    with pytest.raises(errors.IndexNotInI1):
        two_point.eval_Gk(3, z)
    with pytest.raises(errors.PoleHit):
        two_point.eval_Hk(1, 1.0)


def test_compute_Keps_matches_brute_force(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=1.1, scale=1.0, phase=0.0),
        b_head_offset=0,
        b_head=(0.4,),
        b_tail=PowerTail(beta=1.4, scale=0.8, phase=0.0),
    )
    d = zspec.gap
    for eps in (0.4, 0.2, 0.05):
        k_eps, k_prime = compute_Keps(zspec, coeffs, eps)
        assert coeffs.c_tail_sum(k_eps, "Z") < eps
        if k_eps > 0:
            assert coeffs.c_tail_sum(k_eps - 1, "Z") >= eps
        idx = zspec.window_indices(k_eps)
        head_sum = float(np.sum(np.abs(coeffs.c_at(idx))))
        assert head_sum / ((k_prime - k_eps) * d) < eps
        if k_prime > k_eps + 1:
            assert head_sum / ((k_prime - 1 - k_eps) * d) >= eps


def test_compute_Keps_rejects_out_of_range_eps(zspec):
    coeffs = finite_coeffs({0: 0.1})
    with pytest.raises(errors.EpsOutOfRange):
        compute_Keps(zspec, coeffs, 0.0)
    with pytest.raises(errors.EpsOutOfRange):
        compute_Keps(zspec, coeffs, zspec.gap)


def test_zero_tail_instance_has_zero_bound(zspec, two_point):
    assert two_point.tail_total == 0.0
    assert np.all(two_point.tail_bound_at(np.array([0.5 + 1j])) == 0.0)


def test_large_z_limit_is_one(two_point):
    f, _ = two_point.eval_F(1e9 + 1e9j)
    assert abs(f - 1.0) < 1e-8


def _keps_by_radius_loop(spec, coeffs, eps):
    # the radius-by-radius search: one c_tail_sum (and c_at pass) per radius
    h = coeffs.head_radius()
    k_eps = next((n for n in range(h + 2) if coeffs.c_tail_sum(n, spec.index_kind) < eps), None)
    if k_eps is None:
        k_eps = h + 2
        while coeffs.c_tail_sum(k_eps, spec.index_kind) >= eps:
            k_eps += 1
    head_sum = float(np.sum(np.abs(np.atleast_1d(coeffs.c_at(spec.window_indices(k_eps))))))
    if head_sum == 0.0:
        return k_eps, k_eps + 1
    k_prime = k_eps + 1
    while head_sum / ((k_prime - k_eps) * spec.gap) >= eps:
        k_prime += 1
    return k_eps, k_prime


def test_compute_Keps_in_one_pass_matches_the_radius_loop(zspec):
    nspec = validate_base(
        BaseSpectrum(index_kind="N", head_offset=0, head=(), tail=AffineTail(1.0, 0.0), gap=1.0)
    )
    late = validate_base(  # N-indexed, first index 5
        BaseSpectrum(index_kind="N", head_offset=5, head=(5.0, 6.0, 7.0), tail=AffineTail(1.0, 0.0), gap=1.0)
    )
    rng = np.random.default_rng(11)
    for _ in range(40):
        lo = int(rng.integers(-12, 0))
        hi = int(rng.integers(5, 14))
        c = rng.uniform(0.0, 0.6, hi - lo + 1) * np.exp(2j * np.pi * rng.uniform(size=hi - lo + 1))
        c[rng.uniform(size=c.size) < 0.3] = 0.0
        tail = PowerTail(beta=0.8 + rng.uniform(), scale=float(rng.uniform(0.1, 1.0)), phase=0.3)
        for spec in (zspec, nspec, late):
            off = lo if spec is zspec else spec.start
            n = hi - off + 1
            for t in (None, tail):
                coeffs = PerturbationCoefficients(
                    a_head_offset=off,
                    a_head=(1.0,) * n,
                    a_tail=t,
                    b_head_offset=off,
                    b_head=tuple(complex(v) for v in c[-n:]),
                    b_tail=t,
                )
                # the last eps falls between the tail sums at radii h and h + 1
                h = coeffs.head_radius()
                edge = 0.5 * sum(coeffs.c_tail_sum(r, spec.index_kind) for r in (h, h + 1))
                for eps in (0.3, 0.1, 0.02, edge):
                    if 0.0 < eps < 0.5:
                        assert compute_Keps(spec, coeffs, eps) == _keps_by_radius_loop(spec, coeffs, eps)
