import numpy as np
import pytest

from rank1spec import errors, oracle
from rank1spec.model import AffineTail, BaseSpectrum, PerturbationCoefficients, validate_base

from conftest import finite_coeffs, random_finite_instance


def charpoly_eigenvalues(op):
    """Reference eigenvalues of a small truncation, from the roots of its
    characteristic polynomial (companion matrix), sorted by (real, imag)."""
    vals = np.roots(np.poly(op.matrix))
    return vals[np.lexsort((vals.imag, vals.real))]


def test_truncation_matrix_entries(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=-1,
        a_head=(1.0 + 1.0j, 2.0, 1.0),
        a_tail=None,
        b_head_offset=-1,
        b_head=(0.5, 0.25j, 0.0),
        b_tail=None,
    )
    op = oracle.build_truncation(zspec, coeffs, 1)
    assert op.matrix.shape[0] == 3
    # M[j,k] = lambda_j delta_jk + b_j conj(a_k); row/col order -1, 0, 1
    assert op.matrix[0, 0] == -1.0 + 0.5 * np.conj(1.0 + 1.0j)
    assert op.matrix[1, 0] == 0.25j * np.conj(1.0 + 1.0j)
    assert op.matrix[1, 1] == 0.0 + 0.25j * 2.0
    assert op.matrix[2, 2] == 1.0


def test_rank_one_shift_of_identity_vector(zspec):
    # with a = (1,...,1), the matrix is diag(lambda) + outer(b, 1)
    coeffs = finite_coeffs({0: 0.3})
    op = oracle.build_truncation(zspec, coeffs, 2)
    vals = oracle.dense_eigenvalues(op)
    # exact spectrum: {-2, -1, 1, 2} common plus the zero of 1 + 0.3/(0-z)
    expect = np.sort([-2.0, -1.0, 0.3, 1.0, 2.0])
    np.testing.assert_allclose(np.real(vals), expect, atol=1e-12)
    np.testing.assert_allclose(np.imag(vals), 0.0, atol=1e-12)


def test_dense_agrees_with_companion_polynomial(zspec):
    rng = np.random.default_rng(0)
    coeffs = random_finite_instance(rng, radius=3, max_points=4)
    op = oracle.build_truncation(zspec, coeffs, 3)
    dense = oracle.dense_eigenvalues(op)
    comp = charpoly_eigenvalues(op)
    ok, worst = oracle.compare_spectra(dense, comp, 1e-7)
    assert ok, f"companion disagreement {worst:.3e}"


def test_trace_identity(zspec):
    rng = np.random.default_rng(1)
    coeffs = random_finite_instance(rng, radius=10, max_points=6)
    op = oracle.build_truncation(zspec, coeffs, 12)
    assert op.trace_identity_residual(zspec, coeffs) < 1e-12


def test_hermitian_case_real_and_interlacing(zspec):
    # b = a real gives a self-adjoint perturbation: real spectrum, and the
    # perturbed eigenvalues interlace with the base ones from above
    a = {n: 0.4 for n in range(-4, 5)}
    coeffs = PerturbationCoefficients(
        a_head_offset=-4,
        a_head=tuple(complex(v) for v in a.values()),
        a_tail=None,
        b_head_offset=-4,
        b_head=tuple(complex(v) for v in a.values()),
        b_tail=None,
    )
    op = oracle.build_truncation(zspec, coeffs, 4)
    vals = oracle.dense_eigenvalues(op)
    assert np.max(np.abs(vals.imag)) < 1e-12
    lam = np.arange(-4, 5, dtype=float)
    mu = np.sort(vals.real)
    # positive c_n = |a_n|^2 pushes every eigenvalue up within its gap
    assert np.all(mu >= lam - 1e-12)
    assert np.all(mu[:-1] <= lam[1:] + 1e-12)


def test_truncation_cauchy_convergence(zspec):
    # enlarging the window moves the small eigenvalues only slightly when
    # the coefficients decay
    from rank1spec.model import PowerTail

    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=2.0, scale=0.5, phase=0.0),
        b_head_offset=0,
        b_head=(0.2,),
        b_tail=PowerTail(beta=2.0, scale=0.5, phase=0.0),
    )
    v1 = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, 30))
    v2 = oracle.dense_eigenvalues(oracle.build_truncation(zspec, coeffs, 60))
    idx = np.arange(-5, 6)
    for n in idx:
        d1 = np.min(np.abs(v1 - n))
        z1 = v1[np.argmin(np.abs(v1 - n))]
        z2 = v2[np.argmin(np.abs(v2 - n))]
        assert abs(z1 - z2) < 1e-6


def test_compare_spectra_contracts():
    left = np.array([1.0, 2.0, 3.0])
    ok, worst = oracle.compare_spectra(left, left[::-1], 1e-12)
    assert ok and worst == 0.0
    with pytest.raises(errors.CardinalityMismatch):
        oracle.compare_spectra(left, left[:2], 1e-12)
    # two empty spectra agree, with no matching to run
    assert oracle.compare_spectra([], np.array([]), 1e-12) == (True, 0.0)


def test_compare_spectra_equals_scipys_matching():
    # random multisets with repeated points (double and triple ones), the
    # points moved by up to well below, near or above tol, and shuffled: the
    # same (passed, worst), bit for bit, as scipy's least-cost matching
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(3)
    tol = 1e-8
    outcomes = []
    for trial in range(200):
        n = int(rng.integers(1, 60))
        points = rng.uniform(-40, 40, n) + 1j * rng.uniform(-1, 1, n) * (trial % 2)
        reference = np.repeat(points, rng.choice([1, 1, 1, 2, 3], n))
        scale = rng.uniform(0, 1, len(reference)) * rng.choice([1e-3, 0.5, 0.99, 1.01, 2.0, 1e3])
        moved = reference + tol * scale * np.exp(2j * np.pi * rng.uniform(size=len(reference)))
        moved = rng.permutation(moved)
        cost = np.abs(moved[:, None] - reference[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = float(cost[rows, cols].max())
        assert oracle.compare_spectra(moved, reference, tol) == (worst < tol, worst)
        outcomes.append(worst < tol)
    assert 30 < sum(outcomes) < len(outcomes) - 30


def test_dimension_caps(zspec):
    # the cap (dimension 1000) is checked from the window's ends, before
    # any matrix is formed: n = 600 (dimension 1201, some 23 MB a matrix)
    # raises with well under 1 MB allocated
    import tracemalloc

    coeffs = finite_coeffs({0: 0.1})
    tracemalloc.start()
    try:
        with pytest.raises(errors.DimensionCap):
            oracle.build_truncation(zspec, coeffs, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
    assert oracle.build_truncation(zspec, coeffs, 499).matrix.shape[0] == 999
    with pytest.raises(errors.DimensionCap):
        oracle.build_truncation(zspec, coeffs, 500)
    nspec = validate_base(BaseSpectrum("N", 0, (), AffineTail(1.0, 0.0), 1.0))
    with pytest.raises(errors.DimensionCap):
        oracle.build_truncation(nspec, finite_coeffs({1: 0.1}), 1001)
    with pytest.raises(errors.WindowExceeded):
        oracle.build_truncation(zspec, coeffs, 0)
