import numpy as np
import pytest

from rank1spec import errors, inverse
from rank1spec.model import (
    PerturbationCoefficients,
    TargetSpectrum,
    validate_coefficients,
)

from conftest import combined_discrepancy_bound


@pytest.fixture
def two_point_target():
    return TargetSpectrum(0, (0.25 + 0j, 1.1 + 0j))


def test_build_product_separates_deviating_indices(zspec, two_point_target):
    pf = inverse.build_product(zspec, two_point_target)
    assert pf.i1 == (0, 1)
    assert pf.nu.tolist() == [0.25, 1.1]
    assert pf.lam.tolist() == [0.0, 1.0]


def test_build_product_swap_normalization(zspec):
    # nu_0 = 1 equals lambda_1; the swap pulls it onto index 1 so that only
    # index 0 deviates (to 1.3)
    pf = inverse.build_product(zspec, TargetSpectrum(0, (1.0 + 0j, 1.3 + 0j)))
    assert pf.i1 == (0,)
    assert pf.nu.tolist() == [1.3]


def test_build_product_follows_a_chain_of_swaps(zspec):
    # nu = (1, 2, 0): pulling 0 onto index 0 leaves 2 on index 1 and 1 on
    # index 2, and a second swap puts both home, so no index deviates
    pf = inverse.build_product(zspec, TargetSpectrum(0, (1.0 + 0j, 2.0 + 0j, 0j)))
    assert (pf.i1, pf.c1) == ((), ())
    assert pf.nu.size == pf.lam.size == 0


def test_build_product_takes_lambda_in_one_array_call(monkeypatch):
    # a non-affine head and a swap: one lambda_range call, giving the
    # per-index calls' values bit for bit
    from rank1spec.model import AffineTail, BaseSpectrum, validate_base

    spec = validate_base(BaseSpectrum("Z", -2, (-2.3, -0.9, 0.1, 1.15, 2.4), AffineTail(1.1, 0.05), 0.9))
    target = TargetSpectrum(-3, (-3.2 + 0.1j, 1.15 + 0j, -0.9 + 0j, 0.3 + 0j, 0.3 + 0j, 2.4 + 0j, 2.9 - 0.2j))
    calls, lambda_range = [], BaseSpectrum.lambda_range
    monkeypatch.setattr(BaseSpectrum, "lambda_range", lambda sp, lo, hi: calls.append(lo) or lambda_range(sp, lo, hi))
    pf = inverse.build_product(spec, target)
    assert len(calls) == 1
    monkeypatch.undo()
    # 1.15 = lambda_1 moves from index -2 to 1, and 0.3 from index 1 to -2
    assert pf.i1 == (-3, -2, 0, 3)
    assert pf.nu.tolist() == [-3.2 + 0.1j, 0.3, 0.3, 2.9 - 0.2j]
    assert pf.lam.dtype == float and pf.lam.tobytes() == np.array([spec.lambda_at(n) for n in pf.i1]).tobytes()


def test_product_hand_values(zspec, two_point_target):
    pf = inverse.build_product(zspec, two_point_target)
    # (0.25-2)/(0-2) * (1.1-2)/(1-2) = 0.875 * 0.9
    assert pf.eval_product(2.0) == pytest.approx(0.7875)
    assert abs(pf.eval_product(1e6j) - 1.0) < 1e-5
    with pytest.raises(errors.PoleHit):
        pf.eval_product(0.0)


def test_eval_product_on_an_array_equals_the_scalar_calls(zspec):
    pf = inverse.build_product(zspec, TargetSpectrum(-1, (-0.7 + 0.1j, 0.0j, 0.5 + 0j, 0.5 + 0j)))
    z = np.array([[2.0 + 0.3j, -0.4 - 1.2j, 7.5 + 0j], [0.25 + 0.25j, 1e6j, -3.1 + 0j]])
    values = pf.eval_product(z)
    assert values.shape == z.shape
    assert values.tolist() == [[pf.eval_product(v) for v in row] for row in z.tolist()]
    assert isinstance(pf.eval_product(3.5), complex)
    with pytest.raises(errors.PoleHit, match="index 1$"):
        pf.eval_product(np.array([0.5j, 1.0, -1.0]))


def test_residues_hand_values(zspec, two_point_target):
    pf = inverse.build_product(zspec, two_point_target)
    c = dict(zip(pf.i1, pf.c1))
    assert c[0] == pytest.approx(0.275)
    assert c[1] == pytest.approx(0.075)


def test_residues_double_point(zspec):
    pf = inverse.build_product(zspec, TargetSpectrum(0, (0.5 + 0j, 0.5 + 0j)))
    c = dict(zip(pf.i1, pf.c1))
    assert c[0] == pytest.approx(0.25)
    assert c[1] == pytest.approx(-0.25)


def test_synthesis_realizes_residues(zspec, two_point_target):
    coeffs, pf = inverse.solve_inverse(zspec, two_point_target)
    coeffs = validate_coefficients(coeffs, zspec)
    c = dict(zip(pf.i1, pf.c1))
    for n, c_n in c.items():
        assert abs(coeffs.c_at(n) - c_n) < 1e-15
    # off the deviating window b vanishes and a stays square-summable
    assert coeffs.b_at(7) == 0.0
    assert coeffs.c_at(7) == 0.0
    assert abs(coeffs.a_at(30)) == pytest.approx(1.0 / 30.0)


def test_F_equals_product_on_samples(zspec, two_point_target):
    coeffs, pf = inverse.solve_inverse(zspec, two_point_target)
    samples = inverse.default_sample_points(zspec, pf)
    assert len(samples) == 25
    disc = inverse.check_F_equals_product(coeffs, pf, samples)
    bound = combined_discrepancy_bound(coeffs, pf, samples)
    assert disc <= bound
    assert disc < 1e-12


def test_fixed_phi_variant(zspec, two_point_target):
    phi = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(2.0 + 0j, 0.5j),
        a_tail=None,
        b_head_offset=0,
        b_head=(0.0j, 0.0j),
        b_tail=None,
    )
    coeffs, pf = inverse.solve_inverse_fixed_phi(zspec, two_point_target, phi)
    c = dict(zip(pf.i1, pf.c1))
    for n in (0, 1):
        assert abs(coeffs.c_at(n) - c[n]) < 1e-15
    assert coeffs.a_head == phi.a_head


def test_fixed_phi_obstruction(zspec, two_point_target):
    phi = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(0.0j, 1.0 + 0j),
        a_tail=None,
        b_head_offset=0,
        b_head=(0.0j, 0.0j),
        b_tail=None,
    )
    with pytest.raises(errors.ZeroCoefficientObstruction):
        inverse.solve_inverse_fixed_phi(zspec, two_point_target, phi)


def test_complex_target_residue(zspec):
    coeffs, pf = inverse.solve_inverse(zspec, TargetSpectrum(0, (1j,)))
    c = dict(zip(pf.i1, pf.c1))
    assert c[0] == pytest.approx(1j)
    assert abs(coeffs.c_at(0) - 1j) < 1e-15


def test_roundtrip_random_targets(zspec):
    from rank1spec.direct import LocalizeOptions, solve_direct
    from rank1spec.oracle import compare_spectra

    rng = np.random.default_rng(11)
    for _ in range(3):
        m = int(rng.integers(1, 5))
        idx = sorted(rng.choice(np.arange(-6, 7), size=m, replace=False))
        nus = tuple(
            complex(n + rng.uniform(-0.25, 0.25), rng.uniform(-0.1, 0.1))
            for n in idx
        )
        head = []
        for n in range(idx[0], idx[-1] + 1):
            head.append(nus[idx.index(n)] if n in idx else complex(zspec.lambda_at(n)))
        target = TargetSpectrum(int(idx[0]), tuple(head))
        coeffs, _ = inverse.solve_inverse(zspec, target)
        coeffs = validate_coefficients(coeffs, zspec)
        ps, loc = solve_direct(zspec, coeffs, LocalizeOptions(window=8, n_trunc=30))
        ref = np.atleast_1d(target.nu_at(zspec.window_indices(loc.window), zspec))
        ok, worst = compare_spectra(ps, ref, 1e-8)
        assert ok, f"roundtrip deviation {worst:.3e}"


def _roundtrip(spec, target, opts):
    """(product function, F vs product discrepancy, solved spectrum, worst
    deviation from the target over the window) of one round trip."""
    from rank1spec.direct import solve_direct
    from rank1spec.oracle import compare_spectra

    coeffs, pf = inverse.solve_inverse(spec, target)
    disc = inverse.check_F_equals_product(coeffs, pf, inverse.default_sample_points(spec, pf))
    ps, loc = solve_direct(spec, validate_coefficients(coeffs, spec), opts)
    ref = np.atleast_1d(target.nu_at(spec.window_indices(loc.window), spec))
    ok, worst = compare_spectra(ps, ref, 1e-8)
    assert ok and ps.certified, f"roundtrip deviation {worst:.3e}"
    return pf, disc, ps, worst


def test_roundtrip_over_the_natural_numbers():
    # an affine base from index 1, and a non-affine head at indices 3..5
    # (gap 0.7) before an affine tail: the residue window starts at the
    # index set's start, and the spectrum is rebuilt to round-off
    from rank1spec.direct import LocalizeOptions
    from rank1spec.model import AffineTail, BaseSpectrum, validate_base

    affine = validate_base(BaseSpectrum("N", 1, (), AffineTail(1.0, 0.0), 1.0))
    head = validate_base(BaseSpectrum("N", 3, (3.0, 3.7, 4.5), AffineTail(1.0, 0.0), 0.7))
    cases = (
        (affine, TargetSpectrum(2, (2.2 + 0.1j, 3.0 + 0j, 3.9 - 0.05j)), (2, 4)),
        (head, TargetSpectrum(3, (3.1 + 0.05j, 3.7 + 0j, 4.4 - 0.1j, 6.15 + 0.02j)), (3, 5, 6)),
    )
    for spec, target, moved in cases:
        pf, disc, _, worst = _roundtrip(spec, target, LocalizeOptions(window=10, n_trunc=30))
        assert pf.i1 == moved and disc < 1e-14 and worst < 1e-15


def test_roundtrip_of_a_target_with_no_moved_point(zspec):
    # a target equal to lambda: no deviating index, F = the empty product = 1,
    # and the spectrum is lambda itself, over Z and over N
    from rank1spec.direct import LocalizeOptions
    from rank1spec.model import AffineTail, BaseSpectrum, validate_base

    nspec = validate_base(BaseSpectrum("N", 1, (), AffineTail(1.0, 0.0), 1.0))
    unmoved = (zspec, TargetSpectrum(-1, (-1.0 + 0j, 0j, 1.0 + 0j))), (nspec, TargetSpectrum(1, (1.0 + 0j,)))
    for spec, target in unmoved:
        pf, disc, ps, worst = _roundtrip(spec, target, LocalizeOptions(window=6, n_trunc=20))
        assert pf.i1 == () and pf.c1 == () and disc == 0.0 and worst == 0.0
        assert np.array_equal(np.sort(ps.eigenvalues().real), spec.lambda_at(spec.window_indices(6)))
