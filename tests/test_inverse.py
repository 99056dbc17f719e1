import warnings

import numpy as np
import pytest

from rank1spec import errors, inverse
from rank1spec.charfn import CharacteristicFunction, first_pole_hit
from rank1spec.model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    TargetSpectrum,
    validate_base,
    validate_coefficients,
)

from conftest import combined_discrepancy_bound, random_base


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
    assert pf.i1 == () and pf.c1.size == 0
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
    at_2, far = pf.values(np.array([2.0, 1e6j]))
    assert at_2 == pytest.approx(0.7875)
    assert abs(far - 1.0) < 1e-5
    assert first_pole_hit(pf.lam, np.array([0.0])) is not None


def test_product_values_on_an_array_equal_the_one_point_calls(zspec):
    pf = inverse.build_product(zspec, TargetSpectrum(-1, (-0.7 + 0.1j, 0.0j, 0.5 + 0j, 0.5 + 0j)))
    z = np.array([2.0 + 0.3j, -0.4 - 1.2j, 7.5 + 0j, 0.25 + 0.25j, 1e6j, -3.1 + 0j])
    assert pf.values(z).tolist() == [pf.values(z[j : j + 1])[0] for j in range(len(z))]
    # the first point on a pole is named, with its pole
    j, k = first_pole_hit(pf.lam, np.array([0.5j, 1.0, -1.0]))
    assert j == 1 and pf.i1[k] == 1


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


def test_sample_points_are_linspace_to_the_bit(zspec):
    # the real parts are np.linspace(lo - 2 d, hi + 2 d, 25) bit for bit, lo
    # and hi the outermost poles: no moved point (lo = hi = 0), a head
    # 1801 indices wide, eigenvalues near 1e12, ends whose last ramp point
    # 24 step + start rounds off stop (linspace sets it to stop), and a gap
    # so small that (stop - start) / 24 underflows to 0, where linspace
    # divides the ramp first; the heights are 0.4 d, 0.8 d and 1.2 d in turn
    far = validate_base(BaseSpectrum("Z", 0, (), AffineTail(3.0, 1e12), 3.0))
    odd = validate_base(BaseSpectrum("Z", 0, (), AffineTail(0.37, 0.123), 0.37))
    tiny = validate_base(BaseSpectrum("Z", 0, (), AffineTail(5e-324, 0.0), 5e-324))
    cases = [
        (zspec, TargetSpectrum(-1, (-1.0 + 0j, 0j, 1.0 + 0j))),
        (zspec, TargetSpectrum(-900, (-899.7 + 0.1j,) + tuple(complex(n) for n in range(-899, 900)) + (900.2j,))),
        (far, TargetSpectrum(-3, tuple((far.lambda_range(-3, -1) + np.array([0.5j, 0.0, -1.1 + 0.2j])).tolist()))),
        (odd, TargetSpectrum(-40, tuple((odd.lambda_range(-40, 1) + np.r_[0.1j, np.zeros(40), 0.05 - 0.1j]).tolist()))),
        (tiny, TargetSpectrum(0, (0j,))),
    ]
    steps, rounded = [], []
    for spec, target in cases:
        pf = inverse.build_product(spec, target)
        d = spec.gap
        lo, hi = (pf.lam[0], pf.lam[-1]) if len(pf.lam) else (0.0, 0.0)
        z = inverse.default_sample_points(spec, pf)
        expected = np.linspace(lo - 2.0 * d, hi + 2.0 * d, inverse.SAMPLE_COUNT)
        assert z.dtype == complex and z.real.tobytes() == expected.tobytes()
        assert z.imag.tobytes() == (0.4 * d * (1.0 + np.arange(inverse.SAMPLE_COUNT) % 3)).tobytes()
        steps.append(((hi + 2.0 * d) - (lo - 2.0 * d)) / (inverse.SAMPLE_COUNT - 1))
        rounded.append((inverse.SAMPLE_COUNT - 1) * steps[-1] + (lo - 2.0 * d) != hi + 2.0 * d)
    assert [len(inverse.build_product(spec, t).i1) for spec, t in cases] == [0, 2, 2, 2, 0]
    assert steps[-1] == 0.0 and all(step > 0.0 for step in steps[:-1]) and rounded[3]


def test_coefficients_handed_on_as_arrays_equal_the_ones_rebuilt_from_their_tuples():
    # solve_inverse hands its a_n and b_n on as the coefficients' read-only
    # caches, with c_n = conj(a_n) b_n over the heads and the head radius,
    # and the product keeps its residues as a read-only array: each equals
    # what the same coefficients rebuilt from their JSON (the tuples alone)
    # evaluate, bit for bit, and so do c_range over and beyond the heads,
    # validation and the check, as do fixed-phi outputs
    from rank1spec.model import coefficients_from_json, coefficients_to_json

    rng = np.random.default_rng(43)
    specs = [
        validate_base(BaseSpectrum("Z", 0, (), AffineTail(1.0, 0.0), 1.0)),
        validate_base(BaseSpectrum("N", 1, (), AffineTail(1.0, 0.0), 1.0)),
    ]
    specs += [random_base(rng) for _ in range(4)]
    checked = 0
    for spec in specs:
        targets = [TargetSpectrum(spec.first_index(0), ())]
        targets += [_random_target(rng, spec, int(rng.integers(1, 11))) for _ in range(12)]
        for target in targets:
            coeffs, pf = inverse.solve_inverse(spec, target)
            assert not pf.c1.flags.writeable and pf.c1.dtype == complex and len(pf.c1) == len(pf.i1)
            rebuilt = coefficients_from_json(coefficients_to_json(coeffs))
            assert rebuilt == coeffs and "_a" not in vars(rebuilt)
            handed = vars(coeffs)
            for name in ("_a", "_b"):
                assert not handed[name].flags.writeable
                assert handed[name].dtype == complex and handed[name].tobytes() == getattr(rebuilt, name).tobytes()
            assert handed["_c"][0] == rebuilt._c[0] and not handed["_c"][1].flags.writeable
            assert handed["_c"][1].tobytes() == rebuilt._c[1].tobytes()
            assert handed["_radius"] == rebuilt.head_radius()
            h = coeffs.head_radius()
            samples = inverse.default_sample_points(spec, pf)
            phi = PerturbationCoefficients(
                a_head_offset=spec.first_index(h), a_head=tuple(0.5 + 0.1j * n for n in range(spec.first_index(h), 1)),
                a_tail=PowerTail(1.0, 2.0, 0.3), b_head_offset=spec.first_index(0), b_head=(), b_tail=None,
            )  # fmt: skip
            pairs = [(coeffs, rebuilt, pf)]
            if pf.i1:
                fixed, fixed_pf = inverse.solve_inverse_fixed_phi(spec, target, phi)
                pairs.append((fixed, coefficients_from_json(coefficients_to_json(fixed)), fixed_pf))
            for one, other, product in pairs:
                for lo, hi in ((spec.first_index(h), h), (spec.first_index(h + 9), h + 9), (h + 1, h + 30)):
                    assert one.c_range(lo, hi).tobytes() == other.c_range(lo, hi).tobytes()
                assert validate_coefficients(one, spec) is one and validate_coefficients(other, spec) is other
                values = [inverse.check_F_equals_product(x, product, samples) for x in (one, other)]
                assert np.float64(values[0]).tobytes() == np.float64(values[1]).tobytes()
                checked += 1
    assert checked > 100


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


def _phi(*a_head):
    return PerturbationCoefficients(0, tuple(a_head), None, 0, (), None)


@pytest.mark.parametrize("a_0", [float("nan"), 1e-310])
def test_fixed_phi_rejects_a_quotient_that_is_not_finite(zspec, two_point_target, a_0):
    # c_0 / conj(a_0) is nan or overflows: named, with no RuntimeWarning,
    # where b_0 was written as [nan, nan] or [inf, nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ZeroCoefficientObstruction, match=r"^c_0 = .* not finite at a_0 = "):
            inverse.solve_inverse_fixed_phi(zspec, two_point_target, _phi(a_0, 1.0))


def test_fixed_phi_writes_b_over_the_range_of_I1_only(zspec):
    # a = 1 on indices 0 and 1 and zero tails: b's head spans I1 = {0, 1}
    # and the coefficients are valid, where a head over |n| <= 1 wrote
    # b_-1 = 0 beside a_-1 = 0, which validation rejects
    coeffs, _ = inverse.solve_inverse_fixed_phi(zspec, TargetSpectrum(0, (0.25 + 0j, 1.1 + 0j)), _phi(1.0, 1.0))
    assert (coeffs.b_head_offset, len(coeffs.b_head)) == (0, 2)
    # moving indices 0 and 2 leaves c_1 = 0 inside I1's range, where a_1 = 0
    target = TargetSpectrum(0, (0.25 + 0j, 1.0 + 0j, 2.1 + 0j))
    with pytest.raises(errors.DegenerateIndex, match="explicit index 1"):
        inverse.solve_inverse_fixed_phi(zspec, target, _phi(1.0, 0.0, 1.0))


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
        assert pf.i1 == () and pf.c1.size == 0 and disc == 0.0 and worst == 0.0
        assert np.array_equal(np.sort(ps.eigenvalues().real), spec.lambda_at(spec.window_indices(6)))


# ---------------------------------------------------------------------------
# the residues against 40-digit values, and the check against F as built

U = 2.0**-53  # unit round-off of a double


def _relative_errors(pf, rows=None):
    """|c_n - C_n| / |C_n| at the positions rows of I1 (all of them when
    None), C_n the residue in 40-digit mpmath from the same doubles nu_n and
    lambda_n."""
    import mpmath

    with mpmath.workdps(40):
        nu, lam = [mpmath.mpc(v) for v in pf.nu.tolist()], [mpmath.mpf(v) for v in pf.lam.tolist()]
        errs = []
        for j in range(len(lam)) if rows is None else rows:
            exact = nu[j] - lam[j]
            for m in range(len(lam)):
                if m != j:
                    exact *= (nu[m] - lam[j]) / (lam[m] - lam[j])
            errs.append(float(abs(pf.c1[j] - exact) / abs(exact)))
    return np.array(errs)


def _check_by_build(coeffs, pf, sample_points):
    """max |F - F~| over the samples with F from CharacteristicFunction.build
    on the deviating window plus eight indices (and the whole coefficient
    head), F's poles checked first and then the product's."""
    radius = max((abs(n) for n in pf.i1), default=1)
    cf = CharacteristicFunction.build(pf.spec, coeffs, max(radius, coeffs.head_radius()) + 8)
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    hit = first_pole_hit(cf.lam1, z)
    if hit is not None:
        raise errors.PoleHit(f"z = {z[hit[0]]} coincides with pole lambda at index {int(cf.idx1[hit[1]])}")
    hit = first_pole_hit(pf.lam, z)
    if hit is not None:
        raise errors.PoleHit(f"z = {z[hit[0]]} coincides with pole at index {pf.i1[hit[1]]}")
    return float(np.abs(cf.values(z) - pf.values(z)).max(initial=0.0))


def _random_target(rng, spec, m):
    """m moved points among the first 17 indices of spec (|n| <= 8 over Z),
    at times two of them on one value and one on another index's lambda."""
    lo = -8 if spec.index_kind == "Z" else spec.start
    idx = np.sort(rng.choice(17, size=m, replace=False)) + lo
    head = spec.lambda_range(idx[0], idx[-1]).astype(complex)
    moved = idx - idx[0]
    head[moved] += spec.gap * (rng.uniform(-0.3, 0.3, m) + 1j * rng.uniform(-0.3, 0.3, m))
    if m > 1 and rng.integers(2):  # a double point
        head[moved[1]] = head[moved[0]]
    if m > 2 and rng.integers(2):  # a value on another index's lambda: a swap
        head[moved[-1]] = spec.lambda_range(idx[0], idx[0])[0]
    return TargetSpectrum(int(idx[0]), tuple(head.tolist()))


def test_residues_lie_within_their_rounding_bound_of_40_digit_values(zspec):
    # lambda_n = n, up to 10 moved points with double points and swaps: each
    # residue within 16 (|I1| + 1) u of its 40-digit value, u the unit round-off
    rng = np.random.default_rng(7)
    sizes = set()
    for _ in range(200):
        pf = inverse.build_product(zspec, _random_target(rng, zspec, int(rng.integers(1, 11))))
        assert _relative_errors(pf).max() <= 16 * (len(pf.i1) + 1) * U
        sizes.add(len(pf.i1))
    assert {1, 10} <= sizes


def test_residues_take_memory_linear_in_the_moved_points(zspec):
    # every |n| <= 70 moved by 0.1i: the rows of ratios are formed ROWS at a
    # time, where one lexsort of all 141 x 141 of the poles' distances once
    # peaked at 0.34 MB, 2.4 KB a moved point
    import tracemalloc

    target = TargetSpectrum(-70, tuple(complex(n, 0.1) for n in range(-70, 71)))
    tracemalloc.start()
    try:
        pf = inverse.build_product(zspec, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pf.i1) == 141
    assert peak < 1000 * len(pf.i1), f"peak {peak / 1e3:.0f} KB"
    assert _relative_errors(pf).max() <= 16 * (len(pf.i1) + 1) * U  # over several blocks


def test_residues_do_not_depend_on_the_block_of_rows(zspec, monkeypatch):
    # every |n| <= 70 moved by 0.1i, 18 blocks of rows or 141 blocks of one
    target = TargetSpectrum(-70, tuple(complex(n, 0.1) for n in range(-70, 71)))
    c1 = inverse.build_product(zspec, target).c1
    monkeypatch.setattr(inverse, "ROWS", 1)
    assert inverse.build_product(zspec, target).c1.tobytes() == c1.tobytes()


def test_residues_of_2001_moved_points_keep_their_accuracy(zspec):
    # every |n| <= 1000 moved by 0.1i, in 251 blocks of rows: the first,
    # middle and last residues and five others are within 1e-14 of their
    # 40-digit values
    pf = inverse.build_product(zspec, TargetSpectrum(-1000, tuple(complex(n, 0.1) for n in range(-1000, 1001))))
    assert len(pf.i1) == 2001
    rows = [0, 1000, 2000, *np.random.default_rng(0).choice(2001, 5, replace=False).tolist()]
    assert _relative_errors(pf, rows).max() < 1e-14


def test_check_equals_the_value_from_F_as_built():
    # random targets over Z and over N, with affine and non-affine heads, and
    # fixed-phi coefficients whose a-head stops short of the deviating
    # window (a's power tail gives a_n over the rest): the check's value is
    # max |F - F~| from CharacteristicFunction.build bit for bit
    rng = np.random.default_rng(5)
    specs = [
        validate_base(BaseSpectrum("Z", 0, (), AffineTail(1.0, 0.0), 1.0)),
        validate_base(BaseSpectrum("N", 1, (), AffineTail(1.0, 0.0), 1.0)),
    ]
    specs += [random_base(rng) for _ in range(6)]
    assert {spec.index_kind for spec in specs} == {"Z", "N"}
    short = 0
    for spec in specs:
        for _ in range(12):
            target = _random_target(rng, spec, int(rng.integers(1, 11)))
            coeffs, pf = inverse.solve_inverse(spec, target)
            samples = inverse.default_sample_points(spec, pf)
            points = np.concatenate([samples, spec.lambda_range(-2, 20)[:5] + 0.3j])
            for z in (samples, points.reshape(2, -1)):
                assert inverse.check_F_equals_product(coeffs, pf, z) == _check_by_build(coeffs, pf, z)
            if not pf.i1:
                continue
            # a's head from the residue window's first index (over Z, through
            # index 0, where a power tail is undefined) to about its middle
            first = -max(-pf.i1[0], pf.i1[-1]) if spec.index_kind == "Z" else spec.start
            head = range(first, max(0 if spec.index_kind == "Z" else first, (first + pf.i1[-1]) // 2) + 1)
            phi = PerturbationCoefficients(
                a_head_offset=first, a_head=tuple(0.5 + 0.1j * n for n in head), a_tail=PowerTail(1.0, 2.0, 0.3),
                b_head_offset=first, b_head=(), b_tail=None,
            )  # fmt: skip
            coeffs, pf = inverse.solve_inverse_fixed_phi(spec, target, phi)
            short += head[-1] < pf.i1[-1]
            assert inverse.check_F_equals_product(coeffs, pf, samples) == _check_by_build(coeffs, pf, samples)
    assert short > 20


def test_check_names_the_pole_a_sample_sits_on_as_before(zspec):
    # samples on two poles, one of them within the pole tolerance: the first
    # such sample is named, with the pole's index, as F's pole check named it
    coeffs, pf = inverse.solve_inverse(zspec, TargetSpectrum(-2, (-2.2 + 0.1j, -1.0, 0.3j, 0.5, 0.5)))
    samples = inverse.default_sample_points(zspec, pf)
    for pole, other in ((0.0, 2.0 + 1e-13j), (2.0 + 1e-13j, -2.0), (-2.0, 0.0)):
        z = np.concatenate([samples[:4], [pole], samples[4:9], [other], samples[9:]])
        with pytest.raises(errors.PoleHit) as new:
            inverse.check_F_equals_product(coeffs, pf, z)
        with pytest.raises(errors.PoleHit) as old:
            _check_by_build(coeffs, pf, z)
        assert str(new.value) == str(old.value)
        assert str(new.value).endswith(f"index {int(round(pole.real))}")


def test_a_point_moved_past_709_gaps_keeps_its_exact_residue(zspec):
    # lambda_0 moved to 800.5: the one residue is 800.5 itself, where a cap of
    # exp(sum |nu - lambda| / d) once overflowed a double past 709.8 gaps
    pf = inverse.build_product(zspec, TargetSpectrum(0, (800.5 + 0j,)))
    assert pf.i1 == (0,) and pf.c1.tolist() == [800.5 + 0j]


@pytest.mark.parametrize("count, move", [(60, 1e9), (200, 1e7)])
def test_a_residue_that_overflows_is_not_summable(zspec, count, move):
    # indices 0..count - 1 each moved by move: c_0's product overflows, and
    # the error names its index
    target = TargetSpectrum(0, tuple(n + move + 0j for n in range(count)))
    with pytest.raises(errors.NonSummable, match=r"^residue c_0 overflows"):
        inverse.build_product(zspec, target)
