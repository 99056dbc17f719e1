import numpy as np
import pytest

from rank1spec import errors, gallery
from rank1spec.charfn import CharacteristicFunction
from rank1spec.model import validate_base, validate_coefficients


def test_periodic_base_validates():
    spec = validate_base(gallery.example_periodic_base())
    assert spec.gap == 1.0
    assert spec.lambda_at(-17) == -17.0


def test_closed_form_matches_symmetric_truncation():
    spec = validate_base(gallery.example_periodic_base())
    coeffs, closed = gallery.harmonic_family(window=3000)
    cf = CharacteristicFunction.build(spec, coeffs, 3000)
    for z in (0.37 + 0.4j, -2.6 + 1.1j, 5.2 - 0.8j):
        approx = cf.values(np.array([z]))[0]
        exact = closed.value(z)
        # symmetric pairs leave a ~2/N principal-value tail
        assert abs(approx - exact) < 2e-3


def test_nonsummable_family_fails_validation():
    spec = validate_base(gallery.example_periodic_base())
    coeffs, _ = gallery.harmonic_family(window=10)
    with pytest.raises(errors.NonSummable):
        validate_coefficients(coeffs, spec)


def test_offset_zero_solves_defining_equation():
    for n in (1, 2, 10, 100, 200, -3, -150):
        mu = gallery.harmonic_zero(n)
        assert gallery.harmonic_tan_residual(mu) < 1e-10
        # zero stays inside the unit gap around n
        assert abs(mu - n) < 0.5


def test_scaled_offsets_approach_one():
    scaled = np.array([n * (gallery.harmonic_zero(n) - n) for n in (50, 100, 200)])
    assert np.all(np.abs(scaled - 1.0) < 0.05)
    # monotone improvement with n
    errs = np.abs(scaled - 1.0)
    assert errs[2] < errs[0]


def test_offset_partial_sums_grow_like_log():
    rep = gallery.harmonic_report(n_max=200)
    assert rep["max_tan_residual"] < 1e-8
    partial = rep["partial_sums"]
    assert partial[-1] > partial[99] > partial[9]  # still growing: no convergence
    assert 0.8 <= rep["log_fit_coefficient"] <= 1.2


def test_power_family_coefficients():
    coeffs = gallery.power_family(beta=2.0, window=50)
    spec = validate_base(gallery.example_periodic_base())
    coeffs = validate_coefficients(coeffs, spec)
    assert coeffs.c_at(3) == pytest.approx(3.0**-4)
    assert coeffs.c_at(-5) == pytest.approx(5.0**-4)
    assert coeffs.c_at(0) == 0.0
    # the generated tail continues the head values seamlessly
    assert coeffs.c_at(60) == pytest.approx(60.0**-4)


def test_power_family_rejects_bad_beta():
    with pytest.raises(errors.BetaOutOfRange):
        gallery.power_family(beta=1.0, window=10)
    with pytest.raises(errors.BetaOutOfRange):
        gallery.harmonic_family(window=0)


def test_power_family_offsets_decay():
    from rank1spec.direct import LocalizeOptions

    opts = LocalizeOptions(window=40, n_trunc=400)
    ns, offs, loc = gallery.power_offsets(2.0, n_lo=10, n_hi=40, opts=opts)
    assert ns.tolist() == list(range(10, 41))
    assert np.all(offs > 0)
    assert offs[-1] < offs[0]
    slope, _, _, _ = gallery.power_slope(2.0, n_lo=10, n_hi=40, opts=opts)
    assert abs(slope - (-4.0)) < 0.4


def test_closed_form_raises_on_its_poles():
    closed = gallery.CotangentClosedForm()
    for z in (0.0, 3.0, -2.0 + 1e-14j):
        with pytest.raises(errors.PoleHit):
            closed.value(z)


def test_families_reject_window_zero_and_index_zero():
    with pytest.raises(errors.BetaOutOfRange, match="window must be at least 1"):
        gallery.power_family(2.0, 0)
    with pytest.raises(errors.BetaOutOfRange, match="window must be at least 1"):
        gallery.harmonic_family(0)
    with pytest.raises(ValueError, match="n = 0 has no associated zero"):
        gallery.harmonic_zero(0)


def test_harmonic_tail_spans_the_upper_half_of_a_small_window():
    # at window 50 the tail is n = 25..50, where it was the one index n = 50
    rep = gallery.harmonic_report(50)
    want = max(abs(n * (gallery.harmonic_zero(n) - n) - 1.0) for n in range(25, 51))
    assert rep["max_scaled_error_tail"] == want
