import math

from hypothesis import given, reject, settings, strategies as st
import numpy as np
import pytest

from rank1spec import direct, errors
from rank1spec.charfn import (
    TRUNC_CAP,
    CharacteristicFunction,
    compute_Keps,
    first_cut,
    first_pole_hit,
)
from rank1spec.direct import LocalizeOptions
from rank1spec.model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    validate_base,
    validate_coefficients,
)

from conftest import c_tail_sum, finite_coeffs, random_base, random_coeffs


def test_build_keeps_the_window_data_of_the_model():
    # the window's indices, eigenvalues and c_n, which the outer disks and
    # the assembly slice, are the model's own bit for bit: Z and N, non-affine
    # heads, power tails
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = random_base(rng)
        coeffs = validate_coefficients(random_coeffs(rng, spec), spec)
        n_trunc = int(rng.integers(1, 60))
        cf = CharacteristicFunction.build(spec, coeffs, n_trunc)
        idx = spec.window_indices(n_trunc)
        assert cf.idx.tobytes() == idx.tobytes()
        assert cf.lam.tobytes() == np.asarray(spec.lambda_at(idx), dtype=float).tobytes()
        assert cf.c.tobytes() == np.asarray(coeffs.c_at(idx), dtype=complex).tobytes()
    for n_trunc in (0, -3):
        with pytest.raises(errors.WindowExceeded, match="n_trunc must be positive"):
            CharacteristicFunction.build(spec, coeffs, n_trunc)


@pytest.fixture
def two_point(zspec):
    # F(z) = 1 + 0.275/(0 - z) + 0.075/(1 - z) has the exact zeros 1/4, 11/10
    coeffs = finite_coeffs({0: 0.275, 1: 0.075})
    return CharacteristicFunction.build(zspec, coeffs, 10)


def test_hand_zeros_and_derivative(two_point):
    f = two_point.values(np.array([0.25, 1.1]))
    assert abs(f[0]) < 1e-15 and abs(f[1]) < 1e-14
    assert np.all(two_point.tail_bound_at(np.array([0.25, 1.1])) == 0.0)
    # F'(1/4) = 0.275/(1/4)^2 + 0.075/(3/4)^2 = 4.4 + 2/15
    fp = two_point.derivative_values(np.array([0.25]))[0]
    assert fp == pytest.approx(4.4 + 2.0 / 15.0, rel=1e-14)


def test_finite_difference_derivatives(two_point):
    z = 0.4 + 0.3j
    h = 1e-6
    for order in (1, 2):
        lo = two_point.derivative_values(np.array([z - h]), order - 1)[0]
        hi = two_point.derivative_values(np.array([z + h]), order - 1)[0]
        if order == 1:  # order 0 is F itself
            assert (lo, hi) == (two_point.values(np.array([z - h]))[0], two_point.values(np.array([z + h]))[0])
        fd = (hi - lo) / (2 * h)
        exact = two_point.derivative_values(np.array([z]), order)[0]
        assert abs(fd - exact) < 1e-7 * (1 + abs(exact))


def test_conjugate_symmetry_for_real_coefficients(two_point):
    z = 0.37 + 0.91j
    up = two_point.values(np.array([z]))[0]
    down = two_point.values(np.array([np.conj(z)]))[0]
    assert abs(np.conj(up) - down) < 1e-15


def test_pole_detection(two_point):
    assert first_pole_hit(two_point.lam1, np.array([0.0])) is not None
    assert first_pole_hit(two_point.lam1, np.array([1.0 + 1e-16j])) is not None
    # lambda_5 is not a pole: c_5 = 0
    assert first_pole_hit(two_point.lam1, np.array([5.0])) is None
    assert np.isfinite(two_point.values(np.array([5.0]))[0])
    # among several points the first one on a pole is named, with its pole
    j, k = first_pole_hit(two_point.lam1, np.array([0.5 + 0.5j, 5.0, 1.0, 0.0]))
    assert j == 2 and two_point.idx1[k] == 1


def test_pole_detection_up_to_the_largest_tolerance():
    # the tolerance at lambda = 1e6 is 1e-6 and at lambda = 1 it is 1e-12:
    # 0.9e-6 above the real axis a point is on the pole 1e6 only, and when
    # every point is 1.1e-6 or more above it, it is on no pole
    lam = np.array([0.0, 1.0, 1e6])
    assert first_pole_hit(lam, np.array([1.0 + 0.9e-6j, 1e6 + 0.9e-6j])) == (1, 2)
    assert first_pole_hit(lam, np.array([1e6 + 1.1e-6j, 1.0 + 1.1e-6j, 1j])) is None


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
    z = np.array([0.5 + 0.5j, -3.3 + 0.2j, 10.4 - 1.0j])
    lo, bound = coarse.values(z), coarse.tail_bound_at(z)
    hi, fine_bound = fine.values(z), fine.tail_bound_at(z)
    assert np.all(np.abs(lo - hi) <= bound)
    assert np.all(fine_bound < bound)


def test_shifted_evaluation_matches_direct(two_point):
    w = 1e-9 + 1e-10j
    direct = two_point.values(np.array([1.0 + w], dtype=complex))[0]
    shifted = two_point.shifted_values(1, np.array([w]))[0]
    # shifted coordinates keep precision that the direct form has already lost
    assert abs(shifted - direct) < 1e-6 * abs(direct)
    assert abs(shifted - (1.0 + 0.275 / (-1.0 - w) + 0.075 / (-w))) < 1e-3 * abs(shifted)


def test_single_term_and_partial_sum_approximants(zspec, two_point):
    z = np.array([0.5 + 0.25j])
    # the single-term approximant G_0 = 1 + c_0/(lambda_0 - z) is F of c_0 alone
    g0 = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.275}), 10).values(z)[0]
    assert g0 == 1.0 + 0.275 / (0.0 - z[0])
    # the partial sum H_1 over |n| <= 1 holds every term of F
    h1 = CharacteristicFunction.build(zspec, finite_coeffs({0: 0.275, 1: 0.075}), 1).values(z)[0]
    assert abs(h1 - two_point.values(z)[0]) < 1e-15
    assert first_pole_hit(two_point.lam1, np.array([1.0])) is not None


@st.composite
def _head_spectra(draw):
    """A spectrum whose non-affine head may reach past n_trunc, the window
    n_trunc, and points on either side of and inside the head."""
    kind = draw(st.sampled_from(["Z", "N"]))
    slope = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0]))
    intercept = draw(st.floats(-3.0, 3.0))
    n_trunc = draw(st.integers(1, 12))
    length = draw(st.integers(1, 25))
    h0 = draw(st.integers(-30, 20) if kind == "Z" else st.integers(1, 15))
    # head values strictly between the affine lambda_{h0-1} and lambda_{h0+length},
    # packed into a share `span` of that range (a clustered head when small)
    lo, hi = slope * (h0 - 1) + intercept, slope * (h0 + length) + intercept
    span = draw(st.sampled_from([1.0, 0.3, 0.05]))
    start = draw(st.floats(0.0, 1.0 - span))
    fracs = sorted(draw(st.lists(st.integers(1, 999), min_size=length, max_size=length, unique=True)))
    head = tuple(lo + (hi - lo) * (start + span * f / 1000.0) for f in fracs)
    spec = validate_base(BaseSpectrum(kind, h0, head, AffineTail(slope, intercept), 1e-9))
    xs = draw(st.lists(st.floats(lo - 15.0, hi + 15.0), min_size=1, max_size=8))
    ys = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(xs), max_size=len(xs)))
    return spec, n_trunc, np.array(xs) + 1j * np.array(ys)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_head_spectra())
def test_delta_unrepresented_is_the_nearest_pole_outside_the_window(case):
    spec, n_trunc, z = case
    cf = CharacteristicFunction.build(spec, finite_coeffs({spec.start or 0: 0.1}), n_trunc)
    # brute force over every index outside the window: the points lie within
    # 250 of zero and the slope is at least 1/2, so the nearest affine index
    # lies within 510
    n = np.arange(-1000, 1001) if spec.index_kind == "Z" else np.arange(spec.start, 1001)
    outside = n[(np.abs(n) if spec.index_kind == "Z" else n) > n_trunc]
    lam = spec.lambda_at(outside)
    brute = lambda z: np.abs(lam[:, None] - z).min(axis=0)
    # between the poles that bound the window delta is the nearest pole's
    # distance to the bit, head eigenvalues included; beyond them a lower
    # bound.  The drawn points clipped to the bounding poles lie between
    right = spec.lambda_at(max(n_trunc + 1, spec.first_index(n_trunc)))
    left = spec.lambda_at(-n_trunc - 1) if spec.index_kind == "Z" else -np.inf
    between = (left <= z.real) & (z.real <= right)
    got, want = cf.delta_unrepresented(z), brute(z)
    assert np.array_equal(got[between], want[between])
    assert np.all(got[~between] <= want[~between])
    clipped = np.clip(z.real, left, right) + 1j * z.imag
    assert np.array_equal(cf.delta_unrepresented(clipped), brute(clipped))


def test_delta_unrepresented_sees_head_eigenvalues_beyond_the_window():
    # lambda_n = n on the head and 5n beyond: the window |n| <= 10 is bound
    # by the head's lambda_11 = 11 (and lambda_-11 = -11 over Z), where the
    # affine tail would put 55 (and -55)
    zhead = validate_base(
        BaseSpectrum("Z", -30, tuple(float(n) for n in range(-30, 31)), AffineTail(5.0, 0.0), 1.0)
    )
    cf = CharacteristicFunction.build(zhead, finite_coeffs({3: 0.2}), 10)
    assert cf.delta_unrepresented(10.7)[0] == pytest.approx(0.3, abs=1e-12)
    assert cf.delta_unrepresented(-10.4 + 0.8j)[0] == pytest.approx(1.0, abs=1e-12)
    nhead = validate_base(
        BaseSpectrum("N", 1, tuple(float(n) for n in range(1, 41)), AffineTail(5.0, 0.0), 1.0)
    )
    cf = CharacteristicFunction.build(nhead, finite_coeffs({1: 0.3}), 10)
    assert cf.delta_unrepresented(10.8)[0] == pytest.approx(0.2, abs=1e-12)


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
        assert c_tail_sum(coeffs, k_eps, "Z") < eps
        if k_eps > 0:
            assert c_tail_sum(coeffs, k_eps - 1, "Z") >= eps
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


@pytest.mark.parametrize("beta, scale", [(0.6, 1.0), (0.6, 3.0), (0.52, 1.0)])
def test_compute_Keps_rejects_a_tail_that_decays_too_slowly(zspec, monkeypatch, beta, scale):
    # c_n ~ scale |n|^(-2 beta) passes validation (beta > 1/2), but its sum
    # beyond radius 32000 stays above eps: K_eps is beyond any window a
    # solve builds.  A walk one radius at a time from the closed-form start
    # (about 2.4e7, 1.4e12 and 2.5e54 here) did not end, or asked for an
    # array of 1.4e12 indices; the bisection makes a few power_tail_sum calls
    tail = PowerTail(beta, scale, 0.3 if beta == 0.6 else 0.0)
    coeffs = validate_coefficients(
        PerturbationCoefficients(-3, (1.0,) * 7, tail, -3, (0.1,) * 7, tail), zspec
    )
    calls, tail_sum = [], PerturbationCoefficients.power_tail_sum
    monkeypatch.setattr(
        PerturbationCoefficients, "power_tail_sum", lambda self, *a: calls.append(a) or tail_sum(self, *a)
    )
    with pytest.raises(errors.WindowExceeded, match="^K_eps exceeds 32000: "):
        compute_Keps(zspec, coeffs, 1.0 / 3.0)
    assert len(calls) < 20


def test_zero_tail_instance_has_zero_bound(zspec, two_point):
    assert two_point.tail_total == 0.0
    assert np.all(two_point.tail_bound_at(np.array([0.5 + 1j])) == 0.0)


def test_large_z_limit_is_one(two_point):
    f = two_point.values(np.array([1e9 + 1e9j]))[0]
    assert abs(f - 1.0) < 1e-8


def _keps_by_radius_loop(spec, coeffs, eps):
    # the radius-by-radius search: one c_tail_sum (and c_at pass) per radius
    h = coeffs.head_radius()
    k_eps = next((n for n in range(h + 2) if c_tail_sum(coeffs, n, spec.index_kind) < eps), None)
    if k_eps is None:
        k_eps = h + 2
        while c_tail_sum(coeffs, k_eps, spec.index_kind) >= eps:
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
                edge = 0.5 * sum(c_tail_sum(coeffs, r, spec.index_kind) for r in (h, h + 1))
                for eps in (0.3, 0.1, 0.02, edge):
                    if 0.0 < eps < 0.5:
                        assert compute_Keps(spec, coeffs, eps) == _keps_by_radius_loop(spec, coeffs, eps)


# ---------------------------------------------------------------------------
# the one-pass setup of a solve against the evaluation it replaced


def _reference_keps(spec, coeffs, eps):
    """compute_Keps as it was before charfn.Terms: c_at over the head, and
    over the window of a K_eps beyond it, c_tail_sum at every radius."""
    h = coeffs.head_radius()
    lo = -h if spec.index_kind == "Z" else min(1, spec.start)
    absc = np.abs(np.atleast_1d(coeffs.c_at(np.arange(lo, h + 1))))
    shell = absc[:h][::-1] + absc[h + 1 :] if spec.index_kind == "Z" else absc[1 - lo :]
    head = np.append(np.cumsum(shell[::-1])[::-1], 0.0)
    below = np.flatnonzero(head + c_tail_sum(coeffs, h, spec.index_kind) < eps)
    if len(below):
        k_eps = int(below[0])
        idx = spec.window_indices(k_eps)
        inside = absc[idx[0] - lo : idx[-1] - lo + 1] if len(idx) else absc[:0]
    else:
        k_eps = h + 1
        while k_eps <= TRUNC_CAP and c_tail_sum(coeffs, k_eps, spec.index_kind) >= eps:
            k_eps += 1
        if k_eps > TRUNC_CAP:
            raise errors.WindowExceeded("K_eps")
        inside = np.abs(np.atleast_1d(coeffs.c_at(spec.window_indices(k_eps))))
    head_sum = float(np.sum(inside))
    if head_sum == 0.0:
        return k_eps, k_eps + 1
    k_prime = k_eps + 1 + int(np.floor(head_sum / (eps * spec.gap)))
    while head_sum / ((k_prime - k_eps) * spec.gap) >= eps:
        k_prime += 1
    return k_eps, k_prime


def _reference_cf(spec, coeffs, n_trunc):
    """CharacteristicFunction's arrays as build formed them before
    charfn.Terms: c_at and lambda_at over the window, c_tail_sum beyond."""
    idx = spec.window_indices(n_trunc)
    c = np.atleast_1d(coeffs.c_at(idx))
    lam = np.asarray(spec.lambda_at(idx), dtype=float).reshape(-1)
    i0 = c == 0
    order = np.argsort(-np.abs(idx[~i0]), kind="stable")
    return {
        "idx": idx, "lam": lam, "c": c, "poles": lam[~i0],
        "idx1": idx[~i0][order], "lam1": lam[~i0][order], "c1": np.asarray(c[~i0][order], dtype=complex),
        "tail_total": np.float64(c_tail_sum(coeffs, n_trunc, spec.index_kind)),
    }  # fmt: skip


def _reference_setup(spec, coeffs, opts):
    d = spec.gap
    eps = d / (2.0 + d)
    k_prime = _reference_keps(spec, coeffs, eps)[1]
    window = max(opts.window, k_prime)
    n_trunc = max(opts.n_trunc, window + 8)
    if n_trunc > TRUNC_CAP:
        raise errors.WindowExceeded("n_trunc")
    absc = np.abs(np.atleast_1d(coeffs.c_at(spec.window_indices(window))))
    if coeffs.c_tail is not None and np.any((absc > 0.0) & (absc < 2.0**-1022)):
        raise errors.DegenerateIndex("a subnormal tail c_n in the window")
    rect = direct._central_rectangle(spec, k_prime, d, spec.lambda_at)
    return k_prime, window, n_trunc, rect, c_tail_sum(coeffs, window, spec.index_kind)


@st.composite
def _setup_cases(draw):
    """Z, or N from index 0, 1 or 5, with a non-affine head on lambda_n;
    complex a and b heads with zeros in b (I0 indices), whose radius may
    reach past the first n_trunc; power tails or none on a and b.  Small b
    heads leave K' small, and large ones or tails near the summability
    limit raise WindowExceeded.  No |b_n| lies in (0, 1e-300): validation
    rejects 0 < |c_n| < 2^-1022, and cases it rejects for a subnormal tail
    scale are dropped; one beyond the heads reaches the setup, which raises
    DegenerateIndex when such a c_n lies in the window."""
    kind, start = draw(st.sampled_from([("Z", -3), ("N", 0), ("N", 1), ("N", 5)]))
    slope = draw(st.sampled_from([0.5, 1.0, 3.0]))
    lam_head = tuple(slope * (start + j) + 0.3 * slope * draw(st.floats(-1.0, 1.0)) for j in range(6))
    spec = validate_base(BaseSpectrum(kind, start, lam_head, AffineTail(slope, 0.0), 0.1 * slope))
    lo = draw(st.integers(-40, 0)) if kind == "Z" else spec.start
    hi = draw(st.integers(max(lo, 0), 60))
    size = st.floats(0.0, draw(st.sampled_from([0.4, 0.4, 0.01, 3e3]))).filter(lambda x: not 0.0 < x < 1e-300)
    angle = st.floats(0.0, 2.0 * np.pi)
    n = hi - lo + 1
    a = tuple(complex(1.0, draw(st.floats(-1.0, 1.0))) for _ in range(n))
    b = [draw(size) * np.exp(1j * draw(angle)) for _ in range(n)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        b[j] = 0j
    tails = [
        draw(st.one_of(st.none(), st.builds(PowerTail, st.floats(0.51, 2.5), st.floats(0.0, 1.0), angle)))
        for _ in "ab"
    ]
    coeffs = PerturbationCoefficients(lo, a, tails[0], lo, tuple(complex(v) for v in b), tails[1])
    opts = LocalizeOptions(window=draw(st.integers(1, 30)), n_trunc=draw(st.integers(1, 40)))
    try:
        return spec, validate_coefficients(coeffs, spec), opts
    except errors.DegenerateIndex:
        reject()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_setup_cases())
def test_the_one_pass_setup_matches_the_evaluation_it_replaced(case):
    # K', the window, n_trunc, the rectangle, the window's tail sum and every
    # array of F, at the first n_trunc and at its double (which cut widens
    # the terms for), are those of the separate compute_Keps, build and
    # c_tail_sum passes, bit for bit, or both raise the same errors class
    spec, coeffs, opts = case
    d = spec.gap
    eps = d / (2.0 + d)
    try:
        want = _reference_setup(spec, coeffs, opts)
    except errors.Rank1Error as exc:
        with pytest.raises(type(exc)):
            first_cut(spec, coeffs, opts.window, opts.n_trunc, eps)
        return
    cf, k_prime, window = first_cut(spec, coeffs, opts.window, opts.n_trunc, eps)
    n_trunc, terms = cf.n_trunc, cf.terms
    rect = direct._central_rectangle(spec, k_prime, d, terms.lambda_at)
    assert (k_prime, window, n_trunc, rect, terms.tail_sum(window)) == want
    for n in (n_trunc, 2 * n_trunc):
        cf = CharacteristicFunction.cut(terms, n)
        assert cf.n_trunc == n and cf.terms.radius == max(n, terms.radius)
        for name, value in _reference_cf(spec, coeffs, n).items():
            got = np.asarray(cf.lam[cf.c != 0] if name == "poles" else getattr(cf, name))
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name


def test_k_prime_steps_past_a_quotient_that_rounds_below_its_integer(zspec):
    # |c_0| = 7.499999999999999 over eps = 0.3 rounds to 24.999999999999996:
    # the first guess is K_eps + 1 + 24 = K_eps + 25, but 7.499999999999999 /
    # 25 is 0.3, not below eps, so K' steps to K_eps + 26
    c_0, eps = 7.499999999999999, 0.3
    assert 1 + math.floor(c_0 / eps) == 25 and c_0 / 25 >= eps
    assert compute_Keps(zspec, finite_coeffs({0: c_0}), eps) == (0, 26)
