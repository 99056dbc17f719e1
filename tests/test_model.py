import dataclasses
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from rank1spec import errors, model
from rank1spec.model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    TargetSpectrum,
    validate_base,
    validate_coefficients,
    validate_target,
)

from conftest import c_tail_sum, finite_coeffs, random_base, random_coeffs


# ---------------------------------------------------------------------------
# base spectrum


def test_lambda_at_pure_tail(zspec):
    assert zspec.lambda_at(7) == 7.0
    assert zspec.lambda_at(-3) == -3.0
    np.testing.assert_array_equal(zspec.lambda_at(np.array([-1, 0, 2])), [-1.0, 0.0, 2.0])


def test_lambda_at_head_overrides_tail():
    spec = validate_base(
        BaseSpectrum("Z", head_offset=-1, head=(-1.2, 0.1, 1.0), tail=AffineTail(1.0, 0.0), gap=0.8)
    )
    assert spec.lambda_at(-1) == -1.2
    assert spec.lambda_at(0) == 0.1
    assert spec.lambda_at(1) == 1.0
    assert spec.lambda_at(2) == 2.0  # back on the affine tail
    assert spec.lambda_at(-2) == -2.0


def test_window_indices_both_index_kinds(zspec):
    np.testing.assert_array_equal(zspec.window_indices(2), [-2, -1, 0, 1, 2])
    nspec = validate_base(BaseSpectrum("N", 1, (), AffineTail(1.0, 0.0), 1.0))
    np.testing.assert_array_equal(nspec.window_indices(3), [1, 2, 3])


def test_the_spectrum_keeps_one_read_only_run_of_lambda():
    # each request is a read-only slice of the one run, widened over the
    # union when a request reaches past it: bit for bit slope n + intercept
    # with the head laid over it, over Z and N, whatever the order of the
    # requests
    rng = np.random.default_rng(7)
    zhead = validate_base(BaseSpectrum("Z", -2, (-2.3, -0.9, 0.1, 1.15, 2.4), AffineTail(1.1, 0.05), 0.9))
    nhead = validate_base(BaseSpectrum("N", 3, (2.7, 4.1, 5.0), AffineTail(0.7, 3.3), 0.7))
    for spec, lo in ((zhead, -12), (nhead, 3)):
        for _ in range(60):
            a, b = sorted(int(n) for n in rng.integers(lo, 15, size=2))
            idx, lam = spec.lambda_run(a, b)
            fresh = spec.tail.slope * np.arange(a, b + 1, dtype=float) + spec.tail.intercept
            for n, v in zip(range(spec.head_offset, spec.head_offset + len(spec.head)), spec.head):
                if a <= n <= b:
                    fresh[n - a] = v
            assert idx.tolist() == list(range(a, b + 1)) and lam.tobytes() == fresh.tobytes()
            for x in (idx, lam):
                with pytest.raises(ValueError, match="read-only"):
                    x[:1] = 0
    spec = validate_base(BaseSpectrum("Z", 0, (), AffineTail(1.0, 0.0), 1.0))
    _, wide = spec.lambda_run(-10, 10)
    _, narrow = spec.lambda_run(-4, 2)
    assert narrow.base is wide.base  # both slices of the run
    _, wider = spec.lambda_run(-20, 5)  # widens the run to -20..10
    assert wider.base is not wide.base and spec.lambda_run(8, 10)[1].base is wider.base
    assert spec.lambda_run(3, 2)[1].size == 0


def test_validate_base_certifies_smallest_gap():
    spec = validate_base(
        BaseSpectrum("Z", head_offset=0, head=(0.0, 0.7, 2.0), tail=AffineTail(1.0, 0.0), gap=0.5)
    )
    assert spec.gap == pytest.approx(0.7)  # min(0.7, 1.3, slope 1.0, junction 1.0)


def test_validate_base_rejects_nonmonotone_head():
    with pytest.raises(errors.NonMonotone):
        validate_base(BaseSpectrum("Z", 0, (0.0, 1.0, 0.5), AffineTail(1.0, 0.0), 0.1))


def test_validate_base_rejects_bad_junction():
    # head ends at 5.0 but the tail would continue at lambda_2 = 2
    with pytest.raises(errors.NonMonotone):
        validate_base(BaseSpectrum("Z", 0, (0.0, 5.0), AffineTail(1.0, 0.0), 0.5))
    # head starts at -1.5, below the tail's lambda_{-1} = -1 that precedes it
    with pytest.raises(errors.NonMonotone, match="continue the head"):
        validate_base(BaseSpectrum("Z", 0, (-1.5, 1.0), AffineTail(1.0, 0.0), 0.5))


def test_validate_base_rejects_overstated_gap():
    with pytest.raises(errors.GapViolation):
        validate_base(BaseSpectrum("Z", 0, (), AffineTail(1.0, 0.0), 1.5))
    # a declared gap must be positive and finite before any gap is certified
    for gap in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(errors.GapViolation, match="positive real"):
            validate_base(BaseSpectrum("Z", 0, (), AffineTail(1.0, 0.0), gap))


def test_validate_base_rejects_nonreal_and_bad_kind():
    with pytest.raises(errors.NonReal):
        validate_base(BaseSpectrum("Z", 0, (math.nan,), AffineTail(1.0, 0.0), 0.5))
    with pytest.raises(errors.SchemaError):
        validate_base(BaseSpectrum("Q", 0, (), AffineTail(1.0, 0.0), 1.0))
    with pytest.raises(errors.NonMonotone):
        validate_base(BaseSpectrum("Z", 0, (), AffineTail(-1.0, 0.0), 1.0))
    for tail in (AffineTail(math.inf, 0.0), AffineTail(1.0, math.nan)):
        with pytest.raises(errors.NonReal, match="tail parameters"):
            validate_base(BaseSpectrum("Z", 0, (), tail, 1.0))


# ---------------------------------------------------------------------------
# coefficients


def test_power_tail_value():
    tail = PowerTail(beta=2.0, scale=3.0, phase=np.pi / 2)
    v = tail.value(2)
    assert abs(v - 3.0 / 4.0 * 1j) < 1e-15


def test_c_is_conj_a_times_b():
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0 + 2.0j,),
        a_tail=None,
        b_head_offset=0,
        b_head=(3.0 - 1.0j,),
        b_tail=None,
    )
    # conj(1+2i) * (3-i) = (1-2i)(3-i) = 1 - 7i
    assert coeffs.c_at(0) == (1.0 - 7.0j)
    assert coeffs.c_at(5) == 0.0


def _eval_by_clip(n, offset, head, tail):
    # the head lookup as it was before the heads were cached as arrays
    n = np.asarray(n)
    out = np.zeros(n.shape, dtype=complex)
    in_head = np.zeros(n.shape, dtype=bool)
    if head:
        in_head = (n >= offset) & (n < offset + len(head))
        out = np.where(in_head, np.asarray(head, dtype=complex)[np.clip(n - offset, 0, len(head) - 1)], out)
    if tail is not None:
        out = np.where(~in_head, tail.value(np.where(n == 0, 1, n)), out)
    return complex(out) if out.ndim == 0 else out


def _lambda_by_clip(spec, n):
    out = spec.tail.slope * n.astype(float) + spec.tail.intercept
    in_head = (n >= spec.head_offset) & (n < spec.head_offset + len(spec.head))
    head = np.asarray(spec.head, dtype=float)
    return np.where(in_head, head[np.clip(n - spec.head_offset, 0, len(head) - 1)], out)


def _nu_by_clip(target, n, spec):
    lam = np.asarray(spec.lambda_at(n), dtype=complex)
    if not target.nu_head:
        return lam
    lo, arr = target.nu_head_offset, np.asarray(target.nu_head, dtype=complex)
    in_head = (n >= lo) & (n < lo + len(arr))
    return np.where(in_head, arr[np.clip(n - lo, 0, len(arr) - 1)], lam)


def test_cached_heads_evaluate_as_the_clip_lookup():
    # a_at, b_at, c_at, lambda_at and nu_at give the clip lookup's values bit
    # for bit, on arrays and on scalars (as Python complex or float), over
    # Z and N, non-affine heads, complex heads and power tails
    rng = np.random.default_rng(6)
    for _ in range(40):
        spec = random_base(rng)
        coeffs = random_coeffs(rng, spec)
        k = len(coeffs.a_head)
        coeffs = dataclasses.replace(coeffs, a_head=tuple(rng.normal(size=k) + 1j * rng.normal(size=k)))
        k = int(rng.integers(0, 6))
        target = TargetSpectrum(int(rng.integers(-8, 8)), tuple(rng.normal(size=k) + 1j * rng.normal(size=k)))
        n = spec.window_indices(60)
        # a scalar index is the one-index run: it takes the array loop's power
        # and complex product, which can differ from numpy's scalar ones in
        # the last bit, so its reference is the lookup on a one-index array
        for m in [n] + [np.asarray(n[j]) for j in rng.choice(len(n), 5, replace=False)]:
            m1 = np.atleast_1d(m)
            a = _eval_by_clip(m1, coeffs.a_head_offset, coeffs.a_head, coeffs.a_tail)
            b = _eval_by_clip(m1, coeffs.b_head_offset, coeffs.b_head, coeffs.b_tail)
            expected = {
                "a": a, "b": b, "c": np.conj(a) * b,
                "lambda": _lambda_by_clip(spec, m1), "nu": _nu_by_clip(target, m1, spec),
            }  # fmt: skip
            expected = {name: v.reshape(m.shape) for name, v in expected.items()}
            k = m if m.ndim else int(m)
            got = {
                "a": coeffs.a_at(k), "b": coeffs.b_at(k), "c": coeffs.c_at(k),
                "lambda": spec.lambda_at(k), "nu": target.nu_at(k, spec),
            }  # fmt: skip
            for name, v in got.items():
                if not m.ndim:
                    assert isinstance(v, float if name == "lambda" else complex), name
                v, ref = np.asarray(v), np.asarray(expected[name])
                assert v.dtype == ref.dtype and v.tobytes() == ref.tobytes(), name


@st.composite
def _coefficient_runs(draw):
    """(coefficients, lo, hi): a and b heads left of, right of or across 0
    (over N from index 1), overlapping or apart, some entries exactly 0,
    each tail a power law or zero, and the run lo..hi a window of Z or N."""
    kind = draw(st.sampled_from(["Z", "N"]))
    heads = []
    for _ in "ab":
        off = draw(st.integers(-8, 8))
        off = off if kind == "Z" else 1 + abs(off)
        values = draw(st.lists(st.sampled_from([0j, 1.0 + 0j, -0.5 + 0.25j, 0.3 - 1.7j, 1e-3j]), max_size=6))
        tail = draw(st.sampled_from([None, (1.0, 1.0, 0.0), (0.7, 0.3, 1.0), (2.3, 2.0, -2.5)]))
        heads.append((off, tuple(values), tail and PowerTail(*tail)))
    (a_off, a, a_tail), (b_off, b, b_tail) = heads
    radius = draw(st.integers(0, 20))
    lo = -radius if kind == "Z" else 1
    return PerturbationCoefficients(a_off, a, a_tail, b_off, b, b_tail), lo, radius


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_coefficient_runs())
def test_a_run_evaluates_each_index_as_the_scalar_calls_do(case):
    # a_n, b_n and c_n over a run of indices give, at every index, the scalar
    # a_at, b_at and c_at values bit for bit; a head's entries by slice and
    # 0 beyond a head without tail.  A run across index 0 that needs a
    # power tail there raises IndexMismatch, as the scalar call at 0 does
    coeffs, lo, hi = case
    heads = {"a": (coeffs.a_head_offset, coeffs.a_head, coeffs.a_tail)}
    heads["b"] = (coeffs.b_head_offset, coeffs.b_head, coeffs.b_tail)
    for name in "abc":
        at = getattr(coeffs, f"{name}_at")
        try:
            values = getattr(coeffs, f"{name}_range")(lo, hi)
        except errors.IndexMismatch:
            with pytest.raises(errors.IndexMismatch):
                at(0)
            continue
        assert values.dtype == complex and values.shape == (hi - lo + 1,)
        for n, v in zip(range(lo, hi + 1), values):
            assert np.asarray(v).tobytes() == np.asarray(at(int(n))).tobytes(), (name, n)
            if name in heads:
                off, head, tail = heads[name]
                if off <= n < off + len(head):
                    assert np.asarray(v).tobytes() == np.asarray(complex(head[n - off])).tobytes()
                elif tail is None:
                    assert v == 0


def test_c_at_evaluates_a_only_where_b_is_nonzero(zspec, monkeypatch):
    # a's power tail is evaluated only where b_n != 0 beyond a's head, and
    # c_at still equals conj(a_at) b_at bit for bit, arrays and scalars, on
    # inverse-synthesized coefficients (b_tail None) and the power family
    from rank1spec import gallery, inverse

    target = TargetSpectrum(-2, (-2.1 + 0.1j, -0.9 + 0j, 0.5 + 0j, 0.5 + 0j, 2.2 - 0.3j))
    synthesized, _ = inverse.solve_inverse(zspec, target)
    n = np.arange(-300, 301)
    for coeffs in (synthesized, gallery.power_family(2.0, 30)):
        ref = np.conj(coeffs.a_at(n)) * coeffs.b_at(n)
        got = coeffs.c_at(n)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for k in (-300, -1, 0, 2, 31, 300):
            assert np.asarray(coeffs.c_at(k)).tobytes() == np.asarray(np.conj(coeffs.a_at(k)) * coeffs.b_at(k)).tobytes()
    evaluated, value = [], PowerTail.value
    monkeypatch.setattr(PowerTail, "value", lambda tail, m: evaluated.append(m) or value(tail, m))
    synthesized.c_at(n)
    assert evaluated == []
    gallery.power_family(2.0, 30).c_at(n)
    # each tail only beyond its head |n| <= 30, a's where b_n != 0 there
    assert sorted(np.size(m) for m in evaluated) == [len(n) - 61, len(n) - 61]


def test_power_tail_at_index_zero_outside_the_head_raises():
    tail = PowerTail(beta=1.0, scale=1.0, phase=0.0)
    coeffs = PerturbationCoefficients(1, (0.5,), tail, 1, (0.5j,), tail)
    for n in (0, np.arange(-2, 3)):
        with pytest.raises(errors.IndexMismatch):
            coeffs.c_at(n)
    # an index array that skips 0 is evaluated over the run between its
    # least and greatest index, 0 included, so it raises as that run does:
    # validation rejects a tail whose head does not cover 0 (below)
    for at in (coeffs.a_at, coeffs.b_at, coeffs.c_at):
        with pytest.raises(errors.IndexMismatch):
            at(np.array([3, -2, 1, -1]))
    # indices far apart are evaluated one by one, not over the run between
    n = np.array([[-(10**12), 1], [2, 10**12]])
    for at in (coeffs.a_at, coeffs.b_at, coeffs.c_at):
        assert at(n).tolist() == [[at(int(k)) for k in row] for row in n]


def test_c_tail_sum_bounds_brute_force(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=1.0, scale=1.0, phase=0.0),
        b_head_offset=0,
        b_head=(0.5,),
        b_tail=PowerTail(beta=1.5, scale=2.0, phase=0.3),
    )
    for radius in (0, 3, 10, 50):
        idx = np.arange(radius + 1, 100001)
        truth = 2.0 * float(np.sum(np.abs(coeffs.c_at(idx))))  # symmetric |c_n|
        bound = c_tail_sum(coeffs, radius, "Z")
        assert bound >= truth * (1.0 - 1e-12)
        assert bound <= truth * 1.05 + 1e-12  # 64 explicit terms keep it tight


def test_c_tail_sum_covers_head_beyond_radius(zspec):
    coeffs = finite_coeffs({5: 0.25, -7: 0.5})
    assert c_tail_sum(coeffs, 7, "Z") == 0.0
    assert c_tail_sum(coeffs, 6, "Z") == pytest.approx(0.5)
    assert c_tail_sum(coeffs, 3, "Z") == pytest.approx(0.75)


def test_partition_by_exact_zero(zspec):
    coeffs = finite_coeffs({1: 0.2, 3: -0.1})
    i0, i1 = coeffs.partition(np.arange(0, 5))
    np.testing.assert_array_equal(i0, [0, 2, 4])
    np.testing.assert_array_equal(i1, [1, 3])


def test_validate_rejects_non_square_summable_tail(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0,),
        a_tail=PowerTail(beta=0.5, scale=1.0, phase=0.0),
        b_head_offset=0,
        b_head=(1.0,),
        b_tail=None,
    )
    with pytest.raises(errors.NonSummable):
        validate_coefficients(coeffs, zspec)
    # square-summable finite tails whose c_n sum is not finite: their scales'
    # product overflows
    coeffs = dataclasses.replace(
        coeffs, a_tail=PowerTail(1.0, 1e200, 0.0), b_tail=PowerTail(1.0, 1e200, 0.0)
    )
    with pytest.raises(errors.NonSummable, match=r"sum \|c_n\| diverges"):
        validate_coefficients(coeffs, zspec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "a, b",
    [
        ((1e200,), (1e200,)),  # c_0 = 1e200 * 1e200, real
        ((1e200 + 1e200j,), (1e200 + 1e200j,)),  # c_0's imaginary part is inf - inf
        ((1.0, 1e200), (0.5, 1e200)),  # c_1 overflows
        ((1.0, 1.0), (1e308, 1e308)),  # each c_n finite, their sum not
    ],
)
def test_validate_rejects_an_overflowing_head_sum(zspec, a, b):
    # index 0 counts, as in K'; the overflow raises no RuntimeWarning
    coeffs = PerturbationCoefficients(0, tuple(map(complex, a)), None, 0, tuple(map(complex, b)), None)
    with pytest.raises(errors.NonSummable, match=r"sum \|c_n\| diverges"):
        validate_coefficients(coeffs, zspec)


def test_validate_rejects_non_finite_tail_scale_and_phase(zspec):
    coeffs = finite_coeffs({0: 0.25, 1: 0.1})
    tail = PowerTail(1.0, 1.0, 0.0)
    for bad in (
        PowerTail(1.0, math.nan, 0.0),
        PowerTail(1.0, math.inf, 0.0),
        PowerTail(1.0, -math.inf, 0.0),
        PowerTail(1.0, 1.0, math.nan),
        PowerTail(1.0, 1.0, math.inf),
    ):
        for name, bad_coeffs in (
            ("a", dataclasses.replace(coeffs, a_tail=bad, b_tail=tail)),
            ("b", dataclasses.replace(coeffs, a_tail=tail, b_tail=bad)),
        ):
            with pytest.raises(errors.SchemaError, match=f"{name} tail scale and phase must be finite"):
                validate_coefficients(bad_coeffs, zspec)


def test_validate_rejects_tail_without_index_zero_cover(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=2,
        a_head=(1.0,),
        a_tail=PowerTail(beta=2.0, scale=1.0, phase=0.0),
        b_head_offset=2,
        b_head=(1.0,),
        b_tail=None,
    )
    with pytest.raises(errors.IndexMismatch):
        validate_coefficients(coeffs, zspec)


def test_validate_rejects_what_the_solve_rejects_at_index_zero(zspec):
    # a power tail is undefined at index 0, so an index set that holds 0
    # needs a head that covers it: over N from 0 with a nonzero tail, and
    # over Z with a zero-scale one, as _eval rejects both once a solve
    # evaluates c_n there
    nspec = validate_base(BaseSpectrum("N", 0, (0.0,), AffineTail(1.0, 0.0), 1.0))
    assert nspec.start == 0
    for spec, scale in ((nspec, 1.0), (zspec, 0.0)):
        tail = PowerTail(beta=2.0, scale=scale, phase=0.0)
        coeffs = PerturbationCoefficients(0, (), tail, 0, (), tail)
        with pytest.raises(errors.IndexMismatch, match="a head must cover index 0 when a tail is set"):
            validate_coefficients(coeffs, spec)
    # over N from 1 the set does not hold 0: the same tails need no head
    nspec = validate_base(BaseSpectrum("N", 0, (), AffineTail(1.0, 0.0), 1.0))
    assert nspec.start == 1
    tail = PowerTail(beta=2.0, scale=1.0, phase=0.0)
    validate_coefficients(PerturbationCoefficients(0, (), tail, 0, (), tail), nspec)


def test_validate_rejects_degenerate_explicit_index(zspec):
    coeffs = PerturbationCoefficients(
        a_head_offset=0,
        a_head=(1.0, 0.0, 1.0),
        a_tail=None,
        b_head_offset=0,
        b_head=(0.5, 0.0, 0.5),
        b_tail=None,
    )
    with pytest.raises(errors.DegenerateIndex, match="explicit index 1;"):
        validate_coefficients(coeffs, zspec)
    # a and b heads from different offsets: the first index of either head
    # with a_n = b_n = 0, b_-2 = 0 beyond b's head
    coeffs = PerturbationCoefficients(-3, (1.0, 0.0, 0.0, 1.0), None, -1, (0.0, 0.5, 0.0, 0.0), None)
    with pytest.raises(errors.DegenerateIndex, match="explicit index -2;"):
        validate_coefficients(coeffs, zspec)
    # a subnormal c_n, beside c_0 or alone: Newton divided by its offset from
    # lambda_n, got -inf + nan i and found no zero in the disk
    for c in ({0: 0.3, 6: 1e-320}, {0: 1e-320}, {0: 0.3, 6: 2.0**-1022 * (1 - 2.0**-52)}):
        with pytest.raises(errors.DegenerateIndex, match=rf"^0 < \|c_n\| < 2\^-1022 at index {max(c)}:"):
            validate_coefficients(finite_coeffs(c), zspec)
    validate_coefficients(finite_coeffs({0: 0.3, 6: 2.0**-1022}), zspec)


def test_validate_accepts_finite_zero_tail_instance(zspec):
    coeffs = finite_coeffs({0: 0.1j, 4: -0.2})
    assert validate_coefficients(coeffs, zspec) is coeffs


def test_validate_rejects_non_finite_head_and_head_below_start(zspec):
    for bad in (math.nan, complex(1.0, math.inf)):
        coeffs = dataclasses.replace(finite_coeffs({0: 0.1, 1: 0.2}), b_head=(0.1, bad))
        with pytest.raises(errors.SchemaError, match="b head contains non-finite"):
            validate_coefficients(coeffs, zspec)
    # lambda_n = n over N starts at 1: a head from index 0 lies outside it
    nspec = validate_base(BaseSpectrum("N", 0, (), AffineTail(1.0, 0.0), 1.0))
    with pytest.raises(errors.IndexMismatch, match="a head starts at 0, below the index set start 1"):
        validate_coefficients(finite_coeffs({0: 0.1, 1: 0.2}), nspec)
    coeffs = finite_coeffs({1: 0.1, 2: 0.2})
    assert validate_coefficients(coeffs, nspec) is coeffs


# ---------------------------------------------------------------------------
# targets


def test_target_defaults_to_lambda(zspec):
    target = TargetSpectrum(nu_head_offset=0, nu_head=(0.25 + 0.0j,))
    assert validate_target(target, zspec) is target
    assert target.nu_at(0, zspec) == 0.25
    assert target.nu_at(9, zspec) == 9.0


def test_validate_target_rejects_non_finite_head_and_head_below_start(zspec):
    with pytest.raises(errors.SchemaError, match="non-finite"):
        validate_target(TargetSpectrum(0, (0.25, complex(math.nan, 0.0))), zspec)
    nspec = validate_base(BaseSpectrum("N", 0, (), AffineTail(1.0, 0.0), 1.0))
    with pytest.raises(errors.IndexMismatch, match="below the index set start"):
        validate_target(TargetSpectrum(0, (0.25,)), nspec)
    target = TargetSpectrum(1, (0.25,))
    assert validate_target(target, nspec) is target


# ---------------------------------------------------------------------------
# JSON round-trips


def test_base_json_roundtrip(zspec):
    doc = model.base_to_json(zspec)
    back = model.base_from_json(doc)
    assert back == zspec


def test_coefficients_json_roundtrip():
    coeffs = PerturbationCoefficients(
        a_head_offset=-1,
        a_head=(1.0 + 0.5j, 2.0),
        a_tail=PowerTail(1.5, 0.3, 0.1),
        b_head_offset=-1,
        b_head=(0.0, 1.0j),
        b_tail=None,
    )
    back = model.coefficients_from_json(model.coefficients_to_json(coeffs))
    assert back == coeffs


def test_target_json_roundtrip():
    target = TargetSpectrum(0, (0.25 + 0.1j, 1.5))
    back = model.target_from_json(model.target_to_json(target))
    assert back == target


def test_json_rejects_unknown_and_missing_fields(zspec):
    doc = model.base_to_json(zspec)
    doc["surprise"] = 1
    with pytest.raises(errors.SchemaError):
        model.base_from_json(doc)
    doc = model.base_to_json(zspec)
    del doc["gap"]
    with pytest.raises(errors.SchemaError):
        model.base_from_json(doc)
    # a document that is not an object, at the top or in a field
    with pytest.raises(errors.SchemaError, match="BaseSpectrum: expected an object"):
        model.base_from_json([zspec.gap])
    doc = model.base_to_json(zspec)
    doc["lambda_tail"] = 1.0
    with pytest.raises(errors.SchemaError, match="lambda_tail: expected an object"):
        model.base_from_json(doc)
    # a target's tail is always lambda's
    doc = model.target_to_json(TargetSpectrum(0, (0.25,)))
    doc["tail"] = "zero"
    with pytest.raises(errors.SchemaError, match="tail must be 'equals_lambda'"):
        model.target_from_json(doc)


def test_json_rejects_malformed_complex():
    doc = {
        "a_head": {"offset": 0, "values": [[1.0]]},
        "a_tail": "zero",
        "b_head": {"offset": 0, "values": []},
        "b_tail": "zero",
    }
    with pytest.raises(errors.SchemaError):
        model.coefficients_from_json(doc)


def test_json_values_of_the_wrong_type_are_schema_errors(zspec):
    # a TypeError, ValueError or OverflowError in reading a value is a
    # SchemaError naming the document, not a traceback
    coeffs = model.coefficients_to_json(finite_coeffs({0: 0.5}))
    tail = {"beta": "z", "scale": 1.0, "phase": 0.0}
    probes = [
        (model.coefficients_from_json, dict(coeffs, a_head={"offset": 0, "values": [["x", 0.0]]})),
        (model.base_from_json, dict(model.base_to_json(zspec), gap=None)),
        (model.coefficients_from_json, dict(coeffs, b_head={"offset": "q", "values": []})),
        (model.coefficients_from_json, dict(coeffs, a_tail=tail)),
        (model.coefficients_from_json, dict(coeffs, a_head={"offset": 0, "values": 5})),
        (model.coefficients_from_json, dict(coeffs, a_head={"offset": math.inf, "values": []})),
        (model.target_from_json, {"nu_head": {"offset": 0, "values": 5}, "tail": "equals_lambda"}),
    ]
    for read, doc in probes:
        what = {model.base_from_json: "BaseSpectrum", model.target_from_json: "TargetSpectrum"}
        with pytest.raises(errors.SchemaError, match=f"^{what.get(read, 'PerturbationCoefficients')}: "):
            read(doc)


def test_dump_json_deterministic_and_atomic(tmp_path, zspec):
    doc = model.base_to_json(zspec)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    model.dump_json(doc, p1)
    model.dump_json(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
    # a write that fails (the target is a directory) leaves no temp file behind
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        model.dump_json(doc, tmp_path / "taken")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "taken"]


def test_heads_beyond_the_window_cap_are_rejected_before_any_array(zspec):
    # a coefficient head at 10**12 once asked numpy for 29.1 TiB, and heads at
    # 0 and 10**9 for 29.8 GiB, before any other check; a target head at
    # 10**12 passed, and the inverse problem listed its window index by index
    import tracemalloc

    one = (1.0 + 0j,)
    probes = [
        (validate_coefficients, PerturbationCoefficients(10**12, one, None, 10**12, one, None), "coefficient"),
        (validate_coefficients, PerturbationCoefficients(0, one, None, 10**9, one, None), "coefficient"),
        (validate_target, TargetSpectrum(10**12, (0.5 + 0j,)), "target"),
    ]
    for validate, value, what in probes:
        tracemalloc.start()
        try:
            with pytest.raises(errors.WindowExceeded, match=f"^{what} head reaches index 10+, beyond"):
                validate(value, zspec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5, f"peak {peak} bytes"
    # heads of radius TRUNC_CAP still validate
    cap = model.TRUNC_CAP
    validate_coefficients(PerturbationCoefficients(cap, one, None, -cap, one, None), zspec)
    validate_target(TargetSpectrum(-cap, (0.5 + 0j,)), zspec)


_COEFFS_DOC = {
    "a_head": {"offset": 0, "values": [[1.0, 0.0]]},
    "a_tail": "zero",
    "b_head": {"offset": 0, "values": [[0.5, 0.0]]},
    "b_tail": "zero",
}
_BASE_DOC = {
    "index_set": "Z",
    "lambda_head": {"offset": 0, "values": []},
    "lambda_tail": {"slope": 1.0, "intercept": 0.0},
    "gap": 1.0,
}
_ONE_TAIL = {"beta": 1.0, "scale": 1.0, "phase": 0.0}


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (
            model.coefficients_from_json,
            dict(_COEFFS_DOC, b_head={"offset": 0.9, "values": [[0.5, 0.0]]}),
            "an offset must be a JSON integer, not 0.9",
        ),
        (
            model.coefficients_from_json,
            dict(_COEFFS_DOC, a_head={"offset": True, "values": [[1.0, 0.0]]}),
            "an offset must be a JSON integer, not true",
        ),
        (
            model.target_from_json,
            {"nu_head": {"offset": 0, "values": [[True, False]]}, "tail": "equals_lambda"},
            "a real must be a JSON number, not true",
        ),
        (model.base_from_json, dict(_BASE_DOC, gap=True), "a real must be a JSON number, not true"),
        (
            model.coefficients_from_json,
            dict(_COEFFS_DOC, a_tail=dict(_ONE_TAIL, beta=True), b_tail=_ONE_TAIL),
            "a real must be a JSON number, not true",
        ),
        (
            model.base_from_json,
            dict(_BASE_DOC, lambda_tail={"slope": "1.5", "intercept": 0.0}),
            'a real must be a JSON number, not "1.5"',
        ),
    ],
    ids=["fractional-offset", "boolean-offset", "boolean-complex", "boolean-gap", "boolean-beta", "string-slope"],
)
def test_json_numbers_must_be_json_numbers(read, doc, message):
    # each of these once read silently: 0.9 as index 0, true as 1 or 1.0,
    # [true, false] as 1 + 0j and "1.5" as 1.5
    with pytest.raises(errors.SchemaError, match=": " + message.replace(".", r"\.") + "$"):
        read(doc)


def test_json_integers_still_read_as_reals():
    spec = model.base_from_json(dict(_BASE_DOC, gap=1, lambda_tail={"slope": 2, "intercept": -1}))
    assert (spec.gap, spec.tail) == (1.0, AffineTail(2.0, -1.0))
    assert type(spec.gap) is float
