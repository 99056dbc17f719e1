import numpy as np
import pytest

from rank1spec.charfn import TRUNC_MARGIN, CharacteristicFunction
from rank1spec.model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PowerTail,
    TargetSpectrum,
    validate_base,
    validate_target,
)


@pytest.fixture
def zspec():
    """Integer eigenvalues lambda_n = n over Z, separation gap 1."""
    return validate_base(
        BaseSpectrum(index_kind="Z", head_offset=0, head=(), tail=AffineTail(1.0, 0.0), gap=1.0)
    )


def finite_coeffs(c_by_index, lo=None, hi=None):
    """Zero-tail coefficients with a_n = 1 and b_n = c_n on [lo, hi].

    Every index in the head window keeps a_n = 1 so that no explicit index
    degenerates; c_n is zero outside the given dictionary.
    """
    keys = sorted(c_by_index)
    if lo is None:
        lo = min(keys)
    if hi is None:
        hi = max(keys)
    idx = range(lo, hi + 1)
    a = tuple(1.0 + 0.0j for _ in idx)
    b = tuple(complex(c_by_index.get(n, 0.0)) for n in idx)
    return PerturbationCoefficients(
        a_head_offset=lo,
        a_head=a,
        a_tail=None,
        b_head_offset=lo,
        b_head=b,
        b_tail=None,
    )


def random_finite_instance(rng, radius=40, max_points=8, c_cap=0.3, complex_c=True):
    """Random zero-tail instance: up to max_points nonzero c_n, |c_n| <= c_cap."""
    m = int(rng.integers(2, max_points + 1))
    support = rng.choice(np.arange(-radius, radius + 1), size=m, replace=False)
    mags = rng.uniform(0.02, c_cap, size=m)
    if complex_c:
        phases = rng.uniform(0, 2 * np.pi, size=m)
        vals = mags * np.exp(1j * phases)
    else:
        vals = mags * rng.choice([-1.0, 1.0], size=m)
    c = {int(n): complex(v) for n, v in zip(support, vals)}
    return finite_coeffs(c)


def settling_double_point():
    """lambda_n = s n over N from 1 with gap s, and a target with a double
    point at 7.4195 - 0.2145i beside which Newton's eigen-seeds once ran to
    the 80-step cap: (spec, target, the double point)."""
    s = 1.0059174694565893
    spec = validate_base(BaseSpectrum(index_kind="N", head_offset=1, head=(), tail=AffineTail(s, 0.0), gap=s))
    double = 7.4195247071557064 - 0.21448070190239926j
    nu = (1.0395691971883427 + 0.2577303827705522j, 2.0118349389131787, 2.009639812629286 - 0.0026927146789028173j)
    nu += (4.023391707926489 + 0.3669417371279683j, 4.934537661628149 - 0.15502562711761733j)
    nu += (5.680138750231876 - 0.08675924409092958j, double, double)
    return spec, validate_target(TargetSpectrum(1, tuple(complex(v) for v in nu)), spec), double


def random_base(rng):
    """A Z or N spectrum with gap d, a non-affine head and an affine tail."""
    d = float(rng.uniform(0.5, 2.0))
    slope = d * float(rng.uniform(1.6, 2.0))
    n_head = int(rng.integers(2, 9))
    kind = "Z" if rng.integers(2) else "N"
    offset = -(n_head // 2) if kind == "Z" else int(rng.integers(0, 2))
    head = float(rng.uniform(-5, 5)) + np.concatenate([[0.0], np.cumsum(rng.uniform(d, slope, n_head - 1))])
    # the tail continues the head with gaps of at least d at both junctions
    slack = slope * (n_head + 1) - (head[-1] - head[0]) - 2.0 * d
    intercept = head[0] - d - 0.5 * slack - slope * (offset - 1)
    if kind == "N":
        intercept = head[-1] + d - slope * (offset + n_head)
    return validate_base(
        BaseSpectrum(kind, offset, tuple(head), AffineTail(slope, intercept), d * (1.0 - 1e-9))
    )


def random_coeffs(rng, spec):
    """Complex c_n with |c_n| up to 3d on a head, and in half the cases a power tail."""
    lo = -int(rng.integers(0, 8)) if spec.index_kind == "Z" else spec.start
    hi = int(rng.integers(max(lo, 0) + 1, 40))
    size = int(rng.integers(1, 6))
    c = np.zeros(hi - lo + 1, dtype=complex)
    at = rng.choice(hi - lo + 1, min(size, hi - lo + 1), replace=False)
    c[at] = 3.0 * spec.gap * rng.uniform(0, 1, len(at)) ** 2 * np.exp(2j * np.pi * rng.uniform(size=len(at)))
    a_tail = b_tail = None
    if rng.integers(2):
        a_tail = PowerTail(beta=1.0, scale=1.0, phase=0.0)
        b_tail = PowerTail(beta=float(rng.uniform(0.6, 2.0)), scale=float(rng.uniform(0.01, 0.3)), phase=1.0)
    return PerturbationCoefficients(
        a_head_offset=lo, a_head=(1.0,) * len(c), a_tail=a_tail,
        b_head_offset=lo, b_head=tuple(c), b_tail=b_tail,
    )  # fmt: skip


def c_tail_sum(coeffs, radius, index_kind):
    """Certified upper bound on sum_{|n| > radius} |c_n|, formed apart from
    charfn.Terms: the reference its tail sums and K_eps are checked against."""
    h = coeffs.head_radius()
    total = 0.0
    if radius < h:
        c = coeffs.c_range(radius + 1, h)
        if index_kind == "Z":
            c = np.concatenate((coeffs.c_range(-h, -radius - 1), c))
        if c.size:
            total += float(np.abs(c).sum())
    return total + coeffs.power_tail_sum(max(radius, h), index_kind)


def combined_discrepancy_bound(coeffs, pf, sample_points):
    """Certified bound on |F - F~| at the samples, for the F that
    inverse.check_F_equals_product builds (the deviating window plus
    TRUNC_MARGIN indices, and the whole coefficient head): tail truncation
    plus a floating-point allowance proportional to the summed term
    magnitudes."""
    radius = max([abs(n) for n in pf.i1], default=1)
    cf = CharacteristicFunction.build(pf.spec, coeffs, max(radius, coeffs.head_radius()) + TRUNC_MARGIN)
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    dist = np.abs(cf.lam1 - z[:, np.newaxis])
    fp = 4e-15 * (1.0 + np.sum(np.abs(cf.c1) / np.maximum(dist, 1e-300), axis=1))
    fp *= max(1, len(cf.c1)) ** 0.5
    return float(np.max(cf.tail_bound_at(z) + fp, initial=0.0))
