"""Inverse spectral problem: coefficients realizing a prescribed spectrum.

Two steps: form the finite product F~(z) = prod (nu_n - z)/(lambda_n - z)
over the deviating indices with its residues -c_n at the poles, then
synthesize Fourier coefficients with conj(a_n) b_n = c_n.

The residues and the synthesis run in Python scalar arithmetic, one index
at a time, although numpy could form them in a few array calls: numpy's
complex multiply and abs differ from Python's in the last bit (on some 44%
and 17% of random pairs), and the round trip's worst deviation is a few
ulps, so vectorised residues would change every coefficient the inverse
problem writes and move the round trip's accuracy.
"""

from dataclasses import dataclass, replace
import cmath
import math

import numpy as np

from . import errors, _kernels
from .charfn import first_pole_hit, outside_in
from .model import PerturbationCoefficients, PowerTail


@dataclass(frozen=True, eq=False)
class ProductFunction:
    """F~(z) = prod (nu_n - z)/(lambda_n - z) over the deviating indices,
    with its residues: c1[j] = -Res F~ at lambda_n, n = i1[j]."""

    spec: object
    i1: tuple  # indices with nu_n != lambda_n, increasing
    c1: tuple
    nu: np.ndarray  # nu_n over i1
    lam: np.ndarray  # lambda_n over i1

    def values(self, z):
        """The product at a flat array of points (no pole checking)."""
        # points x factors: each point's product is one contiguous row, so a
        # scalar and an array multiply in the same order
        col = z[:, np.newaxis]
        return np.multiply.reduce((self.nu - col) / (self.lam - col), axis=1)


def build_product(spec, target):
    """The product over the deviating indices and its residues

    c_n = (nu_n - lambda_n) * prod_{m != n} (nu_m - lambda_n)/(lambda_m - lambda_n).

    The deviating indices are the head's with nu_n != lambda_n once any
    target value equal to some lambda_m is assigned to index m itself.
    Factors are multiplied from the most distant pole inward so that the
    near-unity factors enter last.  A residue that overflows (a target moved
    too far for a double) raises NonSummable naming its index.
    """
    head = list(target.nu_head)
    off = target.nu_head_offset
    lam = spec.lambda_range(off, off + len(head) - 1).tolist()
    # where lambda_m occurs elsewhere in the head, not on its own index, pull
    # it onto index m; a swap never makes an earlier index swappable, so
    # one pass makes them all.  Swaps only permute the head, so a lambda_m
    # that is none of its values needs no search
    values = set(head)
    for j, lam_m in enumerate(lam):
        if head[j] != lam_m and lam_m in values:
            k = next((k for k, v in enumerate(head) if v == lam_m and v != lam[k]), None)
            if k is not None:
                head[j], head[k] = head[k], head[j]
    i1 = tuple(off + j for j, (nu_j, lam_j) in enumerate(zip(head, lam)) if nu_j != lam_j)
    nu1, lam1 = [head[n - off] for n in i1], [lam[n - off] for n in i1]
    nu, lam = np.array(nu1, dtype=complex), np.array(lam1, dtype=float)
    # each residue's factor order, the most distant pole first and, at equal
    # distances, the later index first: its row of the distances sorted
    # stably (lexsort), reversed, less the pole itself (distance 0, first)
    order = np.lexsort((np.abs(lam[:, np.newaxis] - lam),)).tolist()
    c1 = []
    for j, lam_n in enumerate(lam1):
        prod = 1.0 + 0.0j
        for m in order[j][:0:-1]:
            prod *= (nu1[m] - lam_n) / (lam1[m] - lam_n)
        c1.append((nu1[j] - lam_n) * prod)
        if not cmath.isfinite(c1[-1]):
            raise errors.NonSummable(f"residue c_{i1[j]} overflows: the target moves too far for a double")
    return ProductFunction(spec=spec, i1=i1, c1=tuple(c1), nu=nu, lam=lam)


def _deviating_radius(pf):
    """max |n| over I1 (increasing), 0 when it is empty."""
    return max(-pf.i1[0], pf.i1[-1]) if pf.i1 else 0


def _residue_window(spec, pf):
    """The first index of the window |n| <= max |I1| (0 when it is empty)
    and (n, c_n) over it in increasing order, c_n = 0 off I1."""
    c = dict(zip(pf.i1, pf.c1))
    radius = _deviating_radius(pf)
    window = range(spec.first_index(radius), radius + 1)
    return (window[0] if window else 0), [(n, c.get(n, 0.0)) for n in window]


def solve_inverse(spec, target):
    """Coefficients with conj(a_n) b_n = c_n on I1 and b_n = 0 on I0;
    returns (coefficients, product function).

    a_n = sqrt|c_n|, b_n = sqrt|c_n| e^{i arg c_n} (principal branch) for
    deviating indices; a_n = 1/(1+|n|), b_n = 0 for the rest.  The head
    covers the deviating window; beyond it a carries a square-summable
    1/|n| power-law tail and b is identically zero.
    """
    pf = build_product(spec, target)
    off, window = _residue_window(spec, pf)
    a_vals, b_vals = [], []
    for n, c_n in window:
        if c_n != 0:
            r = math.sqrt(abs(c_n))
            a_vals.append(complex(r))
            b_vals.append(r * cmath.exp(1j * cmath.phase(c_n)))
        else:
            a_vals.append(complex(1.0 / (1.0 + abs(n))))
            b_vals.append(0.0j)
    coeffs = PerturbationCoefficients(
        a_head_offset=off,
        a_head=tuple(a_vals),
        a_tail=PowerTail(beta=1.0, scale=1.0, phase=0.0),
        b_head_offset=off,
        b_head=tuple(b_vals),
        b_tail=None,
    )
    return coeffs, pf


def solve_inverse_fixed_phi(spec, target, phi_coeffs):
    """Fixed-phi variant: keep the given a_n and solve b_n = c_n / conj(a_n)."""
    pf = build_product(spec, target)
    off, window = _residue_window(spec, pf)
    a = phi_coeffs.a_range(off, off + len(window) - 1).tolist()
    b_vals = []
    for (n, c_n), a_n in zip(window, a):
        if c_n != 0:
            if a_n == 0:
                raise errors.ZeroCoefficientObstruction(
                    f"a_{n} = 0 but c_{n} != 0: coefficient b_{n} is undetermined"
                )
            b_vals.append(c_n / np.conj(a_n))
        else:
            b_vals.append(0.0j)
    return replace(phi_coeffs, b_head_offset=off, b_head=tuple(complex(v) for v in b_vals), b_tail=None), pf


SAMPLE_COUNT = 25
_SAMPLE_ROWS = 1.0 + np.arange(SAMPLE_COUNT) % 3  # heights 0.4 d, 0.8 d and 1.2 d in turn


def default_sample_points(spec, pf):
    """Deterministic sample points staying at least d/4 away from all poles
    (an array)."""
    d = spec.gap
    lo = pf.lam.min() - 2.0 * d if len(pf.lam) else -2.0 * d
    hi = pf.lam.max() + 2.0 * d if len(pf.lam) else 2.0 * d
    z = np.empty(SAMPLE_COUNT, dtype=complex)
    z.real = np.linspace(lo, hi, SAMPLE_COUNT)
    z.imag = 0.4 * d * _SAMPLE_ROWS
    return z


def check_F_equals_product(coeffs, pf, sample_points):
    """Max |F - F~| over the samples; the two functions agree identically.

    F's terms are the nonzero c_n over the deviating window plus eight
    indices (and the whole coefficient head), in CharacteristicFunction.cut's
    order (outside_in), so that F's values are a built F's to the bit.  The
    samples are tested once against the poles of both functions, F's
    first: a sample on a pole raises PoleHit naming its index."""
    spec = pf.spec
    n = max(_deviating_radius(pf) if pf.i1 else 1, coeffs.head_radius()) + 8
    first = spec.first_index(n)
    c = coeffs.c_range(first, n)
    k = c.nonzero()[0]
    k = outside_in(k, first + k)
    c, lam = c[k], spec.lambda_range(first, n)[k]
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    hit = first_pole_hit(np.concatenate((lam, pf.lam)), z)
    if hit is not None:
        j, p = hit
        index = first + k[p] if p < len(k) else pf.i1[p - len(k)]
        raise errors.PoleHit(f"z = {z[j]} coincides with pole lambda at index {index}")
    f = 1.0 + _kernels.taylor(c, lam, z, 0)[0]
    return float(np.abs(f - pf.values(z)).max(initial=0.0))
