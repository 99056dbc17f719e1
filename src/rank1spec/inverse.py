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

from dataclasses import dataclass, field, replace
import cmath
import math

import numpy as np

from . import errors
from .charfn import CharacteristicFunction, first_pole_hit
from .model import INDEX_Z, PerturbationCoefficients, PowerTail


@dataclass(frozen=True)
class ProductFunction:
    """F~(z) = prod (nu_n - z)/(lambda_n - z) over the deviating indices,
    with its residues: c1[j] = -Res F~ at lambda_n, n = i1[j]."""

    spec: object
    i1: tuple  # indices with nu_n != lambda_n, increasing
    nu1: tuple
    lam1: tuple
    c1: tuple
    nu: np.ndarray = field(repr=False, compare=False)  # nu1 as an array
    lam: np.ndarray = field(repr=False, compare=False)  # lam1 as an array

    def eval_product(self, z):
        """Exact finite product over the deviating indices, at a point or an
        array of points (a complex for a scalar)."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        hit = first_pole_hit(self.lam, flat)
        if hit is not None:
            j, k = hit
            raise errors.PoleHit(f"z = {flat[j]} coincides with pole at index {self.i1[k]}")
        # points x factors: each point's product is one contiguous row, so a
        # scalar and an array multiply in the same order
        col = flat[:, np.newaxis]
        out = np.multiply.reduce((self.nu - col) / (self.lam - col), axis=1)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def split_target(spec, target):
    """Indices kept fixed (I0) and deviating (I1), after the normalization
    that assigns any target value equal to some lambda_m to index m itself."""
    head = list(target.nu_head)
    off = target.nu_head_offset
    n_idx = range(off, off + len(head))
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
    i0, i1 = [], []
    for j, m in enumerate(n_idx):
        (i0 if head[j] == lam[j] else i1).append(m)
    normalized = dict(zip(n_idx, head))
    return i0, i1, normalized


def build_product(spec, target):
    """The product over the deviating indices and its residues

    c_n = (nu_n - lambda_n) * prod_{m != n} (nu_m - lambda_n)/(lambda_m - lambda_n).

    Factors are multiplied from the most distant pole inward so that the
    near-unity factors enter last.  The product magnitudes are checked
    against the exp(sum |nu - lambda| / d) bound as a sanity cap.
    """
    i0, i1, normalized = split_target(spec, target)
    nu1 = tuple(normalized[n] for n in i1)
    off = target.nu_head_offset
    lam_head = spec.lambda_range(off, off + len(target.nu_head) - 1).tolist()
    lam1 = tuple(lam_head[n - off] for n in i1)
    nu, lam = np.array(nu1, dtype=complex), np.array(lam1, dtype=float)
    dev_sum = float(np.abs(nu - lam).sum())
    cap = math.exp(dev_sum / spec.gap) * (1.0 + 1e-9)
    c1 = []
    for j, (n, lam_n) in enumerate(zip(i1, lam1)):
        others = sorted(((abs(lam1[m] - lam_n), m) for m in range(len(i1)) if m != j), reverse=True)
        prod = 1.0 + 0.0j
        for _, m in others:
            prod *= (nu1[m] - lam_n) / (lam1[m] - lam_n)
        if abs(prod) > cap:
            raise errors.CertificationFailed(
                f"residue product at index {n} exceeds the analytic cap {cap:.3g}"
            )
        c1.append((nu1[j] - lam_n) * prod)
    return ProductFunction(spec=spec, i1=tuple(i1), nu1=nu1, lam1=lam1, c1=tuple(c1), nu=nu, lam=lam)


def _deviating_radius(pf):
    """max |n| over I1 (increasing), 0 when it is empty."""
    return max(-pf.i1[0], pf.i1[-1]) if pf.i1 else 0


def _residue_window(spec, pf):
    """The first index of the window |n| <= max |I1| (0 when it is empty)
    and (n, c_n) over it in increasing order, c_n = 0 off I1."""
    c = dict(zip(pf.i1, pf.c1))
    radius = _deviating_radius(pf)
    window = range(-radius if spec.index_kind == INDEX_Z else spec.start, radius + 1)
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
    lo = min(pf.lam1) - 2.0 * d if pf.lam1 else -2.0 * d
    hi = max(pf.lam1) + 2.0 * d if pf.lam1 else 2.0 * d
    z = np.empty(SAMPLE_COUNT, dtype=complex)
    z.real = np.linspace(lo, hi, SAMPLE_COUNT)
    z.imag = 0.4 * d * _SAMPLE_ROWS
    return z


def check_F_equals_product(coeffs, pf, sample_points):
    """Max |F - F~| over the samples; the two functions agree identically.

    F is built on the deviating window plus eight indices (and the whole
    coefficient head)."""
    radius = _deviating_radius(pf) if pf.i1 else 1
    cf = CharacteristicFunction.build(pf.spec, coeffs, max(radius + 8, coeffs.head_radius() + 8))
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    cf.check_poles(z)
    return float(np.abs(cf.values(z) - pf.eval_product(z)).max(initial=0.0))
