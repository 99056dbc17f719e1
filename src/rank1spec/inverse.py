"""Inverse spectral problem: coefficients realizing a prescribed spectrum.

Two steps: form the finite product F~(z) = prod (nu_n - z)/(lambda_n - z)
over the deviating indices with its residues -c_n at the poles, then
synthesize Fourier coefficients with conj(a_n) b_n = c_n.
"""

from dataclasses import dataclass, replace
import cmath
import math

import numpy as np

from . import errors
from .charfn import CharacteristicFunction, first_pole_hit
from .model import PerturbationCoefficients, PowerTail


@dataclass(frozen=True)
class ProductFunction:
    """F~(z) = prod (nu_n - z)/(lambda_n - z) over the deviating indices,
    with its residues: c1[j] = -Res F~ at lambda_n, n = i1[j]."""

    spec: object
    i1: tuple  # indices with nu_n != lambda_n, increasing
    nu1: tuple
    lam1: tuple
    c1: tuple

    def eval_product(self, z):
        """Exact finite product over the deviating indices, at a point or an
        array of points (a complex for a scalar)."""
        zs = np.asarray(z, dtype=complex)
        flat = zs.reshape(-1)
        lam = np.asarray(self.lam1, dtype=float)
        hit = first_pole_hit(lam, flat)
        if hit is not None:
            j, k = hit
            raise errors.PoleHit(f"z = {flat[j]} coincides with pole at index {self.i1[k]}")
        # points x factors: each point's product is one contiguous row, so a
        # scalar and an array multiply in the same order
        col = flat[:, np.newaxis]
        out = np.prod((np.asarray(self.nu1, dtype=complex) - col) / (lam - col), axis=1)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def split_target(spec, target):
    """Indices kept fixed (I0) and deviating (I1), after the normalization
    that assigns any target value equal to some lambda_m to index m itself."""
    head = list(target.nu_head)
    off = target.nu_head_offset
    n_idx = list(range(off, off + len(head)))
    lam = [complex(v) for v in spec.lambda_at(np.array(n_idx, dtype=int))]
    # where lambda_m occurs elsewhere in the head, not on its own index, pull
    # it onto index m; a swap never makes an earlier index swappable, so
    # one pass makes them all
    for j, lam_m in enumerate(lam):
        if head[j] != lam_m:
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
    lam1 = tuple(spec.lambda_at(np.array(i1, dtype=int)).tolist())
    dev_sum = float(np.sum(np.abs(np.asarray(nu1) - np.asarray(lam1))))
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
    return ProductFunction(spec=spec, i1=tuple(i1), nu1=nu1, lam1=lam1, c1=tuple(c1))


def _residue_window(spec, pf):
    """The first index of the window |n| <= max |I1| (0 when it is empty)
    and (n, c_n) over it in increasing order, c_n = 0 off I1."""
    c = dict(zip(pf.i1, pf.c1))
    idx = spec.window_indices(max([abs(n) for n in pf.i1], default=0))
    return (int(idx[0]) if len(idx) else 0), [(n, c.get(n, 0.0)) for n in idx.tolist()]


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
    b_vals = []
    for n, c_n in window:
        a_n = phi_coeffs.a_at(n)
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


def default_sample_points(spec, pf):
    """Deterministic sample points staying at least d/4 away from all poles."""
    d = spec.gap
    lam = np.asarray(pf.lam1, dtype=float)
    lo = float(lam.min()) - 2.0 * d if len(lam) else -2.0 * d
    hi = float(lam.max()) + 2.0 * d if len(lam) else 2.0 * d
    res = np.linspace(lo, hi, SAMPLE_COUNT)
    ims = 0.4 * d * (1.0 + (np.arange(SAMPLE_COUNT) % 3))
    return [complex(r, i) for r, i in zip(res, ims)]


def check_F_equals_product(coeffs, pf, sample_points):
    """Max |F - F~| over the samples; the two functions agree identically.

    F is built on the deviating window plus eight indices (and the whole
    coefficient head)."""
    radius = max([abs(n) for n in pf.i1], default=1)
    cf = CharacteristicFunction.build(pf.spec, coeffs, max(radius + 8, coeffs.head_radius() + 8))
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    cf.check_poles(z)
    return float(np.max(np.abs(cf.values(z) - pf.eval_product(z)), initial=0.0))
