"""Inverse spectral problem: coefficients realizing a prescribed spectrum.

Two steps: form the finite product F~(z) = prod (nu_n - z)/(lambda_n - z)
over the deviating indices with its residues -c_n at the poles, then
synthesize Fourier coefficients with conj(a_n) b_n = c_n.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import errors, _kernels
from .charfn import TRUNC_MARGIN, first_pole_hit, summed_terms
from .model import PerturbationCoefficients, PowerTail, validate_coefficients

ROWS = 8  # rows of ratios build_product forms at once, each padded to under 2 |I1|
A_TAIL = PowerTail(beta=1.0, scale=1.0, phase=0.0)  # a_n = 1/|n| beyond solve_inverse's head


@dataclass(eq=False)
class ProductFunction:
    """F~(z) = prod (nu_n - z)/(lambda_n - z) over the deviating indices,
    with its residues: c1[j] = -Res F~ at lambda_n, n = i1[j], a tuple for
    the reader, and the same values as the read-only array c, from which
    solve_inverse and its fixed-phi variant scatter them.  Not frozen: a
    frozen dataclass's __init__ sets each field through
    object.__setattr__, several times the cost of this one, once per
    product."""

    spec: object
    i1: tuple  # indices with nu_n != lambda_n, increasing
    c1: tuple
    c: np.ndarray  # c1 as an array, read-only
    nu: np.ndarray  # nu_n over i1
    lam: np.ndarray  # lambda_n over i1

    def values(self, z):
        """The product at a flat array of points (no pole checking)."""
        # points x factors: each point's product is one contiguous row, so a
        # scalar and an array multiply in the same order
        col = z[:, np.newaxis]
        return np.multiply.reduce((self.nu - col) / (self.lam - col), axis=1)


def _divide_parts(z, x):
    """z / x in place, for complex z and real x: each part divided by x, where
    a complex division rounds several times worse."""
    np.divide(z.real, x, out=z.real)
    np.divide(z.imag, x, out=z.imag)
    return z


def build_product(spec, target):
    """The product over the deviating indices and its residues

    c_n = (nu_n - lambda_n) * prod_{m != n} (nu_m - lambda_n)/(lambda_m - lambda_n).

    The deviating indices are the head's with nu_n != lambda_n once any
    target value equal to some lambda_m is assigned to index m itself.
    Each residue is the pairwise product along its row of ratios (neighbours
    first, then neighbouring pairs, and so on), whose own entry is
    nu_n - lambda_n; the rows are formed ROWS at a time, so that memory
    stays linear in the deviating indices.  A residue that is not finite (a
    target moved too far for a double) raises NonSummable naming its index.
    """
    off = target.nu_head_offset
    nu, run = target._nu, spec.lambda_run(off, off + len(target.nu_head) - 1)[1]
    moved = (nu != run).nonzero()[0]
    nu, lam = nu[moved], run[moved]
    # where lambda_m occurs elsewhere in the head, not on its own index, pull
    # it onto index m; a swap never makes an earlier index swappable, so
    # one pass makes them all.  Swaps only permute the values of the moved
    # indices among them, so the pass runs only when some lambda_m of a
    # moved index is among those values
    if not set(nu.tolist()).isdisjoint(lam.tolist()):
        head, run_list = list(target.nu_head), run.tolist()
        values = set(head)
        for j in moved.tolist():
            lam_m = run_list[j]
            if head[j] != lam_m and lam_m in values:
                k = next((k for k, v in enumerate(head) if v == lam_m and v != run_list[k]), None)
                if k is not None:
                    head[j], head[k] = head[k], head[j]
        nu = np.array(head, dtype=complex)
        moved = (nu != run).nonzero()[0]
        nu, lam = nu[moved], run[moved]
    i1 = tuple((moved + off).tolist())
    c1 = np.empty(len(lam), dtype=complex)
    width = 1 << max(len(lam) - 1, 0).bit_length()  # a row padded with ones to a power of two
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, len(lam), ROWS):
            lam_n = lam[j : j + ROWS, np.newaxis]
            den = lam - lam_n
            den.reshape(-1)[j :: len(lam) + 1] = 1.0  # a row's own entry: nu_n - lambda_n
            r = np.empty((len(lam_n), width), dtype=complex)
            r[:, len(lam) :] = 1.0
            # nu_m - lambda_n by parts (Im nu_m - 0 is Im nu_m), divided by
            # the real denominators as _divide_parts divides
            q = r[:, : len(lam)]
            np.divide(nu.real - lam_n, den, out=q.real)
            np.divide(nu.imag, den, out=q.imag)
            while r.shape[1] > 1:
                r = r[:, ::2] * r[:, 1::2]
            c1[j : j + ROWS] = r[:, 0]
    finite = np.isfinite(c1)
    if np.count_nonzero(finite) < len(c1):
        raise errors.NonSummable(f"residue c_{i1[finite.argmin()]} overflows: the target moves too far for a double")
    c1.flags.writeable = False
    return ProductFunction(spec=spec, i1=i1, c1=tuple(c1.tolist()), c=c1, nu=nu, lam=lam)


def _deviating_radius(pf):
    """max |n| over I1 (increasing), 0 when it is empty."""
    return max(-pf.i1[0], pf.i1[-1]) if pf.i1 else 0


def _residues(pf, lo, hi):
    """c_n at the indices lo..hi, which cover I1, an array: 0 off I1."""
    c = np.zeros(max(hi - lo + 1, 0), dtype=complex)
    c[np.array(pf.i1, dtype=int) - lo] = pf.c
    return c


def solve_inverse(spec, target):
    """Coefficients with conj(a_n) b_n = c_n on I1 and b_n = 0 on I0;
    returns (coefficients, product function).

    a_n = sqrt|c_n|, b_n = c_n / a_n for deviating indices; a_n = 1/(1+|n|),
    b_n = 0 for the rest.  The head covers the window |n| <= max |I1|;
    beyond it a carries a square-summable 1/|n| power-law tail and b is
    identically zero.
    """
    pf = build_product(spec, target)
    radius = _deviating_radius(pf)
    lo = spec.first_index(radius)
    c = _residues(pf, lo, radius)
    a = np.sqrt(np.abs(c))
    np.divide(1.0, 1.0 + np.abs(np.arange(lo, lo + len(c))), out=a, where=c == 0)
    start = lo if len(c) else 0
    coeffs = PerturbationCoefficients.from_arrays(start, a.astype(complex), A_TAIL, _divide_parts(c, a), None)
    return coeffs, pf


def solve_inverse_fixed_phi(spec, target, phi_coeffs):
    """Fixed-phi variant: keep phi's a_n and solve b_n = c_n / conj(a_n) over
    I1's range, b's head; returns (coefficients validated against spec,
    product function).  A c_n != 0 whose quotient is not finite (a_n = 0,
    say) raises ZeroCoefficientObstruction, and an index of b's head with
    a_n = c_n = 0 DegenerateIndex."""
    pf = build_product(spec, target)
    lo, hi = (pf.i1[0], pf.i1[-1]) if pf.i1 else (0, -1)
    c = _residues(pf, lo, hi)
    a = phi_coeffs.a_range(lo, hi)
    b = np.zeros_like(c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(c, np.conj(a), out=b, where=c != 0)
    finite = np.isfinite(b)
    if not finite.all():
        j = finite.argmin()
        n = lo + int(j)
        raise errors.ZeroCoefficientObstruction(
            f"c_{n} = {c[j]} but c_{n}/conj(a_{n}) is not finite at a_{n} = {a[j]}: coefficient b_{n} is undetermined"
        )
    coeffs = replace(phi_coeffs, b_head_offset=lo, b_head=tuple(b.tolist()), b_tail=None)
    return validate_coefficients(coeffs, spec), pf


SAMPLE_COUNT = 25
_SAMPLE_ROWS = 1.0 + np.arange(SAMPLE_COUNT) % 3  # heights 0.4 d, 0.8 d and 1.2 d in turn
_SAMPLE_RAMP = np.arange(SAMPLE_COUNT, dtype=float)


def default_sample_points(spec, pf):
    """Deterministic sample points staying at least d/4 away from all poles
    (an array): real parts np.linspace(lo - 2 d, hi + 2 d, SAMPLE_COUNT) to
    the bit, lo and hi the outermost poles, by linspace's own arithmetic
    (ramp * step + start, the last point stop; ramp / (count - 1) * (stop -
    start) + start where the step underflows to 0) without its overhead."""
    d = spec.gap
    lo, hi = (pf.lam[0], pf.lam[-1]) if len(pf.lam) else (0.0, 0.0)  # the poles ascend
    start, stop = lo - 2.0 * d, hi + 2.0 * d
    step = (stop - start) / (SAMPLE_COUNT - 1)
    z = np.empty(SAMPLE_COUNT, dtype=complex)
    if step != 0.0:
        z.real = _SAMPLE_RAMP * step + start
    else:
        z.real = _SAMPLE_RAMP / (SAMPLE_COUNT - 1) * (stop - start) + start
    z.real[-1] = stop
    z.imag = 0.4 * d * _SAMPLE_ROWS
    return z


def check_F_equals_product(coeffs, pf, sample_points):
    """Max |F - F~| over the samples; the two functions agree identically.

    F's terms are the nonzero c_n over the deviating window plus
    TRUNC_MARGIN indices (and the whole coefficient head), in the order
    CharacteristicFunction.cut sums them (summed_terms), so that F's values
    are a built F's to the bit.  The samples are tested once against the
    poles of both functions, F's first: a sample on a pole raises PoleHit
    naming its index."""
    spec = pf.spec
    n = max(_deviating_radius(pf) if pf.i1 else 1, coeffs.head_radius()) + TRUNC_MARGIN
    first = spec.first_index(n)
    k, lam, c = summed_terms(*spec.lambda_run(first, n), coeffs.c_range(first, n))
    z = np.asarray(sample_points, dtype=complex).reshape(-1)
    hit = first_pole_hit(np.concatenate((lam, pf.lam)), z)
    if hit is not None:
        j, p = hit
        index = first + k[p] if p < len(k) else pf.i1[p - len(k)]
        raise errors.PoleHit(f"z = {z[j]} coincides with pole lambda at index {index}")
    f = 1.0 + _kernels.taylor(c, lam, z, 0)[0]
    return float(np.maximum.reduce(np.abs(f - pf.values(z)), initial=0.0))
