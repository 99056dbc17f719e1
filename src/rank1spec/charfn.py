"""Evaluation of the characteristic function F and its relatives.

F(z) = 1 + sum_{n in I1} c_n / (lambda_n - z) with c_n = conj(a_n) b_n.
The sum is truncated to a principal-value window |n| <= N_trunc;
tail_bound_at gives a certified bound on the discarded tail at any point,
T(N)/delta with delta the exact distance to the nearest pole outside the
summation window, head eigenvalues included.
"""

import bisect
from dataclasses import dataclass
import math

import numpy as np

from . import errors, _kernels
from .model import INDEX_Z

POLE_RTOL = 1e-12  # |z - lambda_n| below this (times scale) counts as a pole hit
TRUNC_CAP = 32000  # the largest summation window radius a solve builds


def first_pole_hit(lam, z):
    """(point, pole) positions of the first point z_j with |z_j - lambda_k|
    < POLE_RTOL max(1, |lambda_k|), and of the first such pole; None if none."""
    lam = lam[:, np.newaxis]
    hit = np.abs(lam - z) < POLE_RTOL * np.maximum(1.0, np.abs(lam))
    if not hit.any():
        return None
    j = int(np.flatnonzero(hit.any(axis=0))[0])
    return j, int(np.argmax(hit[:, j]))


@dataclass(frozen=True)
class CharacteristicFunction:
    """F cut to the window |n| <= n_trunc.  build evaluates the window's
    indices idx (ascending), lambda_n and c_n once, for the direct solver
    to slice; the I1 terms (c_n != 0) idx1, lam1, c1 run from the largest
    |index| inward, so that the smallest terms accumulate first."""

    spec: object
    n_trunc: int
    idx: np.ndarray
    lam: np.ndarray
    c: np.ndarray
    idx1: np.ndarray
    lam1: np.ndarray
    c1: np.ndarray
    tail_total: float

    @classmethod
    def build(cls, spec, coeffs, n_trunc):
        if n_trunc < 1:
            raise errors.WindowExceeded("n_trunc must be positive")
        idx = spec.window_indices(n_trunc)
        c = np.atleast_1d(coeffs.c_at(idx))
        lam = np.asarray(spec.lambda_at(idx), dtype=float).reshape(-1)
        i0 = c == 0
        order = np.argsort(-np.abs(idx[~i0]), kind="stable")
        tail = coeffs.c_tail_sum(n_trunc, spec.index_kind)
        return cls(
            spec=spec,
            n_trunc=int(n_trunc),
            idx=idx,
            lam=lam,
            c=c,
            idx1=idx[~i0][order],
            lam1=lam[~i0][order],
            c1=np.asarray(c[~i0][order], dtype=complex),
            tail_total=float(tail),
        )

    # -- geometry helpers --------------------------------------------------

    def check_poles(self, z):
        """Raise PoleHit naming the first point that sits on a represented pole."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        hit = first_pole_hit(self.lam1, z)
        if hit is not None:
            j, k = hit
            raise errors.PoleHit(f"z = {z[j]} coincides with pole lambda at index {int(self.idx1[k])}")

    def delta_unrepresented(self, z):
        """Exact distance from each point to the nearest pole outside the window.

        The poles outside are the affine tail beyond n_trunc on each side,
        less the head's index range, and the head eigenvalues whose index
        lies beyond n_trunc.  On each run of affine indices the nearest is
        the floor or the ceiling of the point's affine projection, clipped
        to the run; on the head the neighbours in ascending order.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        spec, n = self.spec, self.n_trunc
        s, t = spec.tail.slope, spec.tail.intercept
        h0, h1 = spec.head_offset, spec.head_offset + len(spec.head)
        if spec.index_kind == INDEX_Z:
            sides = [(-math.inf, -n - 1), (n + 1, math.inf)]
        else:
            sides = [(max(n + 1, spec.start), math.inf)]
        runs = sides if not spec.head else [
            run for lo, hi in sides for run in ((lo, min(hi, h0 - 1)), (max(lo, h1), hi))
        ]
        u = (z.real - t) / s
        cand = [np.clip(r(u), lo, hi) for lo, hi in runs if lo <= hi for r in (np.floor, np.ceil)]
        dist = np.abs((s * np.array(cand) + t) - z).min(axis=0)
        head = np.asarray(spec.head, dtype=float)
        k = np.arange(h0, h1)
        far = head[(np.abs(k) if spec.index_kind == INDEX_Z else k) > n]
        if len(far):
            j = np.searchsorted(far, z.real)
            near = far[np.clip([j - 1, j], 0, len(far) - 1)]
            dist = np.minimum(dist, np.abs(near - z).min(axis=0))
        return dist

    def tail_bound_at(self, z):
        """Bound on the discarded tail of F at the points z."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.tail_total == 0.0:
            return np.zeros(len(z))
        return self.tail_total / self.delta_unrepresented(z)

    # -- evaluation --------------------------------------------------------

    def value_pair(self, z, order=0, shift=0.0):
        """(F^(order), F^(order+1)) at the points shift + z from one kernel pass.

        The shift is one number or one per point.  Denominators are formed
        as (lambda_n - shift) - z, which keeps full precision when |z| is
        many orders below |shift|.
        """
        rows = _kernels.taylor(self.c1, self.lam1, z, order + 1, shift)
        s, s1 = rows[order], rows[order + 1]
        if order == 0:
            return 1.0 + s, s1
        return math.factorial(order) * s, math.factorial(order + 1) * s1

    def taylor(self, z, p, shift=0.0, rho=None):
        """a_j = F^(j)/j!, j <= p, at the points shift + z: a (p + 1, points)
        array from one kernel pass, with rho also its bounds (_kernels.taylor)."""
        rows = _kernels.taylor(self.c1, self.lam1, z, p, shift, rho)
        a = np.array(rows[: p + 1])
        a[0] += 1.0
        return a if rho is None else (a, np.array(rows[p + 1 :]))

    def values(self, z):
        """F at an array of points (no pole checking, no bounds)."""
        return 1.0 + _kernels.taylor(self.c1, self.lam1, z, 0)[0]

    def derivative_values(self, z, order=1):
        """F^(order) at an array of points (F itself at order 0)."""
        return self.value_pair(z, order)[0]

    def shifted_values(self, center_index, w, order=0):
        """F^(order) evaluated at lambda_center + w in shifted coordinates."""
        return self.value_pair(w, order, self.spec.lambda_at(int(center_index)))[0]


def compute_Keps(spec, coeffs, eps):
    """Window radii (K_eps, K_eps_prime) realizing the tail estimates.

    K_eps is the smallest radius N with sum_{|n|>N} |c_n| < eps;
    K_eps_prime the smallest K' > K_eps with
    sum_{|n|<=K_eps} |c_n| / ((K' - K_eps) * d) < eps.  A K_eps beyond
    TRUNC_CAP (a tail that decays too slowly) raises WindowExceeded.
    """
    d = spec.gap
    if not (0 < eps < d / 2):
        raise errors.EpsOutOfRange(f"eps must satisfy 0 < eps < d/2 = {d / 2:.6g}")
    h = coeffs.head_radius()
    # |c_n| over the head in index order, from one c_at pass (over N from
    # index 1, as c_tail_sum counts, or from the start when that is lower):
    # c_tail_sum(n) for n = 0..h is the sum of |c_k| over n < |k| <= h,
    # formed from the outside in, plus the generator tail beyond h, and K''s
    # head sum is a slice of the same array
    lo = -h if spec.index_kind == INDEX_Z else min(1, spec.start)
    absc = np.abs(np.atleast_1d(coeffs.c_at(np.arange(lo, h + 1))))
    if spec.index_kind == INDEX_Z:
        shell = absc[:h][::-1] + absc[h + 1 :]  # |c_-k| + |c_k|, k = 1..h
    else:
        shell = absc[1 - lo :]
    head = np.append(np.cumsum(shell[::-1])[::-1], 0.0)
    below = np.flatnonzero(head + coeffs.c_tail_sum(h, spec.index_kind) < eps)
    k_eps = int(below[0]) if len(below) else None
    if k_eps is None:
        # head exhausted: only the generator tail is left beyond h, and its
        # sum falls with the radius; bisect for the first radius below eps,
        # up to the largest window a solve can build
        small = lambda n: coeffs.c_tail_sum(n, spec.index_kind) < eps
        k_eps = h + 1 + bisect.bisect_left(range(h + 1, TRUNC_CAP + 1), True, key=small)
        if k_eps > TRUNC_CAP:
            raise errors.WindowExceeded(
                f"K_eps exceeds {TRUNC_CAP}: the c_n beyond radius {TRUNC_CAP} sum to "
                f"{coeffs.c_tail_sum(TRUNC_CAP, spec.index_kind):.3g}, not below eps = {eps:.3g}"
            )
        inside = np.abs(np.atleast_1d(coeffs.c_at(spec.window_indices(k_eps))))
    else:
        idx = spec.window_indices(k_eps)
        inside = absc[idx[0] - lo : idx[-1] - lo + 1] if len(idx) else absc[:0]
    head_sum = float(np.sum(inside))
    if head_sum == 0.0:
        return k_eps, k_eps + 1
    k_prime = k_eps + 1 + int(math.floor(head_sum / (eps * d)))
    while head_sum / ((k_prime - k_eps) * d) >= eps:
        k_prime += 1
    return k_eps, k_prime
