"""Evaluation of the characteristic function F and its relatives.

F(z) = 1 + sum_{n in I1} c_n / (lambda_n - z) with c_n = conj(a_n) b_n.
The sum is truncated to a principal-value window |n| <= N_trunc; every
evaluation returns the value together with a certified bound on the
discarded tail, T(N)/delta with delta the distance to the nearest
unrepresented pole.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import errors, _kernels
from .model import INDEX_Z

POLE_RTOL = 1e-12  # |z - lambda_n| below this (times scale) counts as a pole hit


@dataclass(frozen=True)
class CharacteristicFunction:
    spec: object
    coeffs: object
    n_trunc: int
    # derived arrays, ordered from the largest |index| inward
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
        mask = c != 0
        idx1 = idx[mask]
        # largest |n| first: the smallest terms accumulate before the big ones
        order = np.argsort(-np.abs(idx1), kind="stable")
        idx1 = idx1[order]
        lam1 = np.asarray(spec.lambda_at(idx1), dtype=float).reshape(-1)
        c1 = np.asarray(c[mask][order], dtype=complex)
        tail = coeffs.c_tail_sum(n_trunc, spec.index_kind)
        return cls(
            spec=spec,
            coeffs=coeffs,
            n_trunc=int(n_trunc),
            idx1=idx1,
            lam1=lam1,
            c1=c1,
            tail_total=float(tail),
        )

    # -- geometry helpers --------------------------------------------------

    def _pole_scale(self):
        if len(self.lam1) == 0:
            return 1.0
        return max(1.0, float(np.max(np.abs(self.lam1))))

    def check_poles(self, z):
        """Raise PoleHit if any point sits on a represented pole."""
        if len(self.lam1) == 0:
            return
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        for zz in z:
            d = np.abs(self.lam1 - zz)
            j = int(np.argmin(d))
            if d[j] < POLE_RTOL * max(1.0, abs(self.lam1[j])):
                raise errors.PoleHit(f"z = {zz} coincides with pole lambda at index {int(self.idx1[j])}")

    def delta_unrepresented(self, z):
        """Distance from z to the nearest pole beyond the truncation window."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        spec = self.spec
        cand = []
        n = self.n_trunc
        if spec.index_kind == INDEX_Z:
            cand.extend([-(n + 2), -(n + 1), n + 1, n + 2])
        else:
            cand.extend([n + 1, n + 2])
        s, t = spec.tail.slope, spec.tail.intercept
        proj = np.round((z.real - t) / s).astype(int)
        dist = np.full(len(z), np.inf)
        for j, zz in enumerate(z):
            local = list(cand)
            p = int(proj[j])
            if spec.index_kind == INDEX_Z:
                if abs(p) > n:
                    local.extend([p - 1, p, p + 1])
            else:
                if p > n:
                    local.extend([max(p - 1, n + 1), p, p + 1])
            lam = np.asarray(spec.lambda_at(np.array(local)), dtype=float)
            dist[j] = float(np.min(np.abs(lam - zz)))
        return dist

    def tail_bound_at(self, z, order=0):
        """Bound on the discarded tail of F^(order) at the points z."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.tail_total == 0.0:
            return np.zeros(len(z))
        delta = self.delta_unrepresented(z)
        return self.tail_total * math.factorial(order) / delta ** (order + 1)

    # -- evaluation --------------------------------------------------------

    def value_pair(self, z, order=0, shift=0.0):
        """(F^(order), F^(order+1)) at the points shift + z from one kernel pass.

        Denominators are formed as (lambda_n - shift) - z, which keeps full
        precision when |z| is many orders below |shift|.
        """
        lam = self.lam1 - shift if shift else self.lam1
        s, s1 = _kernels.pole_sum(self.c1, lam, z, order + 1)
        f = 1.0 + s if order == 0 else math.factorial(order) * s
        return f, math.factorial(order + 1) * s1

    def values(self, z):
        """F at an array of points (no pole checking, no bounds)."""
        return 1.0 + _kernels.pole_sum(self.c1, self.lam1, z)[0]

    def derivative_values(self, z, order=1):
        """F^(order) at an array of points."""
        return math.factorial(order) * _kernels.pole_sum(self.c1, self.lam1, z, order)[1]

    def eval_F(self, z):
        """(F(z), tail error bound) at a single point."""
        self.check_poles(z)
        val = self.values(np.array([z]))[0]
        bound = float(self.tail_bound_at(z)[0])
        return complex(val), bound

    def eval_F_derivative(self, z, order=1):
        if order < 1:
            raise ValueError("order must be a positive integer")
        self.check_poles(z)
        val = self.derivative_values(np.array([z]), order)[0]
        bound = float(self.tail_bound_at(z, order)[0])
        return complex(val), bound

    def shifted_values(self, center_index, w, order=0):
        """F^(order) evaluated at lambda_center + w in shifted coordinates."""
        return self.value_pair(w, order, self.spec.lambda_at(int(center_index)))[0]

    def eval_Gk(self, k, z):
        """Single-term approximant G_k(z) = c_k/(lambda_k - z) + 1."""
        c_k = self.coeffs.c_at(int(k))
        if c_k == 0:
            raise errors.IndexNotInI1(f"index {k} has c_k = 0")
        lam_k = self.spec.lambda_at(int(k))
        if abs(z - lam_k) < POLE_RTOL * max(1.0, abs(lam_k)):
            raise errors.PoleHit(f"z = {z} coincides with lambda at index {k}")
        return 1.0 + c_k / (lam_k - z)

    def eval_Hk(self, k, z):
        """Partial sum H_k(z) over the window |n| <= k (exact, finitely many terms)."""
        mask = np.abs(self.idx1) <= int(k)
        lam = self.lam1[mask]
        c = self.c1[mask]
        for lam_n, n in zip(lam, self.idx1[mask]):
            if abs(z - lam_n) < POLE_RTOL * max(1.0, abs(lam_n)):
                raise errors.PoleHit(f"z = {z} coincides with lambda at index {int(n)}")
        return complex(1.0 + np.sum(c / (lam - np.complex128(z))))


def compute_Keps(spec, coeffs, eps):
    """Window radii (K_eps, K_eps_prime) realizing the tail estimates.

    K_eps is the smallest radius N with sum_{|n|>N} |c_n| < eps;
    K_eps_prime the smallest K' > K_eps with
    sum_{|n|<=K_eps} |c_n| / ((K' - K_eps) * d) < eps.
    """
    d = spec.gap
    if not (0 < eps < d / 2):
        raise errors.EpsOutOfRange(f"eps must satisfy 0 < eps < d/2 = {d / 2:.6g}")
    h = coeffs.head_radius()
    # c_tail_sum(n) for n = 0..h from one c_at pass over the head: the sum
    # of |c_k| over n < |k| <= h, formed from the outside in, plus the
    # generator tail beyond h
    k = np.arange(1, h + 1)
    if spec.index_kind == INDEX_Z:
        absc = np.abs(np.atleast_1d(coeffs.c_at(np.concatenate([-k, k])))).reshape(2, h).sum(axis=0)
    else:
        absc = np.abs(np.atleast_1d(coeffs.c_at(k)))
    head = np.append(np.cumsum(absc[::-1])[::-1], 0.0)
    below = np.flatnonzero(head + coeffs.c_tail_sum(h, spec.index_kind) < eps)
    k_eps = int(below[0]) if len(below) else None
    if k_eps is None:
        # head exhausted; only the generator tail remains (from radius h + 1)
        tail = coeffs.c_tail
        gamma = tail.beta
        sides = 2.0 if spec.index_kind == INDEX_Z else 1.0
        # integral bound: sides * scale * N^(1-gamma)/(gamma-1) < eps
        n0 = (sides * abs(tail.scale) / (eps * (gamma - 1.0))) ** (1.0 / (gamma - 1.0))
        n = max(h + 1, int(math.ceil(n0)))
        while coeffs.c_tail_sum(n, spec.index_kind) >= eps:
            n += 1
        while n > h + 1 and coeffs.c_tail_sum(n - 1, spec.index_kind) < eps:
            n -= 1
        k_eps = n
    idx = spec.window_indices(k_eps)
    head_sum = float(np.sum(np.abs(np.atleast_1d(coeffs.c_at(idx))))) if len(idx) else 0.0
    if head_sum == 0.0:
        return k_eps, k_eps + 1
    k_prime = k_eps + 1 + int(math.floor(head_sum / (eps * d)))
    while head_sum / ((k_prime - k_eps) * d) >= eps:
        k_prime += 1
    return k_eps, k_prime
