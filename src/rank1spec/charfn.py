"""F(z) = 1 + sum_{n in I1} c_n / (lambda_n - z), c_n = conj(a_n) b_n, cut
to |n| <= n_trunc, and the cut's policy: first_cut (TRUNC_MARGIN indices
past the window, at most TRUNC_CAP), CharacteristicFunction.cut (widening
Terms), next_cut (the doubling) and tail_bound_at, the one tail term: T /
(delta - rho) within rho of a point, T the sum of |c_n| beyond the cut and
delta the distance to the nearer pole bounding it, or |Im z| beyond.
"""

import bisect
from dataclasses import dataclass
import math

import numpy as np

from . import errors, _kernels
from .model import INDEX_Z, TRUNC_CAP

POLE_RTOL = 1e-12  # |z - lambda_n| below this (times scale) counts as a pole hit
TRUNC_MARGIN = 8  # indices F sums past a solve's window


def first_pole_hit(lam, z):
    """(point, pole) positions of the first point z_j with |z_j - lambda_k|
    < POLE_RTOL max(1, |lambda_k|), and of the first such pole; None if none,
    at once when every |Im z_j| reaches the largest tolerance (lambda is real)."""
    reach = POLE_RTOL * max(1.0, np.maximum.reduce(np.abs(lam), initial=0.0))
    if np.minimum.reduce(np.abs(z.imag), initial=np.inf) >= reach:
        return None
    lam = lam[:, np.newaxis]
    hit = np.abs(lam - z) < POLE_RTOL * np.maximum(1.0, np.abs(lam))
    if not np.count_nonzero(hit):
        return None
    j = int(np.flatnonzero(np.logical_or.reduce(hit, axis=0))[0])
    return j, int(np.argmax(hit[:, j]))


def summed_terms(idx, lam, c):
    """F's terms from the ascending indices idx and their lambda_n and c_n:
    (positions, lambda_n, c_n) of the nonzero c_n, from the largest |n|
    inward, stably (over Z, -n before n), so that the smallest terms
    accumulate first."""
    k = c.nonzero()[0]
    k = k[(-np.abs(idx[k])).argsort(kind="stable")]
    return k, lam[k], c[k]


@dataclass(eq=False)
class CharacteristicFunction:
    """F cut to the window |n| <= n_trunc.  cut slices the window's indices
    idx (ascending), lambda_n and c_n from terms, for the direct solver to
    slice further; the I1 terms idx1, lam1, c1 run from the largest |index|
    inward (summed_terms), and tail_total is T.  Not frozen: a frozen
    dataclass's __init__ sets each field through object.__setattr__, ten
    times the cost of this one, and every solve cuts one."""

    spec: object
    terms: object  # the Terms this F is cut from, which the next cut reuses
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
        return cls.cut(Terms(spec, coeffs, n_trunc), n_trunc)

    @classmethod
    def cut(cls, terms, n_trunc):
        """F over |n| <= n_trunc, sliced from terms, which are evaluated
        again out to n_trunc when they do not reach it."""
        spec = terms.spec
        if n_trunc > terms.radius:
            terms = Terms(spec, terms.coeffs, n_trunc, terms.h)
        first = spec.first_index(n_trunc)
        window = slice(first - terms.lo, n_trunc + 1 - terms.lo)
        idx, lam, c = terms.idx[window], terms.lam[window], terms.c[window]
        i1, lam1, c1 = summed_terms(idx, lam, c)
        return cls(spec, terms, int(n_trunc), idx, lam, c, idx[i1], lam1, c1, terms.tail_sum(n_trunc))

    @property
    def has_tail(self):
        """Whether some nonzero c_n lies beyond the cut (else F cut is F)."""
        return self.tail_total > 0.0

    def next_cut(self, failure):
        """F at twice n_trunc after failure, an attempt's CertificationFailed
        here: raised again without a tail, "escalation exhausted" past TRUNC_CAP."""
        if not self.has_tail:
            raise failure
        if self.n_trunc * 2 > TRUNC_CAP:
            raise errors.CertificationFailed(f"escalation exhausted (n_trunc {self.n_trunc}): {failure}")
        return self.cut(self.terms, self.n_trunc * 2)

    # -- geometry helpers --------------------------------------------------

    def window(self, radius):
        """The positions of the indices |n| <= radius in idx, lam and c: a slice."""
        first = int(self.idx[0]) if len(self.idx) else 0
        return slice(max(0, -radius - first), max(0, radius - first + 1))

    def delta_unrepresented(self, z):
        """Distance from each point to the nearest pole outside the window.

        Every pole outside lies at or beyond the two that bound the window
        (lambda_n increases with n): lambda at max(n_trunc + 1, the first
        index) and, over Z, lambda_{-n_trunc-1}.  Between them this is the
        distance to the nearer; beyond them |Im z|, a lower bound.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        spec, n = self.spec, self.n_trunc
        right = spec.lambda_at(max(n + 1, spec.first_index(n)))
        dist, between = np.abs(right - z), z.real <= right
        if spec.index_kind == INDEX_Z:
            left = spec.lambda_at(-n - 1)
            dist, between = np.minimum(dist, np.abs(left - z)), between & (z.real >= left)
        return np.where(between, dist, np.abs(z.imag))

    def tail_bound_at(self, z, rho=0.0, factor=False):
        """T / (delta - rho), bounding F's discarded tail within rho of each
        point z: an array shaped as z, inf where delta <= rho (0 if T = 0);
        factor adds (delta + rho) / (delta - rho), inf there too."""
        gap = (delta := self.delta_unrepresented(z).reshape(np.shape(z))) - rho
        fill, where = np.inf if self.has_tail else 0.0, gap > 0.0
        bound = np.divide(self.tail_total, gap, out=np.full(gap.shape, fill), where=where)
        return (bound, np.divide(delta + rho, gap, out=np.full(gap.shape, np.inf), where=where)) if factor else bound

    # -- evaluation --------------------------------------------------------

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
        return math.factorial(order) * self.taylor(z, order)[order]

    def shifted_values(self, center_index, w, order=0):
        """F^(order) at lambda_center + w, its denominators formed as
        (lambda_n - lambda_center) - w, which keeps full precision when |w|
        is many orders below |lambda_center|."""
        return math.factorial(order) * self.taylor(w, order, self.spec.lambda_at(int(center_index)))[order]


class Terms:
    """c_n, |c_n| and lambda_n over the indices lo..radius, c_n evaluated
    once for a solve to slice its K_eps, windows and tail sums from, and the
    indices and lambda_n sliced from the spectrum's run.  radius
    reaches the head radius h; lo is -radius over Z, and over N the lower
    of 1 and the start (a tail sum counts from index 1).  tail is the c_n
    generator beyond the heads (coeffs.c_tail), None when they are all."""

    def __init__(self, spec, coeffs, radius, h=None):
        self.spec, self.coeffs, self.tail = spec, coeffs, coeffs.c_tail
        self.h = coeffs.head_radius() if h is None else h
        self.radius = max(radius, self.h)
        self.lo = -self.radius if spec.index_kind == INDEX_Z else min(1, spec.start)
        self.idx, self.lam = spec.lambda_run(self.lo, self.radius)
        self.c = coeffs.c_range(self.lo, self.radius)
        self.absc = np.abs(self.c)

    def lambda_at(self, n):
        return float(self.lam[n - self.lo])

    def tail_sum(self, radius):
        """Certified upper bound on sum_{|n| > radius} |c_n|: the evaluated
        |c_n| out to h, and the generator tail's bound beyond (0 at once
        from h on with no tail)."""
        total, zero, h = 0.0, -self.lo, self.h
        if radius >= h and self.tail is None:
            return total
        if radius < h:
            part = self.absc[zero + radius + 1 : zero + h + 1]
            if self.spec.index_kind == INDEX_Z:
                part = np.concatenate([self.absc[zero - h : zero - radius], part])
            if part.size:
                total += float(np.add.reduce(part))
        return total + self.coeffs.power_tail_sum(max(radius, h), self.spec.index_kind)

    def keps(self, eps):
        """(K_eps, K_eps_prime) as compute_Keps defines them, eps in range."""
        spec, h = self.spec, self.h
        # tail_sum(n) for n = 0..h - 1 is the sum of |c_k| over n < |k| <=
        # h, formed from the outside in, plus the generator tail beyond h
        # (tail_sum(h) alone), and K''s head sum is a slice of the same |c_n|
        zero, absc = -self.lo, self.absc
        shells = absc[zero + 1 : zero + h + 1]  # |c_k| (+ |c_-k| over Z), k = 1..h
        if spec.index_kind == INDEX_Z:
            shells = absc[zero - h : zero][::-1] + shells
        tail, beyond = self.tail_sum(h), np.add.accumulate(shells[::-1])[::-1]
        below = ((beyond + tail if tail else beyond) < eps).nonzero()[0]  # + 0.0 moves no comparison
        k_eps = int(below[0]) if len(below) else h if tail < eps else None
        if k_eps is None:
            # head exhausted: only the generator tail is left beyond h, and
            # its sum falls with the radius; bisect for the first radius below
            # eps, up to the largest window a solve can build
            small = lambda n: self.coeffs.power_tail_sum(n, spec.index_kind) < eps
            k_eps = h + 1 + bisect.bisect_left(range(h + 1, TRUNC_CAP + 1), True, key=small)
            if k_eps > TRUNC_CAP:
                raise errors.WindowExceeded(
                    f"K_eps exceeds {TRUNC_CAP}: the c_n beyond radius {TRUNC_CAP} sum to "
                    f"{self.tail_sum(TRUNC_CAP):.3g}, not below eps = {eps:.3g}"
                )
        first = spec.first_index(k_eps)
        if k_eps <= self.radius:
            inside = absc[first + zero : k_eps + zero + 1]
        else:  # K_eps beyond the head and the window evaluated
            inside = np.abs(self.coeffs.c_range(first, k_eps))
        head_sum = float(np.add.reduce(inside))
        if head_sum == 0.0:
            return k_eps, k_eps + 1
        d = spec.gap
        k_prime = k_eps + 1 + int(math.floor(head_sum / (eps * d)))
        while head_sum / ((k_prime - k_eps) * d) >= eps:
            k_prime += 1
        return k_eps, k_prime


def first_cut(spec, coeffs, window, n_trunc, eps):
    """(F, K', window) of a solve: the window widened to K' and F cut at
    max(n_trunc, window + TRUNC_MARGIN); Terms are evaluated no farther than
    TRUNC_CAP, and a cut beyond it raises WindowExceeded.  A power-tail c_n
    in the window with 0 < |c_n| < 2^-1022 raises DegenerateIndex (disks and
    Newton divide by it; beyond the window it adds about 0 to F)."""
    terms = Terms(spec, coeffs, min(max(n_trunc, window + TRUNC_MARGIN), TRUNC_CAP))
    _, k_prime = terms.keps(eps)
    window = max(window, k_prime)
    n_trunc = max(n_trunc, window + TRUNC_MARGIN)
    if n_trunc > TRUNC_CAP:
        raise errors.WindowExceeded(
            f"summation window {n_trunc} (window {window}, K' = {k_prime}) exceeds {TRUNC_CAP}"
        )
    cf = CharacteristicFunction.cut(terms, n_trunc)
    if terms.tail is not None:  # the rule validate_coefficients applies to the heads
        absc = np.abs(cf.c[win := cf.window(window)])
        if (tiny := (absc > 0.0) & (absc < 2.0**-1022)).any():
            n = int(cf.idx[win][tiny.argmax()])
            raise errors.DegenerateIndex(f"0 < |c_n| < 2^-1022 at tail index {n}: rescale the input")
    return cf, k_prime, window


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
    return Terms(spec, coeffs, 0).keps(eps)
