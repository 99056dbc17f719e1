"""Direct spectral problem: locate all eigenvalues of the perturbation.

Every count of zeros is a proof: the paper's Rouche inequality on the
per-index disks and the central rectangle (or, with no tail, F's degree),
and a verified arc walk (Ying & Katz's reliable argument principle) on the
order circles of the zeros the disks leave; Newton iteration in pole-shifted coordinates polishes the
zeros.  The localization follows the enclosure sigma(B) subset Q_{K'}
union (disks of radius d/2 around the outer indices |n| > K').  The disk
around each perturbed index (and each outer one, with a tail) is checked
by Rouche against its local pole model G_k = beta_k + c_k / (lambda_k -
z), F with the other terms expanded to first order about lambda_k, in
closed form and for all disks in one broadcast; an outer disk keeps radius
d/2, as in the paper's proof of the enclosure, and a central one takes the
radius that suits its own model.  With a tail the central rectangle Q_{K'}
is checked by the same inequality against 1; with none the zeros number
|I1|, the degree of F prod_{I1} (lambda_n - z).  An outer disk must
certify; a central one that does not is left to the eigen-seeds.  One
Newton pass, one kernel call a step, then polishes every simple zero: each
certified disk's from the root w_k of its local model taken one order
further, beta_k w + beta'_k w^2 = c_k, about lambda_k; the rest from the
eigenvalues of one diagonal-plus-rank-one matrix over the uncertified
indices, with every other zero divided out of F (a deflated secular
equation).  A disk whose zero fails raises; each zero left in the
rectangle starts on a small circle of its own, clear of the certified
disks, all circles walked together, and one whose circle does not count
its order joins its nearest until every circle certifies: the circles'
counts alone group the multiple zeros.  A solve whose disks all certify
(the common case) runs no eigenvalue problem, arc walk or assignment;
README times its stages.
"""

import bisect
from collections import namedtuple
import contextvars
from dataclasses import dataclass
import functools
import math
from typing import ClassVar

import numpy as np

from . import errors, _kernels
# compute_Keps is unused here but stays importable: perfbench/tracing.py wraps it here
from .charfn import CharacteristicFunction, compute_Keps, first_cut
from .model import (
    INDEX_Z,
    ORIGIN_BOTH,
    ORIGIN_COMMON,
    ORIGIN_ZERO,
    PerturbedSpectrum,
)

ARC_START = 32  # equal arcs each circle of the arc walk starts from
ARC_SPLITS = 16  # bisections of an arc before its circle counts as not certified
UNIT_ROUNDOFF = float(0.5 * np.finfo(float).eps)
# round-off scatters an order-m zero's roots within this times the radius
# (eta_j / |F^(m)/m!|)^(1/(m-j)) set by the noise eta_j of each F^(j)/j!
ROUNDOFF = 20.0
NEWTON_MAX_ITER = 80
# the floating-point state of a solve: a division by zero, an invalid
# operation or an overflow gives inf or NaN, which the checks read as a
# failure, with no warning; localize_spectrum enters it once a solve
FP_STATE = dict(divide="ignore", invalid="ignore", over="ignore")
_IN_SOLVE = contextvars.ContextVar("in_solve", default=False)
# the scalar operands of a solve's array arithmetic as 0-d arrays: a ufunc
# takes one at two thirds of the cost of a Python float, with the same loop
# and value, so to the bit
_ZERO, _ONE, _TWO, _FOUR, _TINY, _INF = (np.array(x) for x in (0.0, 1.0, 2.0, 4.0, 1e-16, math.inf))


def _quiet(body):
    """body as a solve's helper: run as it is inside a solve, which is in
    FP_STATE already, and in FP_STATE when called on its own."""

    @functools.wraps(body)
    def helper(*args, **kwargs):
        if _IN_SOLVE.get():
            return body(*args, **kwargs)
        with np.errstate(**FP_STATE):
            return body(*args, **kwargs)

    return helper


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


@dataclass(frozen=True)
class Rectangle:
    """re_lo < Re z < re_hi, |Im z| < h: Q_{K'} is symmetric about the real axis."""

    re_lo: float
    re_hi: float
    h: float

    def contains(self, z):
        """Whether each point lies strictly inside (a point or an array)."""
        inside_re = (self.re_lo < z.real) & (z.real < self.re_hi)
        return inside_re & (np.abs(z.imag) < self.h)


@dataclass
class ZeroReport:
    region: object
    region_index: object  # pairing index for disks, None for the rectangle
    certified: bool
    zeros: list  # of (location, order, residual |F| at the location)


@dataclass
class LocalizeOptions:
    window: int = 50
    n_trunc: int = 2000
    quad: ClassVar[int] = ARC_START  # not an option: the arcs an order circle starts from


@dataclass
class LocalizationResult:
    """The zeros of F in the enclosure, each where its certificate puts it.

    owned: the zero of each certified disk with c_k != 0, as (indices k,
    zeros) arrays; the disk pairs its zero with its own index.  central:
    the zeros the disks leave, as (location, order) sorted by location.
    rect, the central rectangle Q_{K'}, is formed on the first read (an
    easy solve's attempt reads none).  reports derives the disks around
    the window's outer indices |k| > K' from cf: centre lambda_k and the
    enclosure's radius d/2, as _disks takes them; with no tail the degree
    count (_localize_attempt), not Rouche, certifies those with c_k = 0.
    """

    owned: tuple
    central: list
    k_prime: int
    window: int
    eps: float
    tail_sum_bound: float  # sum_{|n|>window} |c_n|
    cf: CharacteristicFunction

    @functools.cached_property
    def rect(self):
        return _central_rectangle(self.cf.spec, self.k_prime, self.cf.spec.gap, self.cf.terms.lambda_at)

    @functools.cached_property
    @np.errstate(divide="ignore", invalid="ignore")
    def reports(self):
        """One ZeroReport per outer disk, in index order, then the central
        rectangle's with every other zero sorted by location; built on the
        first read and kept.  Each zero's residual is |F| at the reported,
        rounded location: evidence, not a certificate (inf where the zero
        rounded onto its pole)."""
        idx, zeros = (x.tolist() for x in self.owned)
        # |F| at the owned zeros, then at the central ones, in one kernel pass
        resid = _modulus(self.cf.values(np.array(zeros + [t[0] for t in self.central], dtype=complex))).tolist()
        found = {k: (z, 1, r) for k, z, r in zip(idx, zeros, resid)}
        win, radius = self.cf.window(self.window), 0.5 * self.cf.spec.gap
        outer = np.abs(self.cf.idx[win]) > self.k_prime
        reports = [
            ZeroReport(Disk(complex(l), radius), k, True, [found[k]] if k in found else [])
            for k, l in zip(self.cf.idx[win][outer].tolist(), self.cf.lam[win][outer].tolist())
        ]
        central = [found[k] for k in idx if abs(k) <= self.k_prime]
        central += [(z, m, r) for (z, m), r in zip(self.central, resid[len(idx) :])]
        central.sort(key=lambda t: (t[0].real, t[0].imag))
        return reports + [ZeroReport(self.rect, None, True, central)]

    def all_zeros(self):
        return [t for rep in self.reports for t in rep.zeros]


# ---------------------------------------------------------------------------
# Rouche certificates of the per-index disks and the central rectangle


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), with m u capped at 1/2 (gamma =
    1): _holds's allowance."""
    mu = np.minimum(m * UNIT_ROUNDOFF, 0.5)
    return mu / (1.0 - mu)


def _holds(bound, slack, value, m, kappa, fails=False):
    """Whether (bound + gamma slack) (1 + gamma) < value (1 - gamma), gamma =
    _gamma(m + ceil(kappa)): every count's certificate.  With fails set,
    whether >= holds (neither, at a NaN).

    A check claims B < V: B the exact bound on |F - G| that bound rounds, V
    the exact least |G| that value rounds, G the model F is compared with.
    gamma_k bounds the relative error of k roundings (Higham 2002), and a
    difference of rounded x and y costs ceil(kappa) more, kappa = (|x| +
    |y|) / |x - y|; a check's tally m + ceil(kappa) is at least the count of
    each quantity it forms, its comparison included.  Sums that may cancel
    (beta_k, the a_j) are off by e in bound and e' in value, e + e' <=
    gamma slack (1 + gamma), slack the rounded sum of their terms' moduli.
    So B <= bound (1 + gamma) + e and V >= value (1 - gamma) - e', and the
    check gives B < V.  At the cap gamma = 1 and no check passes, as
    none does with the true gamma_m >= 1, nor may past m u = 1, where there
    is none."""
    gamma = _gamma(m + np.ceil(kappa))
    lhs, rhs = (bound + gamma * slack) * (1.0 + gamma), value * (1.0 - gamma)
    return lhs >= rhs if fails else lhs < rhs


@_quiet
def _rouche(cf, idx, lam, c, r, shrink):
    """Rouche margins min |G_k| - S_k on the circles |z - lambda_k| = rho_k
    around the indices idx (lambda_k = lam, c_k = c), whether each certifies
    its disk, and the local model (beta_k, beta'_k, rho_k): arrays over the
    disks, the margins from a function that forms them on a call, since
    only a failure message reads them.

    G_k = beta_k + c_k / (lambda_k - z) is F with every other term expanded
    to first order about lambda_k: beta_k = 1 + sum_{n != k} c_n / (lambda_n
    - lambda_k).  On the circle min |G_k| = |beta_k| - |c_k| / rho_k, and
    |F - G_k| <= S_k = sum_{n != k} |c_n| rho_k / (D_n (D_n - rho_k)) + T /
    (delta_k - rho_k), with D_n = |lambda_n - lambda_k| and the tail term
    T / (delta_k - rho_k) cf.tail_bound_at(lambda_k, rho_k), inf where
    delta_k <= rho_k.  When S_k < min |G_k|, F has as many zeros as
    poles inside, like G_k: one zero when c_k != 0, about lambda_k + c_k /
    beta_k, and none when c_k = 0.  As |beta_k| >= 1 - sum |c_n| / D_n, a
    disk that passes against 1 + c_k / (lambda_k - z) passes here too.  The
    margin is -inf unless |c_k| < rho_k |beta_k| (G_k's zero lies inside),
    every D_n > rho_k for n != k and, with a tail, delta_k > rho_k.

    The next order's coefficient, beta'_k = sum_{n != k} c_n / (lambda_n -
    lambda_k)^2, comes from the same reciprocals; it seeds Newton (_disks),
    and the certificate does not use it.

    rho_k is r, or where shrink is set min(r, (|c_k| / S0_k)^(1/2)) with
    S0_k = sum_{n != k} |c_n| / D_n^2: the radius that maximises |beta_k| -
    |c_k| / rho - rho S0_k, the margin with S_k cut to its first order in
    rho.  S_k grows at least as fast as rho S0_k, so no radius between that
    one and r has a larger margin.

    The check is _holds(S_k + |c_k| / rho_k, 1 + sum_{n != k} |c_n| / D_n,
    |beta_k|, |I1| + 23, kappa_S) (beta_k: 3 roundings a term's component,
    a sum one a term, the 1 one).  Each term of S_k carries 7 roundings and
    ceil(kappa_S) for the cancellation in D_n - rho_k (kappa_S = D_n / that
    difference), their sum one a term and the factor rho_k one, the tail
    term 3, |c_k| / rho_k 3, |beta_k| 2, the sums and the comparison 5, and
    kappa_S in floats 2.  The sums over the terms are matrix-vector
    products: the bounds hold in any order of summation.

    One allowance serves every disk of a call: kappa_S the largest among
    the disks that pass the preconditions (1 if none does), so gamma is no
    smaller than any of those disks' own; a disk that fails the
    preconditions fails whatever its allowance.  kappa_S is looked up, not
    assumed: d-separation would bound it by 2, but floats collapse the
    spacing of lambda_n = n + 1e17, which the validators accept.  The disks
    are checked in blocks of _kernels._CHUNK disks x terms, the kernel's
    chunk (_rouche_block); a call that one block covers takes that block's
    arrays as they are.
    """
    absc, absc_k = np.abs(cf.c1), np.abs(c)
    # columns Re c_n, Im c_n, |c_n|: beta_k from the first two, beta'_k and
    # S0_k from one product over all three
    cols = np.concatenate([cf.c1.view(float).reshape(-1, 2), absc[:, np.newaxis]], axis=1)
    per_block = max(1, _kernels._CHUNK // max(1, len(absc)))
    work = [None] * 4
    if len(idx) <= per_block:
        beta, slope, rho, size, nearest, s = _rouche_block(cf, cols, absc, idx, lam, absc_k, r, shrink, work)
    else:
        blocks = [
            _rouche_block(cf, cols, absc, idx[b], lam[b], absc_k[b], r, shrink[b], work)
            for b in (slice(i, i + per_block) for i in range(0, len(idx), per_block))
        ]
        beta, slope, rho, size, nearest, s = map(np.concatenate, zip(*blocks))
    ok = nearest > _ZERO
    if cf.has_tail:
        tail = cf.tail_bound_at(lam, rho)
        ok &= tail < math.inf
        s += tail
    # the largest kappa_S of the disks that pass the preconditions
    kappa_s = 1.0 + np.maximum.reduce(rho / nearest, where=ok, initial=0.0)
    pole = absc_k / rho
    modulus = np.hypot(beta.real, beta.imag)  # _modulus
    certified = ok & _holds(s + pole, _ONE + size, modulus, len(absc) + 23.0, kappa_s)

    def margin():
        with np.errstate(invalid="ignore"):
            return np.where(ok & (pole < modulus), modulus - pole - s, -np.inf)

    return margin, certified, (beta, slope, rho)


def _rouche_block(cf, cols, absc, idx, lam, absc_k, r, shrink, work):
    """_rouche's sums over one block of disks, cols and absc its columns of
    c_n and |c_n|: (beta_k, beta'_k, rho_k, sum_{n != k} |c_n| / D_n,
    min_n (D_n - rho_k) and S_k without its tail term).

    work holds the last block's four block-sized arrays, which this block's
    replace one by one as it forms them, so that each new array takes the
    memory the last one freed: formed with all of the last block's alive,
    or after all were freed, the blocks made _rouche at windows 200 to 400
    a sixth to a quarter slower."""
    work[0] = diff = cf.lam1 - lam[:, np.newaxis]
    diff[cf.idx1 == idx[:, np.newaxis]] = np.inf  # the k-th term is G_k's
    work[1] = recip = np.reciprocal(diff)  # 1.0 / diff to the bit, with no scalar operand
    beta = _ONE + (recip @ cols[:, :2]).view(complex)[:, 0]
    # the block-sized squares are freed at once: one more block-sized
    # array alive made _rouche a third slower at window 400
    second = (recip * recip) @ cols
    # an S0_k that has nearly underflowed (|c_n| near 2^-1022) gives
    # |c_k| / S0_k = inf (FP_STATE ignores the overflow), and fmin(r, inf) = r
    rho = np.where(shrink, np.fmin(r, np.sqrt(absc_k / second[:, 2])), r)
    work[2] = inv = np.abs(recip)
    work[3] = den = np.abs(diff) - rho[:, np.newaxis]
    nearest = np.minimum.reduce(den, axis=1, initial=np.inf)
    return beta, second[:, :2].view(complex)[:, 0], rho, inv @ absc, nearest, rho * ((inv / den) @ absc)


def _pole_distance_to_rect(rect, poles):
    """Distance from each real pole to the boundary of a rectangle that
    straddles the real axis: to the nearer vertical side from outside its
    real range, to the nearest side from inside.  The signed distance to
    the nearer vertical side, min(pole - re_lo, re_hi - pole), is positive
    exactly inside the real range (a float difference is 0 only between
    equal floats), and its modulus is the distance to that side either
    way (the rounded differences keep their order)."""
    side = np.minimum(poles - rect.re_lo, rect.re_hi - poles)
    dist = np.abs(side)
    return np.minimum(dist, rect.h, out=dist, where=side > 0.0)


def _rouche_rect(cf, rect):
    """Rouche margin 1 - S_Q on the boundary of the central rectangle, and
    whether it certifies that F has as many zeros as poles inside.

    On the boundary |F - 1| <= S_Q = sum_n |c_n| / dist(lambda_n, boundary)
    + T / delta_Q, the larger cf.tail_bound_at at the two real ends, which
    lie between the poles that bound the window: delta is exact there, and
    the larger bound is T / min delta to the bit.  When S_Q < 1, F winds
    around 0 as 1 does: zeros minus poles inside is 0.  K_eps and K' give 1
    - S_Q > eps / (2 (K' - K_eps) + 1), as on the outer circles.  The check
    is _holds(S_Q, 0, 1, |I1| + 12, kappa): |G| = 1 is exact, and kappa =
    (|lambda_n| + |edge|) / dist for the cancellation in each pole's
    distance to the boundary, edge the farther real end.
    """
    dist = _pole_distance_to_rect(rect, cf.lam1)
    if np.count_nonzero(dist) < len(dist):  # a pole on the boundary: S_Q is infinite
        return -math.inf, False
    s = float(np.add.reduce(np.abs(cf.c1) / dist))
    if cf.has_tail:
        s += float(max(cf.tail_bound_at(rect.re_lo), cf.tail_bound_at(rect.re_hi)))
    edge = max(abs(rect.re_lo), abs(rect.re_hi))
    kappa = np.maximum.reduce((np.abs(cf.lam1) + edge) / dist, initial=0.0)
    return 1.0 - s, bool(_holds(s, 0.0, 1.0, len(cf.c1) + 12.0, kappa))


# ---------------------------------------------------------------------------
# verified arc walk: zeros minus poles inside a circle


@_quiet
def _arc_test(cf, w, shift, rho, p):
    """Ying & Katz's test of the arcs from the nodes z = shift + w with
    chords rho: (a_0, passed, hopeless), arrays over the arcs.

    With a_j = F^(j)(z)/j! (F cut to the window) and D_n = |lambda_n - z|,
    |F - a_0| <= S = sum_{1<=j<=p} |a_j| rho^j + sum_n |c_n| (rho/D_n)^(p+1)
    / (D_n - rho) + b_rho within rho of z (Taylor terms, each pole term's
    remainder, the tail term b_rho = T / (delta - rho) =
    cf.tail_bound_at(z, rho)), so S < |a_0| keeps F off 0 there, when D_n
    and delta exceed rho (b_rho is inf otherwise).  The check is _holds(S,
    B, |a_0|, m, kappa_g (kappa_d + 6)), the a_j's rounding relative to B =
    sum_n |c_n| / (D_n - rho) (times rho^j it sums to at most gamma B).  m
    = 2 |I1| + 2 (p + 1) (kappa_d + 12) + 12 counts 12 roundings a complex
    quotient and ceil(kappa_d) a power for the cancellation in (lambda_n -
    shift) - w (kappa_d = 2 + |w| / D_n), two a term for the sums, and 12
    for |a_0|, rho^j and the comparison; kappa_g (kappa_d + 6) counts D_n -
    rho and delta - rho, kappa_g the larger of (D + rho) / (D - rho) and
    (delta + rho) / (delta - rho), tail_bound_at's factor.

    hopeless marks a failed arc whose node is at the floor: the check's
    limit as rho -> 0 fails, _holds(b_0, B_0, |a_0|, m, kappa_0, fails=True),
    with b_0 = T / delta, kappa_0 = kappa_d + 6 (kappa_g = 1) and B_0 =
    sum_n |c_n| / D_n >= B (1 - rho / min D_n).  S exceeds b_0 + gamma B_0
    and kappa_g kappa_0 >= kappa_0 at every chord, so no arc from that node
    passes, however short.  It is formed only when some arc fails.
    """
    a, (b, rem, nearest) = cf.taylor(w, p, shift, rho)
    ok = nearest > rho
    kappa_g = (nearest + rho) / (nearest - rho)
    s = (np.abs(a[1:]) * rho ** np.arange(1, p + 1)[:, np.newaxis]).sum(axis=0) + rem
    if cf.has_tail:
        tail, factor = cf.tail_bound_at(shift + w, rho, factor=True)
        ok &= tail < math.inf
        s += tail
        kappa_g = np.maximum(kappa_g, factor)
    kappa_d = np.ceil(2.0 + _modulus(w) / nearest)
    m, kappa_0 = 2 * len(cf.c1) + 2 * (p + 1) * (kappa_d + 12) + 12, kappa_d + 6
    a0 = _modulus(a[0])
    passed = ok & _holds(s, b, a0, m, kappa_g * kappa_0)
    hopeless = ~passed
    if hopeless.any():
        size = np.where(ok, b * (1.0 - rho / nearest), 0.0)  # at most B_0
        tail0 = cf.tail_bound_at(shift + w) if cf.has_tail else 0.0  # b_0
        hopeless &= _holds(tail0, size, a0, m, kappa_0, fails=True)
    return a[0], passed, hopeless


def _arc_walk(cf, centers, radii, p, arcs=ARC_START):
    """Zeros minus poles of F inside each circle |z - center| = radius by
    Ying & Katz's (1988) reliable argument principle: a list of counts,
    None for a circle not certified.

    Each circle starts as `arcs` equal arcs, its nodes shifted by the window
    eigenvalue nearest its centre.  An arc passes _arc_test at its first
    node, its chord for rho (the disk of radius rho there holds the arc and
    the chord); one that fails is bisected, ARC_SPLITS times at most.  Each
    split keeps a first half from the same node, so an arc that fails at a
    node where the check's limit as rho -> 0 already fails (_arc_test's
    hopeless) fails its circle at once: no split of it could pass.  When
    all pass, F(z_next) / a_0 and F(z_next) / a_0_next both have positive
    real parts, so F's argument changes along each arc by the principal
    arg(a_0_next / a_0): their sum over 2 pi is the count.  One p serves
    every circle, as |a_p| rho^p plus the remainder at p is at most the
    remainder at p - 1.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=complex))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape)
    shift = _shift(cf, centers)
    n = len(centers)
    if not n:
        return []
    j = np.arange(n * arcs)
    k, t0, dt = j // arcs, j % arcs / arcs, 1.0 / arcs
    w0 = (centers - shift)[k] + radii[k] * np.exp(2j * np.pi * t0)
    w1 = w0.reshape(n, arcs)[:, np.arange(1, arcs + 1) % arcs].ravel()  # where the next arc starts
    passed, failed = [], np.zeros(n, dtype=bool)  # (circle, start, a_0) of the arcs that passed
    for split in range(ARC_SPLITS + 1):
        rho = _modulus(w1 - w0)
        a0, ok, hopeless = _arc_test(cf, w0, shift[k], rho, p)
        passed.append((k[ok], t0[ok], a0[ok]))
        failed[k[hopeless]] = True
        bad = ~ok & ~failed[k]
        if not bad.any() or split == ARC_SPLITS:
            failed[k[bad]] = True
            break
        k, t0, w0, w1, dt = k[bad], t0[bad], w0[bad], w1[bad], 0.5 * dt  # arcs of one length
        wm = (centers - shift)[k] + radii[k] * np.exp(2j * np.pi * (t0 + dt))
        k, t0 = np.tile(k, 2), np.concatenate([t0, t0 + dt])
        w0, w1 = np.concatenate([w0, wm]), np.concatenate([wm, w1])
    k, t0, a0 = (np.concatenate(x) for x in zip(*passed))
    order = np.lexsort((t0, k))
    k, a0 = k[order], a0[order]
    ratio = np.concatenate([a0[1:], a0[:1]]) * np.conj(a0)
    turn = np.arctan2(ratio.imag, ratio.real)
    last = np.concatenate([k[1:] != k[:-1], [True]])[: len(k)]  # a circle's last arc ends at its first node
    ratio = a0[np.searchsorted(k, k[last])] * np.conj(a0[last])
    turn[last] = np.arctan2(ratio.imag, ratio.real)
    turns = np.bincount(k, turn, minlength=n) / (2.0 * np.pi)
    return [None if bad else int(np.rint(x)) for x, bad in zip(turns, failed)]


Winding = namedtuple("Winding", "count certified")  # count 0 when not certified


def winding_number(cf, region, quadrature_points):
    """Zeros minus poles of F inside a Disk, by _arc_walk on that circle
    alone from quadrature_points arcs (3 or more) at p = 3; a circle through
    a represented pole is not certified, as every arc reaching it fails."""
    (count,) = _arc_walk(cf, region.center, region.radius, 3, max(3, int(quadrature_points)))
    return Winding(0 if count is None else count, count is not None)


# ---------------------------------------------------------------------------
# Newton refinement (in pole-shifted coordinates)


def _nearest(values, z):
    """The entry of an ascending real array nearest each point (ties to the lower)."""
    j = np.searchsorted(values, z.real)
    lo, hi = values[np.maximum(j - 1, 0)], values[np.minimum(j, len(values) - 1)]
    return np.where(np.abs(hi - z) < np.abs(lo - z), hi, lo)


def _shift(cf, z):
    """The window eigenvalue nearest each point, the shift of Newton's coordinates (0 if none)."""
    return _nearest(cf.lam, z) if len(cf.lam) else np.zeros(len(z))


def _modulus(z):
    """|z| as hypot(re, im): to the last bit the abs() of one complex number,
    which np.abs on a complex array is not."""
    return np.hypot(z.real, z.imag)


def _noise(cf, z, orders):
    """eta_j = 1e-15 ([j = 0] + sum |c_n| / |lambda_n - z|^(j+1)), the
    round-off noise of F^(j)(z)/j!: an array over the points z by the orders j."""
    dist = np.maximum(np.abs(cf.lam1 - z[:, np.newaxis]), 1e-300)
    j = np.asarray(orders)
    terms = np.abs(cf.c1) / dist[:, np.newaxis] ** (j[:, np.newaxis] + 1)
    return 1e-15 * ((j == 0) + terms.sum(axis=-1))


@_quiet
def _newton(cf, seeds, order, shift=None):
    """Newton on F^(order-1) from every seed at once: (locations, converged
    mask), arrays over the seeds, each location where its last step landed.

    Each point runs in coordinates shifted by the window eigenvalue nearest
    its seed, or by shift (one per seed, the seeds then offsets from it),
    and each step makes one kernel call for the points still moving; no
    point's steps depend on the others.  Its step sizes alone decide, by
    three rules.  It converges when a step falls below 1e-16 (1 + |shift|
    + |w|).  It fails when a step is not below ten times the last one plus
    1 (divergence), as a step that is not finite never is (on a pole, or
    where F^(order) is 0).  It settles, and is accepted, when a step no
    smaller than the last is within the round-off floor: ROUNDOFF times the
    noise of F^(order-1) (_noise) over |F^(order)| at the point the step
    was taken from, the step that round-off alone makes.  Only a step that
    did not shrink (or is NaN) can diverge or settle, so an iteration in
    which every step shrank tests neither.  A point still moving after
    NEWTON_MAX_ITER steps fails.  The steps read F and its derivative from
    the kernel's rows directly: from poles lambda_n - shift formed once a
    pass, with c_n as a column (_kernels.pole_taylor), when one kernel chunk
    holds them, else through _kernels.taylor.  No kernel call follows the
    last step.
    """
    w = np.array(seeds, dtype=complex, ndmin=1)  # a copy: the steps write to it
    if shift is None:
        shift = _shift(cf, w)
        w = w - shift
    deriv = order - 1
    # F^(deriv) and F^(order) are the kernel's rows deriv and order times
    # the factorials, plus F's leading 1 at deriv 0
    fac, fac1 = math.factorial(deriv), math.factorial(order)
    failed = np.zeros(len(w), dtype=bool)
    # the points still moving: positions, offsets w, scales 1 + |shift|, the
    # size of each one's last step (inf before the first) and, when one
    # kernel chunk holds them, their poles lambda_n - shift, taken in C order
    # (fancy indexing gives columns the kernel sums pairwise).  A mask's
    # bytes are 0 and 1, so a byte search tests it for a True or a False at
    # a fifth of the cost of count_nonzero, itself a third of ndarray.any's
    live, wl, scale, last = np.arange(len(w)), w, _ONE + np.abs(shift), _INF
    c1, lam1 = cf.c1[:, np.newaxis], cf.lam1
    poles = lam1[:, np.newaxis] - shift if len(lam1) * len(w) <= _kernels._CHUNK else None
    for _ in range(NEWTON_MAX_ITER):
        if not len(live):
            break
        if poles is None:
            rows = _kernels.taylor(cf.c1, lam1, wl, order, shift[live])
        else:
            rows = _kernels.pole_taylor(c1, poles, wl, order)
        if deriv:
            g, gp = fac * rows[deriv], fac1 * rows[order]
        else:
            g, gp = _ONE + rows[0], rows[1]
        step = g / gp
        start, wl = wl, wl - step
        size = np.hypot(step.real, step.imag)  # _modulus
        done = size < _TINY * (scale + np.hypot(wl.real, wl.imag))
        # only a step that did not shrink (or is NaN) can diverge or settle;
        # a step not below ten times the last plus 1 diverged, an infinite
        # first step too
        diverged = None
        if 0 in (size < last).tobytes():
            diverged = ~(done | (size < 10.0 * (last + 1.0)))
            settle = ~(size < last) & ~(done | diverged)
            if np.count_nonzero(settle):
                noise = fac * _noise(cf, shift[live[settle]] + start[settle], [deriv])[:, 0]
                done[settle] = size[settle] <= ROUNDOFF * noise / _modulus(gp[settle])
        last = size
        stop = done if diverged is None else done | diverged
        stops = stop.tobytes()
        if 1 in stops:
            if diverged is not None:
                failed[live[diverged]] = True
            w[live] = wl  # a point still moving writes its entry again when it stops
            if 0 not in stops:
                break
            # positions index the arrays at half a mask's cost
            move = (~stop).nonzero()[0]
            live, wl, scale, last = live[move], wl[move], scale[move], last[move]
            if poles is not None:
                poles = poles.take(move, axis=1)
    else:  # still moving after NEWTON_MAX_ITER steps
        w[live] = wl
        failed[live] = True
    return shift + w, ~failed


# ---------------------------------------------------------------------------
# central zeros from the window's diagonal-plus-rank-one eigenvalues


def _clearance(z, disks):
    """Distance from each point to the nearest of the disks, given as
    (centres, radii) (inf if none)."""
    centres, radii = disks
    return (np.abs(z[:, np.newaxis] - centres) - radii).min(axis=1, initial=np.inf)


def _nearest_pole(cf, z):
    """Distance from each point to the nearest represented pole (inf if none)."""
    poles = cf.lam[cf.c != 0]
    if len(poles) == 0:
        return np.full(len(z), np.inf)
    return np.abs(_nearest(poles, z) - z)


def _multiple_to_roundoff(cf, z, m):
    """Whether F has an order-m zero at z (one point, an array) to round-off,
    a claim and not a certificate: with a_j = F^(j)(z)/j! in _newton's
    shifted coordinates, a_m != 0 and, for every j < m, the spread |a_j /
    a_m|^(1/(m-j)) of the roots a_j sets is within the radius ROUNDOFF
    (eta_j / |a_m|)^(1/(m-j)) within which round-off of a_j scatters them,
    eta_j (_noise) the noise of a_j.  m roots scattered by round-off pass,
    separate clusters closer than F's value noise can resolve fail on a
    derivative."""
    shift = _shift(cf, z)
    a = np.abs(cf.taylor(z - shift, m, shift))[:, 0]
    if a[m] == 0.0:
        return False
    j = np.arange(m)
    spread = (a[:m] / a[m]) ** (1.0 / (m - j))
    radius = ROUNDOFF * (_noise(cf, z, j)[0] / a[m]) ** (1.0 / (m - j))
    return not np.any(spread > radius)


def _try_multiple(cf, seed, m):
    """An order-m zero polished from a group's seed: (location, m) or
    None.  Newton runs on F^(m-1), and _multiple_to_roundoff accepts the
    polished point; the caller certifies the order by the arc walk."""
    z, ok = _newton(cf, [seed], m)
    if not ok[0] or not _multiple_to_roundoff(cf, z, m):
        return None
    return z[0], m


def _hard_seeds(lam, c, lam_k, mu_k):
    """Seeds of the zeros of F near the poles lam (coefficients c) whose
    disks Rouche did not certify, with the other terms' zeros mu_k (about
    their poles lam_k) divided out: one seed per pole.

    F cut to its terms is the product of (mu_n - z) / (lambda_n - z), so
    dividing out the others' factors leaves 1 + sum c~_n / (lambda_n - z)
    over the poles lam, with the residues c~_n = c_n prod_k (lambda_k -
    lambda_n) / (mu_k - lambda_n).  Its zeros are the eigenvalues of
    diag(lam) + c~ 1^T (Golub's secular equation, deflated as Bunch,
    Nielsen & Sorensen deflate it); with the mu_k only near their zeros,
    the eigenvalues are near the zeros left.
    """
    lam_n = lam[:, np.newaxis]
    c = c * np.prod((lam_k - lam_n) / (mu_k - lam_n), axis=1)
    return np.linalg.eigvals(np.diag(lam.astype(complex)) + c[:, np.newaxis])


def _central_zeros(cf, rect, seeds, polished, n_zeros, d, disks):
    """The zeros of F in the central rectangle outside the certified disks,
    given as (centres, radii), which hold n_zeros of them, as (location,
    order) sorted by location.

    polished is _newton's (locations, converged) from the seeds;
    a seed it did not polish (as near a multiple zero) is kept as it is.
    The points inside the rectangle and outside the disks must number
    n_zeros, and each starts as a group of its own, with its polished point
    as a simple zero, or none.  Each group's order is certified on its own
    circle, all circles in one _arc_walk at p = (largest order) + 2.  A
    circle's radius is at most d/4, a third of the distance to the next
    zero, and half the distance to the rectangle's boundary and to each
    disk, so the circles are disjoint from each other and from the disks
    and lie inside the rectangle; a pole nearer than twice the radius but
    not within half of it shrinks the radius to half its distance, so every
    pole keeps at least half the radius clear of the circle.  Each group
    with no zero, or whose circle does not count its order, joins its
    nearest group, the joins chaining, and the walk runs again, until every
    circle certifies.  A group of m > 1 takes the order-m zero
    _try_multiple polishes from its points' mean, which must lie inside the
    rectangle and outside the disks.  A failure with no other group left to
    join, and a rejected group, raise CertificationFailed, naming after a
    merge the first circle that failed.  Once every circle certifies, an
    order-m zero whose circle holds a retained eigenvalue lambda_n (c_n = 0)
    moves onto it if _multiple_to_roundoff passes there at order m.
    """
    z, ok = polished
    disks = tuple(np.asarray(x, dtype=float) for x in disks)

    def keep(p):  # inside the rectangle, outside the disks
        return rect.contains(p) & (_clearance(p, disks) > 0.0)

    points = np.where(ok, z, seeds)
    kept = keep(points)
    points, ok = points[kept], ok[kept]
    if len(points) != n_zeros:
        raise errors.CertificationFailed(
            f"central zeros of total order {len(points)} found, the rectangle holds {n_zeros}"
        )
    # (members, zero or None) per group
    groups = [([i], (complex(points[i]), 1) if ok[i] else None) for i in range(len(points))]
    after = ""  # names the first circle that failed, once groups have merged
    while True:
        # the groups in order of location: each one's zero or, with none, its points' mean
        where = np.array([points[g].mean() if t is None else t[0] for g, t in groups], dtype=complex)
        order = np.lexsort((where.imag, where.real))
        groups, where = [groups[i] for i in order], where[order]
        failed = {
            i: f"no zero of order 1 found near {where[i]:.6g}" for i, (_, t) in enumerate(groups) if t is None
        }
        live = [i for i, (_, t) in enumerate(groups) if t is not None]
        zeros = [groups[i][1] for i in live]
        z = where[live]
        sep = np.abs(z[:, np.newaxis] - z)
        np.fill_diagonal(sep, np.inf)
        sep = sep.min(axis=1, initial=np.inf)
        edge = [z.real - rect.re_lo, rect.re_hi - z.real, rect.h - np.abs(z.imag)]
        clear = np.minimum.reduce(edge + [_clearance(z, disks)])  # to the rectangle's boundary and the disks
        radius = np.minimum(np.minimum(0.25 * d, sep / 3.0), 0.5 * clear)
        pole = _nearest_pole(cf, z)
        radius = np.where(pole > 0.5 * radius, np.minimum(radius, 0.5 * pole), radius)
        counts = _arc_walk(cf, z, radius, max((m for _, m in zeros), default=0) + 2)
        for i, (z0, m), rad, inside, count in zip(live, zeros, radius, pole < radius, counts):
            count = None if count is None else count + int(inside)
            if count != m:
                got = "could not be certified" if count is None else f"counts {count} zeros"
                failed[i] = (
                    f"order winding on radius {rad:.3g} around the central zero {z0:.6g} {got}, expected {m}"
                )
        if not failed:
            # a circle (radius at most d/4) can hold one retained eigenvalue
            # (c_n = 0) at most: the first one right of its left end
            retained = cf.lam[cf.c == 0].tolist()
            for i, (z0, m) in enumerate(zeros):
                k = bisect.bisect_left(retained, z0.real - radius[i])
                at = np.array(retained[k : k + 1])
                if len(at) and abs(at[0] - z0) < radius[i] and _multiple_to_roundoff(cf, at, m):
                    zeros[i] = (complex(at[0]), m)
            zeros.sort(key=lambda t: (t[0].real, t[0].imag))
            return zeros
        first = failed[min(failed)]
        if len(groups) == 1:
            raise errors.CertificationFailed(first + after)
        after = after or f", after {first}"
        # each failing group joins the group nearest it, and the joins chain
        dist = np.abs(where[:, np.newaxis] - where)
        np.fill_diagonal(dist, np.inf)
        label = list(range(len(groups)))
        for i in failed:
            old, new = label[i], label[int(dist[i].argmin())]
            label = [new if x == old else x for x in label]
        merged = {}
        for x, group in zip(label, groups):
            merged.setdefault(x, []).append(group)
        groups = []
        for parts in merged.values():
            if len(parts) == 1:
                groups += parts
                continue
            g = sorted(i for members, _ in parts for i in members)
            seed = complex(points[g].mean())
            got = _try_multiple(cf, seed, len(g))
            if got is None or not keep(np.array([got[0]]))[0]:
                raise errors.CertificationFailed(f"no zero of order {len(g)} found near {seed:.6g}{after}")
            groups.append((g, got))


# ---------------------------------------------------------------------------
# top-level localization


def _central_rectangle(spec, k_prime, d, lambda_at):
    """Q_{K'}, its real ends from lambda_at (the solve's cf.terms.lambda_at)."""
    if spec.index_kind == INDEX_Z:
        lo = lambda_at(-k_prime) - 0.5 * d
        hi = lambda_at(k_prime) + 0.5 * d
    elif k_prime < spec.start:
        # no central index: every pole has its own disk, and no zero lies
        # outside them; a pole-free box just left of the first disk
        lam_s = lambda_at(spec.start)
        lo, hi = lam_s - 1.5 * d, lam_s - 0.5 * d
    else:
        # no outer disks lie left of lambda_start: reach as far left of it as
        # lambda_{K'} lies right, so every point outside is (K' - K_eps) d or
        # more from the head poles, as the enclosure needs
        lam_s = lambda_at(spec.start)
        lam_k = lambda_at(k_prime)
        lo = min(lam_s, 2.0 * lam_s - lam_k) - 0.5 * d
        hi = lam_k + 0.5 * d
    # the imaginary half-height mirrors the larger end of the real range,
    # and is at least d/2 so that the contour keeps clear of the real axis
    h = max(abs(lo), abs(hi), 0.5 * d)
    return Rectangle(lo, hi, h)


@_quiet
def _disks(cf, k_prime, window, d):
    """The disks R_k around the window's I1 indices and, with a tail, its
    outer indices |k| > K' (with none the degree counts, _localize_attempt),
    sliced from cf, as two sets: the owned disks, those that hold a simple
    zero (certified, c_k != 0), as (indices k, centres lambda_k, Newton
    seeds w_k about lambda_k, radii rho_k), and the hard poles, those whose
    disk does not certify, as (lambda_k, c_k).

    Every disk is checked against its local pole model, in one broadcast
    (_rouche): a certified disk holds one simple zero when c_k != 0 and
    none when c_k = 0.  An outer disk keeps radius d/2, the enclosure's;
    compute_Keps chooses K' so that the margin exceeds eps / (2 (K' - K_eps)
    + 1) on every outer circle, far above the check's rounding allowance,
    so an outer disk that Rouche does not certify raises CertificationFailed
    naming its margin.  A central disk takes the radius of its own that
    _rouche chooses (at most d/2), and one that does not certify leaves its
    zero to the eigen-seeds (_hard_seeds).  Near lambda_k, F(lambda_k + w)
    is about beta_k - c_k / w + beta'_k w (_rouche's beta'_k), so a
    certified disk's zero is about lambda_k + w_k with beta_k w_k + beta'_k
    w_k^2 = c_k: w_k = 2 c_k / (beta_k + sqrt(beta_k^2 + 4 beta'_k c_k)),
    the root nearest c_k / beta_k, with the square root's sign that gives
    the larger denominator (Re(beta_k conj(root)) >= 0).  The quadratic
    removes the first-order seed's error, about beta'_k c_k^2 / beta_k^3.
    w_k is formed for the owned disks alone, and there it is finite: that
    sign makes |beta_k + root|^2 >= |beta_k|^2 + |root|^2, and Rouche holds
    |c_k| < rho_k |beta_k|, so |w_k| < 2 rho_k.
    """
    win = cf.window(window)
    idx, lam, c = cf.idx[win], cf.lam[win], cf.c[win]
    # with a tail every outer disk and the central ones with c_k != 0, with
    # none the nonzero c_k alone
    has_tail = cf.has_tail
    keep = ((np.abs(idx) > k_prime) | (c != 0) if has_tail else c).nonzero()[0]
    idx, lam, c = idx[keep], lam[keep], c[keep]
    central = np.abs(idx) <= k_prime
    margin, certified, (beta, slope, rho) = _rouche(cf, idx, lam, c, 0.5 * d, central)
    hard = lam[:0], c[:0]
    if 0 in certified.tobytes():  # a byte search for a False in the mask (_newton)
        if np.count_nonzero(failed := ~(certified | central)):
            j = np.argmax(failed)
            raise errors.CertificationFailed(
                f"disk around index {idx[j]} failed to certify (Rouche margin {margin()[j]:.3g})"
            )
        hard = lam[~certified], c[~certified]
    # with no tail and no hard pole every disk is owned (the common case): no gather
    if has_tail or len(hard[0]):
        own = (certified & (c != 0)).nonzero()[0]
        idx, lam, c, beta, slope, rho = (x[own] for x in (idx, lam, c, beta, slope, rho))
    root = np.sqrt(beta * beta + _FOUR * slope * c)
    # |beta + root| >= |beta - root|: root[flip] *= -1.0 in one call
    np.multiply(root, -1.0, out=root, where=(beta * root.conj()).real < _ZERO)
    return (idx, lam, _TWO * c / (beta + root), rho), hard


def localize_spectrum(spec, coeffs, opts=None):
    """Locate all zeros of F in the enclosure Q_{K'} union outer disks:
    K', the window and F's first cut come from charfn.first_cut, and each
    attempt that fails asks cf.next_cut for the next cut."""
    opts = opts or LocalizeOptions()
    d = spec.gap
    eps = d / (2.0 + d)
    cf, k_prime, window = first_cut(spec, coeffs, opts.window, opts.n_trunc, eps)
    # the whole solve in FP_STATE, its helpers entering no state of their own
    with np.errstate(**FP_STATE):
        solving = _IN_SOLVE.set(True)
        try:
            while True:
                try:
                    found = _localize_attempt(cf, k_prime, window, d)
                    break
                except errors.CertificationFailed as exc:
                    cf = cf.next_cut(exc)
        finally:
            _IN_SOLVE.reset(solving)
    return LocalizationResult(*found, k_prime, window, eps, cf.terms.tail_sum(window), cf)


def _localize_attempt(cf, k_prime, window, d):
    """(owned, central) of LocalizationResult from F cut to cf's window.  With
    no tail the owned disks and central circles hold the window's I1 zeros
    and the enclosure's outer disks one for each I1 index beyond: all |I1|
    zeros of F, so the rectangle and the c_k = 0 disks hold no other, and
    an attempt whose disks all certify forms no rectangle."""
    (own, lam, w, rho), (lam_h, c_h) = _disks(cf, k_prime, window, d)
    m, n_hard = len(own), len(lam_h)
    has_tail = cf.has_tail
    if has_tail or n_hard:
        # central rectangle Q_{K'}: as many zeros as poles, the I1 indices |n| <= K'
        rect = _central_rectangle(cf.spec, k_prime, d, cf.terms.lambda_at)
    if has_tail:
        margin, rect_certified = _rouche_rect(cf, rect)
        if not rect_certified:
            raise errors.CertificationFailed(f"central rectangle failed to certify (Rouche margin {margin:.3g})")
    # one Newton pass for every simple zero: each certified disk's from w_k
    # about lambda_k, then the hard zeros' (_hard_seeds), with the disks'
    # zeros divided out at lambda_k + w_k and the terms' beyond the window
    # at lambda_k + c_k
    shift, start = lam, w
    if n_hard:
        beyond = np.abs(cf.idx1) > window
        lam_k = np.concatenate([lam, cf.lam1[beyond]])
        mu_k = np.concatenate([lam + w, cf.lam1[beyond] + cf.c1[beyond]])
        seeds = _hard_seeds(lam_h, c_h, lam_k, mu_k)
        near = _shift(cf, seeds)
        shift, start = np.concatenate([lam, near]), np.concatenate([w, seeds - near])
    z, ok = _newton(cf, start, 1, shift)
    if n_hard:
        z, ok, z_hard, ok_hard = z[:m], ok[:m], z[m:], ok[m:]
    inside = ok & (np.abs(z - lam) < rho)
    if 0 in inside.tobytes():  # a byte search for a False (_newton)
        j = np.argmin(inside)
        raise errors.CertificationFailed(
            f"Newton from {lam[j] + w[j]:.6g} found no zero in the disk around index {own[j]}"
        )
    central = []
    if n_hard:
        inner = np.abs(own) <= k_prime
        central = _central_zeros(cf, rect, seeds, (z_hard, ok_hard), n_hard, d, (lam[inner], rho[inner]))
    return (own, z), central


# ---------------------------------------------------------------------------
# assembly

# the origin of a window index's row by c_n = 0, before any central zero
# joins it: indexing this table costs half of np.where on the two strings
_ORIGIN = np.array([ORIGIN_ZERO, ORIGIN_COMMON])


def _assign(cost):
    """Least-cost assignment of a square cost matrix, by Kuhn's Hungarian
    method: potentials u, v and one shortest augmenting path per row.

    Returns (rows, cols) as scipy.optimize.linear_sum_assignment does.  Two
    callers: assemble_spectrum pairs its central zeros with indices, a few
    rows at most, and oracle.compare_spectra matches the values two spectra
    do not share, at most 10 in the benchmark, whose costs are
    near-diagonal, so that each row's shortest path is about one step of
    O(n) work.  The loops run on Python floats, and the package needs no
    compiled matching.
    """
    a = cost.tolist()
    n = len(a)
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: the row (from 1) on column j (from 1)
    way = [0] * (n + 1)  # the previous column on the shortest path to j
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        dist, done = [math.inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            done[j0] = True
            i0 = match[j0]
            row, ui = a[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not done[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            if not j1:
                raise ValueError("cost matrix is infeasible")
            for j in range(n + 1):
                if done[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    cols = [0] * n
    for j in range(1, n + 1):
        cols[match[j] - 1] = j - 1
    return np.arange(n), np.array(cols, dtype=int)


def assemble_spectrum(spec, coeffs, loc):
    """Merge located zeros with the common spectrum into a PerturbedSpectrum.

    Each certified disk's zero is paired with its own index.  A central zero
    equal to a common eigenvalue lambda_n (as _central_zeros places it)
    raises its multiplicity; the others, one slot per unit of order, go to
    the I1 indices no disk owns by least total distance (Kuhn's Hungarian
    method, `_assign`), and each entry takes the smallest index it is given.
    """
    win = loc.cf.window(loc.window)  # the slice _disks took
    idx_all, c_all, lam_all = loc.cf.idx[win], loc.cf.c[win], loc.cf.lam[win]
    in_i0 = c_all == 0
    owned_idx, owned_z = loc.owned
    # per window index: the eigenvalue paired with it, and the multiplicity
    # and origin of the row it heads when no central zero is paired with it
    mu = lam_all.astype(complex)
    at = owned_idx - idx_all[0] if len(idx_all) else owned_idx
    mu[at] = owned_z
    mult = np.ones(len(mu), dtype=int)
    origin = _ORIGIN[in_i0.astype(np.intp)]
    slots = sum(t[1] for t in loc.central) if loc.central else 0  # one per unit of order
    n_free = in_i0.tobytes().count(0) - len(owned_idx)  # the I1 indices no disk owns (a byte count, _newton)
    if slots != n_free:
        raise errors.CountMismatch(f"{slots} zero slots for {n_free} unowned perturbed indices")
    # one row per eigenvalue: per window index a disk owns or in I0, then
    # per central zero on no common eigenvalue, sorted stably by (re, im);
    # no two rows of the first kind are equal (a disk's zero lies within
    # d/2 of its own pole), so their order before the sort does not show
    eig, paired = mu, idx_all
    if loc.central:
        z = np.array([t[0] for t in loc.central], dtype=complex)
        order = np.array([t[1] for t in loc.central], dtype=int)
        free = ~in_i0
        free[at] = False
        free = free.nonzero()[0]
        common = in_i0.nonzero()[0]
        at_common = mu[common, np.newaxis] == z  # _central_zeros put these on lambda_n
        on = at_common.any(axis=1)
        hit = at_common[on].argmax(axis=1)
        mult[common[on]] += order[hit]
        origin[common[on]] = ORIGIN_BOTH
        rest = np.ones(len(z), dtype=bool)
        rest[hit] = False
        where = np.concatenate([mu[common[on]], z[rest]])
        slot = np.repeat(np.arange(len(where)), np.concatenate([order[hit], order[rest]]))
        rows, cols = _assign(np.abs(where[slot, np.newaxis] - lam_all[free]))
        mu[free[cols]] = where[slot[rows]]
        first = np.full(len(where), len(free))  # each entry's smallest index, by position in free
        np.minimum.at(first, slot[rows], cols)
        keep = np.ones(len(mu), dtype=bool)
        keep[free] = False
        z, order = z[rest], order[rest]
        eig = np.concatenate([mu[keep], z])
        mult = np.concatenate([mult[keep], order])
        paired = np.concatenate([idx_all[keep], idx_all[free[first[len(hit):]]]])
        origin = np.concatenate([origin[keep], np.full(len(z), ORIGIN_ZERO)])
    # else in (re, im) order; a byte search for a True (_newton)
    if loc.central or 1 in ((re := eig.real)[1:] <= re[:-1]).tobytes():
        by_mu = np.lexsort((eig.imag, eig.real))
        eig, mult, paired, origin = eig[by_mu], mult[by_mu], paired[by_mu], origin[by_mu]
    tail_bound = (spec.gap / (2.0 * loc.eps)) * loc.tail_sum_bound
    return PerturbedSpectrum(
        mu=eig,
        mult=mult,
        paired_index=paired,
        origin=origin,
        index=idx_all,
        paired_mu=mu,
        offset_sum=float(np.add.reduce(np.abs(mu - lam_all))),
        tail_bound=float(tail_bound),
        certified=True,
    )


def solve_direct(spec, coeffs, opts=None):
    """Localize and assemble in one call."""
    loc = localize_spectrum(spec, coeffs, opts)
    return assemble_spectrum(spec, coeffs, loc), loc
