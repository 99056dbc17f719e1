"""Direct spectral problem: locate all eigenvalues of the perturbation.

Zeros of the characteristic function are counted by argument-principle
contour integrals (trapezoidal rule on circles, composite Gauss-Legendre on
rectangle sides), isolated by recursive quadrisection where necessary, and
polished by Newton iteration in pole-shifted coordinates.  The localization
follows the enclosure sigma(B) subset Q_{K'} union (disks of radius d/2).
The per-index disks of one localization are counted together, at the
starting quadrature in blocks of DISK_BLOCK_NODES nodes per kernel call;
only the disks whose count is not certified there escalate, one at a time.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import errors
from .charfn import CharacteristicFunction, compute_Keps
from .model import (
    INDEX_Z,
    ORIGIN_BOTH,
    ORIGIN_COMMON,
    ORIGIN_ZERO,
    PerturbedSpectrum,
    SpectrumEntry,
)

CONTOUR_POLE_TOL = 1e-8  # minimum allowed pole distance to a contour
QUAD_CAP_MIN = 4096  # winding quadrature doubles up to max(2 * quad, this)
# circle nodes per kernel call when many disks are counted at once; with up
# to 8 terms the kernel's terms x nodes temporaries (16 B each) then stay
# within 256 KB, which ran faster than 4096 nodes on this package's benchmark
DISK_BLOCK_NODES = 2048
TRUNC_CAP = 32000  # n_trunc doubles up to this before localization gives up
CLUSTER_RTOL = 1e-6  # zeros closer than this times d form one cluster
MAX_DEPTH = 80  # quadrisection depth cap
NEWTON_MAX_ITER = 80
MATCH_RTOL = 1e-7  # zeros within this times d max(1, |lambda_n|) land on a common lambda_n


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z):
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class Rectangle:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def contains(self, z):
        return self.re_lo < z.real < self.re_hi and self.im_lo < z.imag < self.im_hi

    @property
    def width(self):
        return self.re_hi - self.re_lo

    @property
    def height(self):
        return self.im_hi - self.im_lo

    @property
    def center(self):
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))


@dataclass
class ZeroReport:
    region: object
    region_index: object  # pairing index for disks, None for the rectangle
    winding_count: int
    certified: bool
    zeros: list  # of (location, order, residual)


@dataclass
class LocalizeOptions:
    window: int = 50
    n_trunc: int = 2000
    quad: int = 256
    tol: float = 1e-10


@dataclass
class LocalizationResult:
    reports: list
    k_eps: int
    k_prime: int
    window: int
    eps: float
    tail_sum_bound: float  # sum_{|n|>window} |c_n|
    certified: bool
    cf: CharacteristicFunction

    def all_zeros(self):
        out = []
        for rep in self.reports:
            out.extend(rep.zeros)
        return out


# ---------------------------------------------------------------------------
# contour integration


@functools.lru_cache(maxsize=32)
def _unit_roots(q):
    e = np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
    e.flags.writeable = False
    return e


def _circle_nodes(center, radius, q):
    """Trapezoid nodes and dz weights; an (m, 1) array of centres gives (m, q) nodes."""
    e = _unit_roots(q)
    z = center + radius * e
    # dz weight for the trapezoidal rule: i r e^{i theta} * (2 pi / q)
    w = (1j * radius * (2.0 * np.pi / q)) * e
    return z, w


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@functools.lru_cache(maxsize=32)
def _unit_panels(q):
    """Composite Gauss-Legendre nodes on [0, 1] and each panel's half width."""
    panels = max(2, int(math.ceil(q / (4 * len(_GL_NODES)))))
    edges = np.linspace(0.0, 1.0, panels + 1)
    lo, hi = edges[:-1, np.newaxis], edges[1:, np.newaxis]
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi) + half * _GL_NODES).ravel()
    t.flags.writeable = False
    half.flags.writeable = False
    return t, half


def _rect_nodes(rect, q):
    t, half = _unit_panels(q)
    # the four sides, counter-clockwise from the lower left corner
    a = np.array([
        complex(rect.re_lo, rect.im_lo),
        complex(rect.re_hi, rect.im_lo),
        complex(rect.re_hi, rect.im_hi),
        complex(rect.re_lo, rect.im_hi),
    ])
    side = np.roll(a, -1) - a
    z = a[:, np.newaxis] + side[:, np.newaxis] * t
    w = (side[:, np.newaxis, np.newaxis] * half) * _GL_WEIGHTS
    return z.ravel(), w.ravel()


def _pole_distance_to_rect(rect, poles):
    if len(poles) == 0:
        return math.inf
    poles = np.asarray(poles, dtype=complex)
    dre = np.minimum(np.abs(poles.real - rect.re_lo), np.abs(poles.real - rect.re_hi))
    dim = np.minimum(np.abs(poles.imag - rect.im_lo), np.abs(poles.imag - rect.im_hi))
    inside_re = (rect.re_lo <= poles.real) & (poles.real <= rect.re_hi)
    inside_im = (rect.im_lo <= poles.imag) & (poles.imag <= rect.im_hi)
    # distance to the boundary of the rectangle
    d = np.where(
        inside_re & inside_im,
        np.minimum(dre, dim),
        np.where(inside_re, dim, np.where(inside_im, dre, np.hypot(dre, dim))),
    )
    return float(np.min(d))


@dataclass
class WindingResult:
    count: int
    certified: bool
    integral: complex
    integral_lo: complex  # the same integral at q/2 nodes (convergence check)
    min_abs_F: float
    max_err_bound: float


def _argument_terms(cf, z, w):
    """Terms w F'/F of the argument-principle sum, and F, at the nodes (any shape)."""
    F, Fp = cf.value_pair(z.ravel())
    F, Fp = F.reshape(z.shape), Fp.reshape(z.shape)
    return w * Fp / F, F


def _winding_results(integral, integral_lo, min_f, max_err, noise):
    """One WindingResult per contour from its integrals at q and q/2 nodes,
    min|F| and the largest tail bound on it (arrays, one entry per contour).

    A count is certified when the integral lies within 0.2 of an integer,
    agrees with the q/2 integral within 0.1, and min|F| exceeds both twice
    the tail bound and ten times the evaluation noise.  A non-finite
    integral (a zero of F on or numerically on the contour) gives an
    uncertified count 0.
    """
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(integral.real) & np.isfinite(integral_lo.real)
        count = np.where(finite, np.round(integral.real), 0.0)
        certified = (
            finite
            & (np.abs(integral - count) < 0.2)
            & (np.abs(integral - integral_lo) < 0.1)
            & (min_f > 2.0 * max_err)
            & (min_f > 10.0 * noise)
        )
    return [
        WindingResult(int(n), bool(ok), complex(i), complex(i_lo), float(f), float(e))
        for n, ok, i, i_lo, f, e in zip(count, certified, integral, integral_lo, min_f, max_err)
    ]


def _noise_floor(cf):
    return 1e-13 * (1.0 + float(np.sum(np.abs(cf.c1))))


def _even_quad(quadrature_points):
    q = max(16, int(quadrature_points))
    return q + q % 2


def _disk_windings(cf, centers, radius, quadrature_points):
    """Argument-principle counts on the circles |z - c| = radius, one per centre.

    The disks are evaluated in blocks of at most DISK_BLOCK_NODES nodes, one
    value_pair call each.  F, F' and the tail bound are evaluated once on q
    nodes per circle (q rounded up to an even number); the q/2 convergence
    check reuses every second node, where the trapezoid rule's q/2 nodes are
    exactly those.  A circle that passes within CONTOUR_POLE_TOL (1 + |c|)
    of a represented pole gives None in place of its result.
    """
    q = _even_quad(quadrature_points)
    centers = np.atleast_1d(np.asarray(centers, dtype=complex))
    noise = _noise_floor(cf)
    out = []
    per_block = max(1, DISK_BLOCK_NODES // q)
    for i in range(0, len(centers), per_block):
        c = centers[i : i + per_block, np.newaxis]
        z, w = _circle_nodes(c, radius, q)
        # F may vanish on a node; the caller treats the resulting non-finite
        # integral as an uncertified count and retries on a perturbed contour
        with np.errstate(divide="ignore", invalid="ignore"):
            g, F = _argument_terms(cf, z, w)
            integral = g.sum(axis=1) / (2j * np.pi)
            integral_lo = 2.0 * g[:, ::2].sum(axis=1) / (2j * np.pi)
        min_f = np.abs(F).min(axis=1)
        max_err = cf.tail_bound_at(z.ravel()).reshape(z.shape).max(axis=1)
        res = _winding_results(integral, integral_lo, min_f, max_err, noise)
        if len(cf.lam1):
            clearance = np.abs(np.abs(cf.lam1 - c) - radius).min(axis=1)
            singular = clearance < CONTOUR_POLE_TOL * (1.0 + np.abs(c[:, 0]))
            res = [None if s else r for r, s in zip(res, singular)]
        out.extend(res)
    return out


def winding_number(cf, region, quadrature_points):
    """Argument-principle count of zeros minus poles inside the region.

    A disk is the one-centre case of _disk_windings.  On a rectangle F, F'
    and the tail bound are evaluated once on q nodes (q rounded up to an
    even number); its Gauss-Legendre panels are not nested, so the q/2
    convergence check takes a second pass.
    """
    if isinstance(region, Disk):
        res = _disk_windings(cf, region.center, region.radius, quadrature_points)[0]
    elif _pole_distance_to_rect(region, cf.lam1) < CONTOUR_POLE_TOL * (1.0 + abs(region.center)):
        res = None
    else:
        q = _even_quad(quadrature_points)
        z, w = _rect_nodes(region, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            g, F = _argument_terms(cf, z, w)
            g_lo, _ = _argument_terms(cf, *_rect_nodes(region, q // 2))
            integral = g.sum() / (2j * np.pi)
            integral_lo = g_lo.sum() / (2j * np.pi)
        res = _winding_results(
            np.array([integral]),
            np.array([integral_lo]),
            np.abs(F).min(keepdims=True),
            cf.tail_bound_at(z).max(keepdims=True),
            _noise_floor(cf),
        )[0]
    if res is None:
        raise errors.ContourThroughSingularity(
            f"a represented pole lies within {CONTOUR_POLE_TOL:g} of the contour"
        )
    return res


def _certified_winding(cf, region, opts, poles_inside, q=None):
    """Winding with quadrature escalation from q (default opts.quad); returns
    the number of zeros inside."""
    q = opts.quad if q is None else q
    quad_cap = max(2 * opts.quad, QUAD_CAP_MIN)
    last = None
    while True:
        try:
            res = winding_number(cf, region, q)
        except errors.ContourThroughSingularity:
            res = None
        if res is not None:
            last = res
            if res.certified:
                return res.count + poles_inside, res
        if q >= quad_cap:
            return None, last
        q *= 2


# ---------------------------------------------------------------------------
# Newton refinement (in pole-shifted coordinates)


def _newton(cf, seed, order, tol):
    """Newton on F^(order-1); returns (location, residual |F|) or None.

    It runs in coordinates shifted by the window eigenvalue nearest the seed.
    """
    seed = complex(seed)
    j = int(np.searchsorted(cf.lam, seed.real))
    near = cf.lam[max(j - 1, 0) : j + 1]
    lam_c = float(near[np.argmin(np.abs(seed - near))]) if len(near) else 0.0
    w = seed - lam_c
    deriv = order - 1
    step = math.inf
    for _ in range(NEWTON_MAX_ITER):
        g, gp = cf.value_pair(np.array([w]), deriv, lam_c)
        g, gp = g[0], gp[0]
        if gp == 0:
            w += 1e-9 * (1.0 + abs(w))
            continue
        new_step = g / gp
        w = w - new_step
        if abs(new_step) < 1e-16 * (1.0 + abs(lam_c) + abs(w)):
            break
        if abs(new_step) > 10.0 * (abs(step) + 1.0):
            return None  # diverging
        step = new_step
    else:
        if abs(step) > 1e-12 * (1.0 + abs(lam_c)):
            return None
    loc = lam_c + w
    resid = abs(cf.value_pair(np.array([w]), 0, lam_c)[0][0])
    if deriv == 0 and resid > tol * (1.0 + float(np.sum(np.abs(cf.c1)))):
        return None
    return loc, resid


def refine_zero(cf, seed, order_hint, tol, confirm_radius=None, d=None):
    """Polish a zero inside a certified region and confirm its order.

    For order_hint >= 2 Newton runs on F^(order_hint - 1); the order is
    confirmed by the winding count on a small circle around the result.
    """
    if d is None:
        d = cf.spec.gap
    got = _newton(cf, seed, order_hint, tol)
    if got is None:
        raise errors.NoConvergence(f"Newton refinement from seed {seed} stagnated")
    loc, resid = got
    if confirm_radius is None:
        confirm_radius = max(1e-4 * d, 16.0 * abs(loc - seed))
        confirm_radius = min(confirm_radius, 0.25 * d)
    circle = Disk(loc, confirm_radius)
    poles_in = int(np.sum(np.abs(cf.lam1 - loc) < confirm_radius))
    opts = LocalizeOptions()
    zeros, _ = _certified_winding(cf, circle, opts, poles_in)
    if zeros is None:
        raise errors.CertificationFailed(
            f"order confirmation winding on radius {confirm_radius:g} could not be certified"
        )
    if zeros != order_hint:
        raise errors.OrderMismatch(
            f"winding on radius {confirm_radius:g} found {zeros} zeros, expected {order_hint}"
        )
    return loc, order_hint, resid


# ---------------------------------------------------------------------------
# zero isolation inside a rectangle


def _poles_inside_rect(poles, rect):
    return [p for p in poles if rect.contains(p)]


def _split_coordinate(cf, lo, hi, horizontal, other_lo, other_hi, poles, d):
    """Pick a split position in (lo, hi) away from poles and zeros of F."""
    best, best_score = None, -math.inf
    width = hi - lo
    for frac in (0.5, 0.46, 0.55, 0.41, 0.61, 0.34, 0.68, 0.27, 0.74):
        x = lo + frac * width
        t = np.linspace(other_lo, other_hi, 17)
        pts = t + 1j * x if horizontal else x + 1j * t
        if len(poles):
            pole_d = float(
                np.min(np.abs((np.asarray(poles).imag if horizontal else np.asarray(poles).real) - x))
            )
        else:
            pole_d = math.inf
        if pole_d < 1e-6 * d:
            continue
        min_f = float(np.min(np.abs(cf.values(pts))))
        score = min(min_f, pole_d / d)
        if score > best_score:
            best, best_score = x, score
    if best is None:
        raise errors.CertificationFailed("could not find a pole-free split line")
    return best


def _noise_scale(cf, z):
    """Estimated floating-point noise level of an F evaluation near z."""
    if len(cf.lam1) == 0:
        return 1e-15
    dist = np.maximum(np.abs(cf.lam1 - z), 1e-300)
    return 1e-15 * (1.0 + float(np.sum(np.abs(cf.c1) / dist)))


def _try_multiple(cf, rect, m, opts, d):
    """Attempt to certify an order-m zero for a small box with m zeros.

    Accepts when the local root spread estimated from the Taylor coefficients
    at the F^(m-1) zero is below the cluster tolerance or below what floating
    point can resolve (an order-m zero split by round-off scatters its roots
    at radius ~ noise^(1/m)).
    """
    got = _newton(cf, rect.center, m, opts.tol)
    if got is None:
        return None
    z0, _ = got
    diam = max(rect.width, rect.height)
    if not Rectangle(
        rect.re_lo - diam, rect.re_hi + diam, rect.im_lo - diam, rect.im_hi + diam
    ).contains(z0):
        return None
    coeff_m = cf.derivative_values(np.array([z0]), m)[0] / math.factorial(m)
    if coeff_m == 0:
        return None
    noise = _noise_scale(cf, z0)
    spread = 0.0
    for j in range(m):
        if j == 0:
            coeff_j = cf.values(np.array([z0]))[0]
        else:
            coeff_j = cf.derivative_values(np.array([z0]), j)[0] / math.factorial(j)
        spread = max(spread, abs(coeff_j / coeff_m) ** (1.0 / (m - j)))
    threshold = max(CLUSTER_RTOL * d, 20.0 * (noise / abs(coeff_m)) ** (1.0 / m))
    if spread > threshold:
        return None
    # confirm by winding on a circle covering the box
    radius = max(2.0 * diam, 8.0 * threshold)
    radius = min(radius, 0.45 * d)
    circle = Disk(z0, radius)
    poles_in = int(np.sum(np.abs(cf.lam1 - z0) < radius))
    zeros, _ = _certified_winding(cf, circle, opts, poles_in)
    if zeros != m:
        return None
    resid = abs(cf.values(np.array([z0]))[0])
    return (z0, m, resid)


def _grid_seeds(cf, rect):
    # the three points of smallest |F| on a 7 x 7 interior grid
    xs = np.linspace(rect.re_lo, rect.re_hi, 9)[1:-1]
    ys = np.linspace(rect.im_lo, rect.im_hi, 9)[1:-1]
    X, Y = np.meshgrid(xs, ys)
    pts = (X + 1j * Y).ravel()
    if len(cf.lam1):
        dist = np.min(np.abs(pts[:, None] - cf.lam1[None, :]), axis=1)
        pts = pts[dist > 1e-9 * (1.0 + np.abs(pts))]
    if len(pts) == 0:
        return []
    vals = np.abs(cf.values(pts))
    order = np.argsort(vals)
    return [complex(pts[j]) for j in order[:3]]


def _refine_simple(cf, rect, opts):
    """Locate the unique zero in a certified count-1 box.

    Newton starts from lambda_n + c_n for each pole inside, then from the
    common eigenvalues inside where F nearly vanishes, both by ascending
    lambda, then from the grid points of smallest |F|.
    """
    on_axis = rect.im_lo < 0.0 < rect.im_hi
    inside = on_axis & (rect.re_lo < cf.lam1) & (cf.lam1 < rect.re_hi)
    order = np.argsort(cf.lam1[inside])
    seeds = [z for z in (cf.lam1[inside] + cf.c1[inside])[order].tolist() if rect.contains(z)]
    # common eigenvalues where F happens to vanish
    lam0 = cf.lam[cf.i0]
    lam0 = lam0[on_axis & (rect.re_lo < lam0) & (lam0 < rect.re_hi)].astype(complex)
    seeds += lam0[np.abs(cf.values(lam0)) < 1e-3].tolist()
    seeds.extend(_grid_seeds(cf, rect))
    margin = 1e-9 * (1.0 + max(rect.width, rect.height))
    grown = Rectangle(rect.re_lo - margin, rect.re_hi + margin, rect.im_lo - margin, rect.im_hi + margin)
    for seed in seeds:
        got = _newton(cf, seed, 1, opts.tol)
        if got is not None and grown.contains(got[0]):
            return (got[0], 1, got[1])
    return None


def _isolate_rect(cf, rect, n_zeros, poles, opts, d, depth=0):
    """Recursively isolate and refine the n_zeros zeros inside rect."""
    if n_zeros == 0:
        return []
    if depth > MAX_DEPTH:
        raise errors.CertificationFailed("quadrisection exceeded the depth cap")
    diam = max(rect.width, rect.height)
    if n_zeros == 1:
        got = _refine_simple(cf, rect, opts)
        if got is not None:
            return [got]
        # Newton escaped the box: shrink it and retry
    else:
        if diam < 1e-2 * d:
            got = _try_multiple(cf, rect, n_zeros, opts, d)
            if got is not None:
                return [got]
        if diam < CLUSTER_RTOL * d:
            # cannot separate further: declare an order-n cluster (documented
            # cluster tolerance; confirmed by the parent winding count)
            got = _newton(cf, rect.center, n_zeros, opts.tol)
            z0 = got[0] if got is not None else rect.center
            resid = abs(cf.values(np.array([z0]))[0])
            return [(z0, n_zeros, resid)]
    x = _split_coordinate(cf, rect.re_lo, rect.re_hi, False, rect.im_lo, rect.im_hi, poles, d)
    y = _split_coordinate(cf, rect.im_lo, rect.im_hi, True, rect.re_lo, rect.re_hi, poles, d)
    subs = [
        Rectangle(rect.re_lo, x, rect.im_lo, y),
        Rectangle(x, rect.re_hi, rect.im_lo, y),
        Rectangle(rect.re_lo, x, y, rect.im_hi),
        Rectangle(x, rect.re_hi, y, rect.im_hi),
    ]
    zeros = []
    found = 0
    for sub in subs:
        sub_poles = _poles_inside_rect(poles, sub)
        count, _ = _certified_winding(cf, sub, opts, len(sub_poles))
        if count is None:
            raise errors.CertificationFailed("sub-box winding could not be certified")
        found += count
        zeros.append((sub, count, sub_poles))
    if found != n_zeros:
        raise errors.CertificationFailed(
            f"quadrisection lost zeros: {found} found, {n_zeros} expected"
        )
    out = []
    for sub, count, sub_poles in zeros:
        out.extend(_isolate_rect(cf, sub, count, sub_poles, opts, d, depth + 1))
    return out


# ---------------------------------------------------------------------------
# top-level localization


def _central_rectangle(spec, k_prime, d):
    if spec.index_kind == INDEX_Z:
        lo = spec.lambda_at(-k_prime) - 0.5 * d
        hi = spec.lambda_at(k_prime) + 0.5 * d
    elif k_prime < spec.start:
        # no central index: every pole has its own disk, and no zero lies
        # outside them; a pole-free box just left of the first disk
        lam_s = spec.lambda_at(spec.start)
        lo, hi = lam_s - 1.5 * d, lam_s - 0.5 * d
    else:
        # no outer disks lie left of lambda_start: reach as far left of it as
        # lambda_{K'} lies right, so every point outside is (K' - K_eps) d or
        # more from the head poles, as the enclosure needs
        lam_s = spec.lambda_at(spec.start)
        lam_k = spec.lambda_at(k_prime)
        lo = min(lam_s, 2.0 * lam_s - lam_k) - 0.5 * d
        hi = lam_k + 0.5 * d
    # the imaginary half-height mirrors the larger end of the real range,
    # and is at least d/2 so that the contour keeps clear of the real axis
    h = max(abs(lo), abs(hi), 0.5 * d)
    return Rectangle(lo, hi, -h, h)


def _localize_disk(cf, k, lam_k, c_k, first, opts, d):
    """One disk R_k around lam_k, with coefficient c_k; a ZeroReport or None when uncertified.

    `first` is the disk's winding at opts.quad on radius d/2 from
    _disk_windings (None on a singular contour); only when it is not
    certified does that radius escalate, from 2 opts.quad, before the
    smaller radii are tried.
    """
    in_i1 = c_k != 0
    n_poles = 1 if in_i1 else 0
    radii = (0.5 * d, 0.5 * d - d / 100.0, 0.5 * d - d / 50.0)
    for radius in radii:
        disk = Disk(complex(lam_k), radius)
        if radius == radii[0] and first is not None and first.certified:
            zeros_n, res = first.count + n_poles, first
        else:
            q = 2 * opts.quad if radius == radii[0] else opts.quad
            zeros_n, res = _certified_winding(cf, disk, opts, n_poles, q)
        if zeros_n is None:
            continue
        zeros = []
        if zeros_n == 1:
            seed = lam_k + c_k if in_i1 else complex(lam_k)
            got = _newton(cf, seed, 1, opts.tol)
            if got is None or not disk.contains(got[0]):
                continue
            zeros = [(got[0], 1, got[1])]
        elif zeros_n > 1:
            box = Rectangle(
                lam_k - radius, lam_k + radius, -radius, radius
            )
            poles = [complex(lam_k)] if in_i1 else []
            zeros = _isolate_rect(cf, box, zeros_n, poles, opts, d)
        return ZeroReport(disk, int(k), res.count, True, zeros)
    return None


def localize_spectrum(spec, coeffs, opts=None):
    """Locate all zeros of F in the enclosure Q_{K'} union outer disks."""
    if opts is None:
        opts = LocalizeOptions()
    d = spec.gap
    eps = d / (2.0 + d)
    n_trunc = opts.n_trunc
    last_err = None
    while True:
        try:
            return _localize_attempt(spec, coeffs, opts, n_trunc, eps, d)
        except errors.CertificationFailed as exc:
            last_err = exc
            if n_trunc * 2 > TRUNC_CAP:
                raise errors.CertificationFailed(
                    f"escalation exhausted (n_trunc {n_trunc}): {last_err}"
                )
            n_trunc *= 2


def _localize_attempt(spec, coeffs, opts, n_trunc, eps, d):
    k_eps, k_prime = compute_Keps(spec, coeffs, eps)
    window = max(opts.window, k_prime)
    cf = CharacteristicFunction.build(spec, coeffs, max(n_trunc, window + 8))
    reports = []

    # lambda_n and c_n over the window, looked up once, and every index's
    # disk counted at opts.quad on radius d/2 in blocks
    idx_all = spec.window_indices(window)
    lam_all = np.atleast_1d(spec.lambda_at(idx_all))
    terms = list(zip(
        idx_all.tolist(),
        lam_all.tolist(),
        np.atleast_1d(coeffs.c_at(idx_all)).tolist(),
        _disk_windings(cf, lam_all, 0.5 * d, opts.quad),
    ))
    central = [t for t in terms if abs(t[0]) <= k_prime]

    # outer disks: exactly one zero per I1 index, none for I0
    for k, lam_k, c_k, first in terms:
        if abs(k) <= k_prime:
            continue
        rep = _localize_disk(cf, k, lam_k, c_k, first, opts, d)
        if rep is None:
            raise errors.CertificationFailed(f"disk around index {k} failed to certify")
        expected = 1 if c_k != 0 else 0
        nz = sum(o for _, o, _ in rep.zeros)
        if nz != expected:
            raise errors.CertificationFailed(
                f"disk around index {k} holds {nz} zeros, expected {expected}"
            )
        reports.append(rep)

    # central rectangle Q_{K'}
    poles_central = [complex(lam_n) for _, lam_n, c_n, _ in central if c_n != 0]
    rect = _central_rectangle(spec, k_prime, d)
    n_expected = len(poles_central)
    total, _ = _certified_winding(cf, rect, opts, len(poles_central))
    if total is None:
        raise errors.CertificationFailed("central rectangle winding failed to certify")
    if total != n_expected:
        raise errors.CertificationFailed(
            f"central rectangle holds {total} zeros, expected {n_expected}"
        )
    central_zeros = _central_fast_path(cf, central, n_expected, opts, d)
    if central_zeros is None:
        central_zeros = _isolate_rect(cf, rect, n_expected, poles_central, opts, d)
    reports.append(ZeroReport(rect, None, total - len(poles_central), True, central_zeros))
    return LocalizationResult(
        reports=reports,
        k_eps=k_eps,
        k_prime=k_prime,
        window=window,
        eps=eps,
        tail_sum_bound=coeffs.c_tail_sum(window, spec.index_kind),
        certified=True,
        cf=cf,
    )


def _central_fast_path(cf, central, n_expected, opts, d):
    """Try per-index disks over the (n, lambda_n, c_n, first winding) tuples
    first; fall back to quadrisection on mismatch."""
    zeros = []
    found = 0
    for n, lam_n, c_n, first in central:
        try:
            rep = _localize_disk(cf, n, lam_n, c_n, first, opts, d)
        except errors.CertificationFailed:
            return None
        if rep is None:
            return None
        zeros.extend(rep.zeros)
        found += sum(o for _, o, _ in rep.zeros)
        if found > n_expected:
            return None
    if found != n_expected:
        return None
    return zeros


# ---------------------------------------------------------------------------
# assembly


def assemble_spectrum(spec, coeffs, loc):
    """Merge located zeros with the common spectrum into a PerturbedSpectrum."""
    d = spec.gap
    match_tol = MATCH_RTOL * d
    idx_all = spec.window_indices(loc.window)
    c_all = np.atleast_1d(coeffs.c_at(idx_all))
    lam_all = np.atleast_1d(spec.lambda_at(idx_all))
    in_i0 = c_all == 0
    i1 = [int(n) for n in idx_all[~in_i0]]
    zeros = list(loc.all_zeros())

    entries = []
    pairing = []
    # common eigenvalues; a zero of F sitting on one raises its multiplicity
    consumed = [False] * len(zeros)
    both = []
    for n, lam_n in zip(idx_all[in_i0].tolist(), lam_all[in_i0].tolist()):
        lam_n = complex(lam_n)
        hit = None
        for j, (z, order, resid) in enumerate(zeros):
            if not consumed[j] and abs(z - lam_n) < match_tol * max(1.0, abs(lam_n)):
                hit = j
                break
        if hit is None:
            entries.append(SpectrumEntry(lam_n, 1, n, ORIGIN_COMMON))
            pairing.append((n, lam_n))
        else:
            consumed[hit] = True
            order = zeros[hit][1]
            both.append((n, lam_n, order))
            pairing.append((n, lam_n))
    free = [(z, order, resid) for j, (z, order, resid) in enumerate(zeros) if not consumed[j]]

    # remaining zeros (multiplicity-expanded) are assigned to I1 indices;
    # each slot carries the id of the group (entry) it belongs to
    groups = []  # (kind, location, order, anchor index or None)
    for n, lam_n, order in both:
        groups.append(("both", lam_n, order, n))
    for z, order, resid in free:
        groups.append(("zero", complex(z), order, None))
    slots = []
    slot_group = []
    for g, (_, z, order, _) in enumerate(groups):
        for _ in range(order):
            slots.append(z)
            slot_group.append(g)
    if len(slots) != len(i1):
        raise errors.CountMismatch(
            f"{len(slots)} zero slots for {len(i1)} perturbed indices"
        )
    group_indices = {g: [] for g in range(len(groups))}
    if slots:
        lam_i1 = np.asarray(spec.lambda_at(np.array(i1)), dtype=float)
        cost = np.abs(np.asarray(slots)[:, None] - lam_i1[None, :])
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            group_indices[slot_group[r]].append(i1[c])
            pairing.append((i1[c], complex(slots[r])))
    for g, (kind, z, order, anchor) in enumerate(groups):
        if kind == "both":
            entries.append(SpectrumEntry(z, order + 1, anchor, ORIGIN_BOTH))
        else:
            entries.append(SpectrumEntry(z, order, min(group_indices[g]), ORIGIN_ZERO))

    entries.sort(key=lambda e: (e.mu.real, e.mu.imag))
    pairing.sort(key=lambda p: p[0])
    lam_paired = np.asarray(spec.lambda_at(np.array([n for n, _ in pairing])), dtype=float)
    mu_paired = np.array([m for _, m in pairing])
    offset_sum = float(np.sum(np.abs(mu_paired - lam_paired)))
    tail_bound = (d / (2.0 * loc.eps)) * loc.tail_sum_bound
    return PerturbedSpectrum(
        entries=tuple(entries),
        pairing=tuple(pairing),
        offset_sum=offset_sum,
        tail_bound=float(tail_bound),
        certified=loc.certified,
    )


def solve_direct(spec, coeffs, opts=None):
    """Localize and assemble in one call."""
    loc = localize_spectrum(spec, coeffs, opts)
    return assemble_spectrum(spec, coeffs, loc), loc
