"""Built-in reproductions of the worked examples.

The base operator is the periodic derivative whose spectrum is the set of
integers with gap 1.  Two coefficient families sit on top of it: the
non-square-summable c_n = 1/n family with a cotangent closed form for F,
and the power-decay family c_n = |n|^(-2*beta) whose offsets reproduce the
residue exponent.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from . import errors
from .direct import LocalizeOptions, assemble_spectrum, localize_spectrum
from .model import AffineTail, BaseSpectrum, PerturbationCoefficients, PowerTail


def example_periodic_base():
    """lambda_n = n over the integers, separation gap 1."""
    return BaseSpectrum(
        index_kind="Z",
        head_offset=0,
        head=(),
        tail=AffineTail(slope=1.0, intercept=0.0),
        gap=1.0,
    )


@dataclass(frozen=True)
class CotangentClosedForm:
    """F(z) = (z^2+1)/z^2 - (pi/z) cot(pi z), the exact characteristic
    function of the c_n = 1/n family."""

    def value(self, z):
        z = complex(z)
        if z == 0 or abs(z - round(z.real)) < 1e-13 and abs(z.imag) < 1e-13:
            raise errors.PoleHit(f"closed form has a pole at {z}")
        return (z * z + 1.0) / (z * z) - (math.pi / z) / cmath.tan(math.pi * z)


def harmonic_family(window):
    """Coefficients with c_n = 1/n (n != 0), explicit for |n| <= window,
    plus the closed form of the full function.

    The family has |a_n| = |b_n| = |n|^(-1/2) and deliberately fails the
    square-summability validation; construct it without validating and use
    the closed form as the exact reference.  The declared |n|^(-1/2) tails
    carry the correct magnitudes (the sign flip of b on negative indices is
    outside the symmetric generator family, so only |n| <= window values
    are faithful term by term).
    """
    if window < 1:
        raise errors.WindowExceeded("window must be at least 1")
    idx = np.arange(-window, window + 1)
    a = np.where(idx == 0, 1.0, np.sqrt(1.0 / np.maximum(np.abs(idx), 1))).astype(complex)
    b = np.where(idx == 0, 0.0, np.sign(idx) * np.sqrt(1.0 / np.maximum(np.abs(idx), 1))).astype(
        complex
    )
    coeffs = PerturbationCoefficients(
        a_head_offset=-window,
        a_head=tuple(a),
        a_tail=PowerTail(beta=0.5, scale=1.0, phase=0.0),
        b_head_offset=-window,
        b_head=tuple(b),
        b_tail=PowerTail(beta=0.5, scale=1.0, phase=0.0),
    )
    return coeffs, CotangentClosedForm()


def power_family(beta, window):
    """Symmetric power-decay coefficients c_n = |n|^(-2 beta), c_0 = 0; a
    beta that is not finite, or that puts c_n at the window below the
    smallest normal double (which validate_coefficients rejects), raises
    BetaOutOfRange."""
    if not 1 < beta < math.inf:
        raise errors.BetaOutOfRange(f"beta must be finite and exceed 1, got {beta}")
    if window < 1:
        raise errors.WindowExceeded("window must be at least 1")
    idx = np.arange(-window, window + 1)
    vals = np.where(idx == 0, 0.0, np.maximum(np.abs(idx), 1).astype(float) ** (-beta)).astype(
        complex
    )
    if vals[0].real * vals[0].real < 2.0**-1022:
        limit = 511.0 / math.log2(window)
        raise errors.BetaOutOfRange(
            f"beta = {beta} puts c_n below 2^-1022 at n = {window}: beta of at most {limit:.4g} at this window"
        )
    # a_0 = 1, b_0 = 0 keeps c_0 = 0 without a doubly-degenerate index
    a = vals.copy()
    a[idx == 0] = 1.0
    return PerturbationCoefficients(
        a_head_offset=-window,
        a_head=tuple(a),
        a_tail=PowerTail(beta=beta, scale=1.0, phase=0.0),
        b_head_offset=-window,
        b_head=tuple(vals),
        b_tail=PowerTail(beta=beta, scale=1.0, phase=0.0),
    )


# ---------------------------------------------------------------------------
# zero location for the closed-form family


HARMONIC_TOL = 1e-13  # relative Newton step at which harmonic_zero stops
HARMONIC_MAX_ITER = 60


def harmonic_zero(n):
    """Zero mu_n = n + eps_n of the closed form, from tan(pi z) = pi z/(z^2+1).

    Newton runs on h(w) = tan(pi w) (( n+w)^2 + 1) - pi (n + w) in the offset
    w = z - n, which has no pole near the solution.
    """
    if n == 0:
        raise ValueError("n = 0 has no associated zero in this family")
    # seed at the asymptotic offset 1/n, clipped away from the tan pole at 1/2
    w = max(-0.25, min(0.25, 1.0 / n))
    for _ in range(HARMONIC_MAX_ITER):
        t = math.tan(math.pi * w)
        q = (n + w) ** 2 + 1.0
        h = t * q - math.pi * (n + w)
        hp = math.pi * (1.0 + t * t) * q + t * 2.0 * (n + w) - math.pi
        step = h / hp
        w -= step
        if abs(step) < HARMONIC_TOL * (1.0 + abs(w)):
            break
    return n + w


def harmonic_tan_residual(mu):
    """Residual of the defining equation tan(pi mu) = pi mu / (mu^2 + 1)."""
    return abs(math.tan(math.pi * (mu - round(mu))) - math.pi * mu / (mu * mu + 1.0))


def harmonic_report(n_max=200):
    """Asymptotics checks for the 1/n family on indices 1..n_max; the
    scaled offsets' tail is n >= min(100, n_max // 2), the log fit runs
    over n >= max(10, n_max // 10), and fewer than two indices there (n_max
    below 11) raise WindowExceeded."""
    fit_lo = max(10, n_max // 10)
    if n_max <= fit_lo:
        raise errors.WindowExceeded(
            f"the log fit over n = {fit_lo}..{n_max} needs two indices: n_max (the window) of 11 or more"
        )
    mus = np.array([harmonic_zero(n) for n in range(1, n_max + 1)])
    ns = np.arange(1, n_max + 1)
    residuals = np.array([harmonic_tan_residual(mu) for mu in mus])
    scaled = ns * (mus - ns)  # -> 1
    offsets = np.abs(mus - ns)
    partial = np.cumsum(offsets)
    # fit S(N) ~ coeff * log N + const over the upper half of the range
    mask = ns >= fit_lo
    coeff, _ = np.polyfit(np.log(ns[mask]), partial[mask], 1)
    return {
        "mu": mus,
        "max_tan_residual": float(residuals.max()),
        "scaled_offsets": scaled,
        "max_scaled_error_tail": float(np.abs(scaled[ns >= min(100, n_max // 2)] - 1.0).max()),
        "partial_sums": partial,
        "log_fit_coefficient": float(coeff),
    }


def power_offsets(beta, n_lo=20, n_hi=200, opts=None):
    """Offsets |mu_n - n| of the power-decay family via the direct solver."""
    spec = example_periodic_base()
    coeffs = power_family(beta, max(n_hi, 200))
    if opts is None:
        opts = LocalizeOptions(window=n_hi, n_trunc=max(1500, 2 * n_hi))
    loc = localize_spectrum(spec, coeffs, opts)
    ns, offs = assemble_spectrum(spec, coeffs, loc).offsets(spec)
    keep = (n_lo <= ns) & (ns <= n_hi)
    return ns[keep], offs[keep], loc


def power_slope(beta, n_lo=20, n_hi=200, opts=None):
    """Fitted log-log slope of |mu_n - n| against n (expected -2 beta);
    fewer than two indices n_lo..n_hi raise WindowExceeded before any solve."""
    if n_hi <= n_lo:
        raise errors.WindowExceeded(
            f"the slope fit over n = {n_lo}..{n_hi} needs two indices: n_hi of {n_lo + 1} or more"
        )
    ns, offs, loc = power_offsets(beta, n_lo, n_hi, opts)
    if not offs.all():  # an offset below half an ulp of n rounds to 0
        raise errors.WindowExceeded(
            f"the slope fit over n = {n_lo}..{n_hi} takes log |mu_n - n|, which is 0 "
            f"from n = {ns[offs == 0][0]}: a smaller window or beta"
        )
    slope, _ = np.polyfit(np.log(ns), np.log(offs), 1)
    return float(slope), ns, offs, loc
