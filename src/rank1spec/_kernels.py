"""Hot numeric kernel: sums of pole terms over many evaluation points.

One chunked numpy broadcast.  Input arrays are expected pre-ordered from the
largest |index| inward so that the smallest terms accumulate first; every
point's sums run term by term in that order, however many points share a
call.
"""

import math

import numpy as np

BACKEND = "numpy"

# chunk size, in (terms x points) products: 1 MB complex temporaries
_CHUNK = 2**16


def _sums(c, lam, z, p, shift, rho):
    # terms x points: numpy reduces a wider array row by row, term by term in
    # input order, but a single column pairwise; a lone point's column is
    # therefore doubled so that its sums take the same order as any other
    # point's.  The reductions are the ufuncs' own, which ndarray.sum and
    # .min call after a Python-level wrapper that costs as much on a few
    # terms.  Subtracting +0.0 returns every x to the bit (-0.0 included),
    # so the default shift skips it
    if lam.ndim == 2:
        diff = lam - z
    elif type(shift) is float and shift == 0.0 and math.copysign(1.0, shift) > 0.0:
        diff = lam[:, np.newaxis] - z
    else:
        diff = (lam[:, np.newaxis] - shift) - z
    lone = len(z) == 1
    if lone:
        diff = np.concatenate((diff, diff), axis=1)
    t = c[:, np.newaxis] / diff
    rows = [np.add.reduce(t, axis=0)]
    for _ in range(p):  # repeated quotients: a complex power costs more
        t /= diff
        rows.append(np.add.reduce(t, axis=0))
    if rho is not None:
        dist = np.abs(diff)
        h = np.abs(c)[:, np.newaxis] / (dist - rho)
        q = rho / dist
        power = q.copy()
        for _ in range(p):
            power *= q
        rows += [
            np.add.reduce(h, axis=0),
            np.add.reduce(h * power, axis=0),
            np.minimum.reduce(dist, axis=0, initial=np.inf),
        ]
    return [row[:1] for row in rows] if lone else rows


def taylor(c, lam, z, p, shift=0.0, rho=None):
    """Rows S_i = sum_k c_k / d_kj**(i+1), i = 0..p, over the points, with
    d_kj = (lam_k - s_j) - z_j: F^(i)/i! = [i = 0] + S_i at the points s + z.

    With rho (one per point) three rows follow: sum_k |c_k| / (|d_kj| -
    rho_j), sum_k |c_k| (rho_j / |d_kj|)**(p+1) / (|d_kj| - rho_j) and min_k
    |d_kj| (inf with no terms); a caller that may meet |d_kj| <= rho_j sets
    np.errstate.  The terms c/d are F's as written, with no reciprocal's
    extra rounding; the shift is one number or one per point, each d_kj two
    roundings either way, so a point's sums do not depend on the others'.
    lam may be the poles lam_k - s_j instead, terms x points in C order and
    at most _CHUNK of them (shift unused), for a caller that keeps them.
    The points go to _sums as they are, in blocks of at most _CHUNK
    terms x points products when there are more.
    """
    if lam.ndim == 2:
        return _sums(c, lam, z, p, shift, rho)
    z = np.asarray(z, dtype=np.complex128)
    step = max(2, _CHUNK // max(1, len(c)))  # two points or more, so a lone point is rare
    if len(z) <= step:
        return _sums(c, lam, z, p, shift, rho)
    shift = np.asarray(shift, dtype=float)
    chunks = [
        _sums(c, lam, z[b], p, shift[b] if shift.ndim else shift, None if rho is None else rho[b])
        for b in (slice(i, i + step) for i in range(0, len(z), step))
    ]
    return [np.concatenate(r) for r in zip(*chunks)]

