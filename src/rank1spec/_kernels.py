"""Hot numeric kernel: sums of pole terms over many evaluation points.

One chunked numpy broadcast.  Input arrays are expected pre-ordered from the
largest |index| inward so that the smallest terms accumulate first; every
point's sums run term by term in that order, however many points share a
call.
"""

import numpy as np

BACKEND = "numpy"

# chunk size, in (terms x points) products: 1 MB complex temporaries
_CHUNK = 2**16


def _pair(c, lam, z, p):
    # terms x points: numpy reduces a wider array row by row, term by term in
    # input order, but a single column pairwise; a lone point is therefore
    # doubled so that its sums take the same order as any other point's
    n = len(z)
    if n == 1:
        z = np.repeat(z, 2)
    diff = lam[:, np.newaxis] - z
    t = c[:, np.newaxis] / diff
    for _ in range(p - 1):  # repeated quotients: a complex power costs more
        t /= diff
    s = t.sum(axis=0)
    t /= diff
    return s[:n], t.sum(axis=0)[:n]


def pole_sum(c, lam, z, p=1):
    """(sum_k c_k / d_kj**p, sum_k c_k / d_kj**(p+1)) with d_kj = lam_k - z_j.

    One pass forms the differences d once and gives both sums for each
    point z_j (p >= 1): F - 1 and F' at p = 1.  The quotients c/d are the
    terms of F as written, without the extra rounding of a reciprocal.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    n = len(z)
    if len(c) == 0:
        return np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128)
    step = max(2, _CHUNK // len(c))  # two points or more, so a lone point is rare
    lo = np.empty(n, dtype=np.complex128)
    hi = np.empty(n, dtype=np.complex128)
    for i in range(0, n, step):
        lo[i : i + step], hi[i : i + step] = _pair(c, lam, z[i : i + step], p)
    return lo, hi
