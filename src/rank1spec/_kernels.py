"""Hot numeric kernel: sums of pole terms over many evaluation points.

One chunked numpy broadcast.  Input arrays are expected pre-ordered from the
largest |index| inward so that the smallest terms accumulate first.
"""

import numpy as np

BACKEND = "numpy"

# chunk size, in (terms x points) products
_CHUNK = 4_000_000


def _pair(c, lam, z, p):
    # terms x points: each sum adds whole rows, term by term in input order,
    # so the smallest terms (largest |index|, first in the input) go first
    diff = lam[:, np.newaxis] - z
    t = c[:, np.newaxis] / diff
    for _ in range(p - 1):  # repeated quotients: a complex power costs more
        t /= diff
    s = t.sum(axis=0)
    t /= diff
    return s, t.sum(axis=0)


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
    step = max(1, _CHUNK // len(c))
    lo = np.empty(n, dtype=np.complex128)
    hi = np.empty(n, dtype=np.complex128)
    for i in range(0, n, step):
        lo[i : i + step], hi[i : i + step] = _pair(c, lam, z[i : i + step], p)
    return lo, hi
