"""Hot numeric kernel: sums of pole terms over many evaluation points.

One chunked numpy broadcast.  Input arrays are expected pre-ordered from the
largest |index| inward so that the smallest terms accumulate first.
"""

import numpy as np

BACKEND = "numpy"

# chunk size, in (terms x points) products
_CHUNK = 4_000_000


def pole_sum(c, lam, z, p=1):
    """sum_k c_k / (lam_k - z_j)**p for each point z_j (p >= 1)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    n = len(z)
    out = np.zeros(n, dtype=np.complex128)
    if len(c) == 0:
        return out
    step = max(1, _CHUNK // len(c))
    for i in range(0, n, step):
        diff = lam[np.newaxis, :] - z[i : i + step, np.newaxis]
        if p != 1:  # a complex power costs more than the division itself
            diff = diff**p
        out[i : i + step] = (c[np.newaxis, :] / diff).sum(axis=1)
    return out
