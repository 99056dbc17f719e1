"""A fixed reference computation that scales the timings to one machine speed.

The host this benchmark was built on runs every operation up to 1.6× slower
for minutes at a time, the fastest repeats too (README.md, *Timing under
shared load*).  ``kernel`` is a small, fixed mix of the same kinds of work as
a solve: a numpy pole sum, and many tiny numpy calls with Python-level
complex arithmetic between them.  It uses nothing from ``rank1spec``, so no
change to the package changes its cost.  The timed phase runs it after every
operation, and a timing is reported as measured × ``NOMINAL_S`` ÷ the
kernel's time in the same run: seconds at the speed at which the kernel
takes ``NOMINAL_S``.
"""

import time

import numpy as np

# the kernel's best time on the machine of BASELINE.md when the host leaves
# its core alone; busy, the same kernel takes up to 1.8 times as long
NOMINAL_S = 1.2e-3
# repeats of the kernel after set-up, whose best time scales setup_s
SETUP_REPEATS = 25

_rng = np.random.default_rng(0)
_POLES = _rng.standard_normal(300) + 1j * _rng.standard_normal(300)
_WEIGHTS = _rng.standard_normal(300)
_NODES = 3.0 + 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)


def _scalar(x, y):
    return x * y + 1j


# the pole sum writes here rather than into fresh temporaries, so that its
# time does not depend on the state of the process's heap (a fresh process
# serves 1.2 MB temporaries from new pages, a warm one from reused memory)
_BUF = np.empty((len(_POLES), len(_NODES)), dtype=complex)


def kernel():
    """About 1.2 ms of work: one pole sum of 300 terms at 256 nodes, over a
    1.2 MB buffer that leaves the core's own caches, then 120 rounds of tiny
    numpy calls and Python complex arithmetic.  Returns a checksum."""
    np.subtract(_NODES[None, :], _POLES[:, None], out=_BUF)
    np.divide(_WEIGHTS[:, None], _BUF, out=_BUF)
    acc = _BUF.sum()
    for k in range(120):
        a = np.array([k, k + 1.0, k + 2.0])
        acc += _scalar(a.sum(), complex(k)) + np.abs(a).max()
    return acc


def timed():
    """Seconds one call of ``kernel`` took."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def best_of(repeats):
    """The kernel's fastest time over ``repeats`` calls."""
    return min(timed() for _ in range(repeats))
