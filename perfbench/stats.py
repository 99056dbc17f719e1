"""Order statistics shared by the benchmark and its spread check."""

import math
import statistics

# a tail percentile must leave at least this many samples above it
TAIL_MIN_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile of ``samples`` with at least 10 samples beyond it.

    Returns ``(value, percentile, count)``.  The k-th smallest of n samples
    (1-based) has n - k samples beyond it, so the rule picks k = n - 10 and
    reports it as the floor of 100 k / n.  With 10 samples or fewer no
    percentile qualifies; the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_MIN_BEYOND:
        return xs[-1], 100, n
    k = n - TAIL_MIN_BEYOND
    return xs[k - 1], math.floor(100 * k / n), n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
