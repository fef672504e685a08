"""Percentiles and spreads, with the tail rule the benchmark reports by."""

import math

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty sequence."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[lo] == ordered[hi]:
        return ordered[lo]  # also keeps inf samples from producing nan
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values)


def stderr(values):
    """Standard error of the mean (0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1) / len(values))


def median(values):
    return quantile(values, 0.5)


def better_quartile(values, higher_is_better):
    """The quartile of repeated measurements on the better side: the upper
    quartile of a rate, the lower quartile of a time. Interference from a
    shared host only ever makes a round slower, so the better rounds are
    the ones that repeat; the quartile, unlike the best round, does not
    hang on one lucky measurement."""
    return quantile(values, 0.75 if higher_is_better else 0.25)


def samples_beyond(count, q):
    """How many of `count` samples lie strictly above the q-quantile."""
    return count - 1 - math.floor(q * (count - 1))


def tail_ok(count, q):
    """True when the q-quantile of `count` samples has TAIL_SAMPLES beyond it."""
    return count > 0 and samples_beyond(count, q) >= TAIL_SAMPLES
