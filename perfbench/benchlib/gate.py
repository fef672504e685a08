"""The correctness gate: every answer is checked against an exact reference
within the stated tolerance of the engine that produced it. The tolerances
are those of tests/test_engine_parity.cpp."""

import math
from fractions import Fraction

# Relative slack for a reference that is itself a rounded double: the exact
# engine's value is one correctly rounded image of an exact rational.
ULP = 2.0 ** -52


def engine_tolerance(engine, certificate=None, trials=200000, request_tol=1e-9):
    """Allowed |value - exact| for a value answered by `engine`.

    `certificate` is the compiled plan's certified max-error bound for the
    instance. Raises KeyError for an engine with no stated tolerance, so a
    new engine cannot pass the gate silently.
    """
    if engine == "exact":
        return 0.0
    if engine in ("kernel", "batch"):
        return 1e-9
    if engine == "compiled":
        if certificate is None:
            raise KeyError("compiled answer without a plan certificate")
        return certificate + 1e-12
    if engine == "certified":
        return request_tol + 1e-12
    if engine == "mc":
        return 6.5 * math.sqrt(0.25 / trials)
    raise KeyError("engine '%s' has no stated tolerance" % engine)


def within(value, reference, tolerance):
    """|value - reference| <= tolerance, allowing two units in the last place
    for the rounding of the reference and of the value. `reference` may be a
    float or an exact Fraction."""
    if not math.isfinite(value):
        return False
    slack = tolerance + 2 * ULP * max(abs(value), abs(float(reference)))
    return abs(Fraction(value) - Fraction(reference)) <= Fraction(slack)


def enclosure_contains(midpoint, width, exact):
    """A certified row prints the midpoint and width of its enclosure as
    doubles; it passes when [midpoint - width/2, midpoint + width/2] contains
    the exact value, up to the rounding of those two doubles."""
    return within(midpoint, exact, width / 2 + ULP * width)
