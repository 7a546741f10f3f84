"""Extended-real power helper.

All envelope and norm code routes powers through :func:`xpow` so the
negative-exponent conventions hold bit-exactly at boundary points:

    xpow(0, e) = +inf   for e < 0
    xpow(inf, e) = 0    for e < 0
    xpow(inf, e) = +inf for e > 0
"""

import math

INF = math.inf


def xpow(base, expo):
    """base ** expo on [0, +inf] with the negative-power conventions."""
    if base < 0:
        raise ValueError("xpow requires a nonnegative base, got %r" % (base,))
    if expo == 0:
        return 1.0
    if base == 0:
        return INF if expo < 0 else 0.0
    if math.isinf(base):
        return 0.0 if expo < 0 else INF
    try:
        return base ** expo
    except OverflowError:
        raise OverflowError(
            "%r ** %r overflows the float range" % (base, expo)) from None
