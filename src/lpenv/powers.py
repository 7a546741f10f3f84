"""Extended-real power helper and the two power-sum maps built on it.

All envelope and norm code routes powers through :func:`xpow` so the
negative-exponent conventions hold bit-exactly at boundary points:

    xpow(0, e) = +inf   for e < 0
    xpow(inf, e) = 0    for e < 0
    xpow(inf, e) = +inf for e > 0
"""

import math
import sys

import numpy as np

INF = math.inf
TINY = sys.float_info.min  # the smallest normal float


def xpow(base, expo):
    """base ** expo on [0, +inf] with the negative-power conventions; a
    float array of bases is taken entry by entry, as by xpow_array."""
    if type(base) is float:
        if 0.0 < base < INF:  # base ** 0 is 1.0, as expo == 0 gives below
            try:
                return base ** expo
            except OverflowError:
                pass  # raised again below, naming the power
    elif type(base) is np.ndarray:
        return xpow_array(base, expo)
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


def xpow_array(base, expo):
    """xpow over a 1-d float array, bit for bit, in any numpy error state:
    np.float_power (libm's pow, as ** calls it; np.power's SIMD loops move
    last bits), -0.0 as 0.0, and xpow itself on NaN and negative entries."""
    with np.errstate(all="ignore"):
        out = np.float_power(base, expo)
    out[base == 0.0] = xpow(0.0, expo)
    other = ~(base >= 0.0)
    if other.any():
        out[other] = [xpow(b, expo) for b in base[other].tolist()]
    if np.isinf(out).any():  # a finite positive base may have overflowed
        for b in base[np.isinf(out) & (base > 0.0) & (base < INF)].tolist():
            xpow(b, expo)  # raises xpow's OverflowError, naming the power
    return out


def sqrt_product(u, v):
    """sqrt(u*v) for u, v >= 0, as sqrt(u)*sqrt(v) only where u*v overflowed
    or left the normal range, so every other product keeps sqrt(u*v)'s bits."""
    uv = u * v
    return math.sqrt(uv) if TINY <= uv < INF else math.sqrt(u) * math.sqrt(v)


def power_sum(u, v, p):
    """(u^(1/p) + v^(1/p))^p, the power sum behind F_p and phi_p."""
    inv = 1.0 / p
    return xpow(xpow(u, inv) + xpow(v, inv), p)


def fan_power(t, p, e):
    """(t^(1/p) + t^(-1/p))^e: G_p's fan coefficient h~ at e = p, and a
    factor of h~'' at e = p - 2."""
    inv = 1.0 / p
    return xpow(xpow(t, inv) + xpow(t, -inv), e)
