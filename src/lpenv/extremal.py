"""Equality-achieving step-function pairs for a prescribed cone point.

Each constructor returns a pair (f, g) on [0,1] whose norm triple equals
the target and whose |f+g|_p^p attains the corresponding envelope:
swap pairs for F_p, block pairs (with zeros for p > 0 and +inf atoms for
p < 0) for G_p.
"""

import math

from .powers import INF, TINY, sqrt_product, xpow
from .stepfun import StepFunction


def extremal_F(p, t):
    """Swap pair (a,b) on [0,c], (b,a) on [c,1] attaining F_p at t.

    a^p and b^p are the roots of s^2 - (x+y)s + z^2, and c places the swap
    point so the first moments match.
    """
    x, y, z = t.x, t.y, t.z
    s = x + y
    if s == 0.0:
        raise ValueError("degenerate target: x + y must be positive")
    sq = sqrt_product(max(0.0, s - 2.0 * z), s + 2.0 * z)
    big = 0.5 * (s + sq)
    zz = z * z  # small = (s - sq)/2, stable; z*(z/big) off zz's normal range
    small = zz / big if TINY <= zz < INF else z * (z / big)
    c = 0.5 if sq == 0.0 else min(1.0, max(0.0, 0.5 + (x - y) / (2.0 * sq)))
    a, b = xpow(big, 1.0 / p.p), xpow(small, 1.0 / p.p)
    if 0.0 < c < 1.0:
        return StepFunction((0.0, c, 1.0), (a, b)), StepFunction((0.0, c, 1.0), (b, a))
    fv, gv = (b, a) if c <= 0.0 else (a, b)  # c = 0 or 1: each function is one block
    return StepFunction.constant(fv), StepFunction.constant(gv)


def extremal_G(p, t):
    """Block pair attaining G_p at t.

    On the triangular cone z <= min(x,y): shared block a on [0,1/2] plus
    disjoint blocks b, c. Otherwise a two-block pair where the smaller
    function is a single block fully inside the other's support. The
    blocks outside a function's support hold 0 for p > 0 and +inf for
    p < 0, which contributes 0 to p-th powers.
    """
    x, y, z = t.x, t.y, t.z
    if p.p < 0 and (z <= 0.0 or x <= 0.0 or y <= 0.0):
        raise ValueError(
            "extremal_G needs x, y, z > 0 for p < 0 (z = 0 is a limit)"
        )
    off = 0.0 if p.p > 0 else math.inf
    inv = 1.0 / p.p
    if z <= min(x, y):
        a = xpow(2.0 * z, inv)
        b = xpow(4.0 * (x - z), inv)
        c = xpow(4.0 * (y - z), inv)
        bp = (0.0, 0.5, 0.75, 1.0)
        return StepFunction(bp, (a, b, off)), StepFunction(bp, (a, off, c))
    lo, hi = (y, x) if y <= x else (x, y)
    a = xpow(2.0 * z * z / lo, inv)
    b = xpow(2.0 * lo, inv)
    c = xpow(max(0.0, 2.0 * hi - 2.0 * z * z / lo), inv)
    wide = StepFunction((0.0, 0.5, 1.0), (a, c))  # the function of the larger norm
    block = StepFunction((0.0, 0.5, 1.0), (b, off))  # the smaller's single block
    return (wide, block) if y <= x else (block, wide)
