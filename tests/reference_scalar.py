"""The scalar list kernel's power loop, the StepFunction and ConeTriple
checks one Python comparison at a time, and the extremal constructors
built through helper calls.

These are the references for ``stepfun._integral``, ``StepFunction``,
``ConeTriple``, ``extremal.extremal_F`` and ``extremal.extremal_G``: on every
input they must give the same result by repr, or raise the same exception
type with the same message.
"""

import math
import sys
from dataclasses import dataclass

from lpenv.envelopes import EPS_CS
from lpenv.powers import INF, xpow
from lpenv.stepfun import StepFunction


def integral(breakpoints, values, expo):
    """Sum of (b - a) * xpow(v, expo) in interval order; +inf as soon as
    one term is."""
    if expo == 0:
        raise ValueError("p must be nonzero")
    total = 0.0
    for a, b, v in zip(breakpoints, breakpoints[1:], values):
        term = xpow(v, expo)
        if math.isinf(term):
            return INF
        total += (b - a) * term
    return total


def step_function(breakpoints, values):
    """StepFunction's (breakpoints, values) tuples, checked in its order."""
    bp, vals = tuple(map(float, breakpoints)), tuple(map(float, values))
    if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValueError("breakpoints must run from 0 to 1")
    if not all(b1 < b2 for b1, b2 in zip(bp, bp[1:])):  # NaN fails too
        raise ValueError("breakpoints must be strictly increasing")
    if len(vals) != len(bp) - 1:
        raise ValueError("need exactly one value per interval")
    if any(math.isnan(v) or v < 0 for v in vals):
        raise ValueError("values must be nonnegative (or +inf)")
    return bp, vals


@dataclass(frozen=True)
class ConeTriple:
    """envelopes.ConeTriple as a generated __init__ plus __post_init__,
    which sets each field a second time."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        for name, val in (("x", x), ("y", y), ("z", z)):
            if not math.isfinite(val) or val < 0:
                raise ValueError(
                    "%s must be a finite nonnegative real, got %r" % (name, val)
                )
        xy = x * y
        bound = (math.sqrt(xy) if sys.float_info.min <= xy < math.inf
                 else math.sqrt(x) * math.sqrt(y))
        if z > bound:
            slack = EPS_CS * max(bound, 0.5 * x + 0.5 * y)
            if z - bound > slack:
                raise ValueError(
                    "z=%r violates Cauchy-Schwarz: sqrt(x*y)=%r" % (z, bound)
                )
            z = bound
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


def _two_block(c, left, right):
    if c <= 0.0:
        return StepFunction.constant(right)
    if c >= 1.0:
        return StepFunction.constant(left)
    return StepFunction((0.0, c, 1.0), (left, right))


def extremal_F(p, t):
    """extremal.extremal_F with each function built by _two_block."""
    x, y, z = t.x, t.y, t.z
    s = x + y
    if s == 0.0:
        raise ValueError("degenerate target: x + y must be positive")
    u, v = max(0.0, s - 2.0 * z), s + 2.0 * z
    disc = u * v
    # each product taken apart where it overflows or leaves the normal range
    if sys.float_info.min <= disc < INF:
        sq = math.sqrt(disc)
    else:
        sq = math.sqrt(u) * math.sqrt(v)
    big = 0.5 * (s + sq)
    if sys.float_info.min <= z * z < INF:
        small = z * z / big
    else:
        small = z * (z / big)
    if sq == 0.0:
        c = 0.5
    else:
        c = min(1.0, max(0.0, 0.5 + (x - y) / (2.0 * sq)))
    inv = 1.0 / p.p
    a = xpow(big, inv)
    b = xpow(small, inv)
    return _two_block(c, a, b), _two_block(c, b, a)


def extremal_G(p, t):
    """extremal.extremal_G with y > x taken by a call on the swapped triple."""
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
        return (StepFunction((0.0, 0.5, 0.75, 1.0), (a, b, off)),
                StepFunction((0.0, 0.5, 0.75, 1.0), (a, off, c)))
    if y <= x:
        a = xpow(2.0 * z * z / y, inv)
        b = xpow(2.0 * y, inv)
        c = xpow(max(0.0, 2.0 * x - 2.0 * z * z / y), inv)
        f = StepFunction((0.0, 0.5, 1.0), (a, c))
        g = StepFunction((0.0, 0.5, 1.0), (b, off))
        return f, g
    g, f = extremal_G(p, type(t)(y, x, z))
    return f, g
