"""Closed-form envelopes for the sharp L^p triangle inequality.

Everything lives on the convex cone

    Omega = {(x, y, z) : x, y >= 0, 0 <= z <= sqrt(x*y)}

whose points hold the norm triple (|f|_p^p, |g|_p^p, |fg|_{p/2}^{p/2}).
Two one-homogeneous functions F_p and G_p bound |f+g|_p^p from above and
below; which is which depends on the exponent regime.
"""

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .powers import INF, fan_power, power_sum, sqrt_product, xpow

P_MIN = 1e-3

# Relative slack allowed on the Cauchy-Schwarz constraint z <= sqrt(x*y)
# for triples computed from floating-point norms.
EPS_CS = 1e-9


@dataclass(frozen=True)
class Exponent:
    """A validated nonzero exponent with its envelope regime: F_p is the
    concave envelope (f_is_concave) for p in (0,1] u [2,inf), G_p for p in
    (-inf,0) u (1,2)."""

    p: float
    f_is_concave: bool = field(init=False)

    def __post_init__(self):
        p = self.p
        if (isinstance(p, bool) or not isinstance(p, numbers.Real)
                or not math.isfinite(p)):
            raise ValueError("exponent must be a finite real, got %r" % (p,))
        p = float(p)
        if abs(p) < P_MIN:
            raise ValueError(
                "exponent magnitude below %g is rejected (got %r)" % (P_MIN, p)
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f_is_concave", 0.0 < p <= 1.0 or p >= 2.0)


def classify(p):
    """Validate ``p`` and classify its envelope regime."""
    return Exponent(p)


@dataclass(frozen=True, init=False)
class ConeTriple:
    """A point of the cone Omega.

    z is clamped onto the boundary sqrt(x*y) when it exceeds it by at most
    EPS_CS (relative to the natural scale of the triple); beyond that the
    triple is rejected.
    """

    x: float
    y: float
    z: float

    def __init__(self, x, y, z):
        x, y, z = float(x), float(y), float(z)
        if not (0.0 <= x < INF and 0.0 <= y < INF and 0.0 <= z < INF):  # NaN fails too
            name, val = next(nv for nv in zip("xyz", (x, y, z)) if not 0.0 <= nv[1] < INF)
            raise ValueError("%s must be a finite nonnegative real, got %r" % (name, val))
        bound = sqrt_product(x, y)
        if z > bound:
            # 0.5*x + 0.5*y: x + y can overflow where their mean cannot
            slack = EPS_CS * max(bound, 0.5 * x + 0.5 * y)
            if z - bound > slack:
                raise ValueError(
                    "z=%r violates Cauchy-Schwarz: sqrt(x*y)=%r" % (z, bound)
                )
            z = bound
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def gamma(self):
        """The overlap ratio 2z/(x+y), zero at the origin."""
        s = self.x + self.y
        return 0.0 if s == 0.0 else min(2.0 * self.z / s, 1.0)

    @property
    def v(self):
        """min{x/z, y/z, 1}, set to 1 on {z = 0}."""
        if self.z > 0.0:
            return min(self.x / self.z, self.y / self.z, 1.0)
        return 1.0


def _F(s, w, p, sqrt):
    """F_p = s/2 * ((1+r)^(1/p) + (1-r)^(1/p))^p, r = sqrt(1-w^2), at
    x + y = s > 0 and w = gamma, over floats or arrays (sqrt = math.sqrt or
    np.sqrt). r = sqrt((1-w)(1+w)) (>= 0 as w <= 1) keeps relative accuracy
    as w -> 1, and 1 - r = w^2 / (1 + r) avoids cancellation as w -> 0."""
    r = sqrt((1.0 - w) * (1.0 + w))
    return 0.5 * s * power_sum(1.0 + r, w * w / (1.0 + r), p)


def _G(x, y, z, v, p):
    """G_p at z > 0 and v = min{x/z, y/z, 1}, over floats or arrays: c*z
    for p < 0, x + y + (c - v - 1/v)*z for p > 0; c = (v^(1/p) + v^(-1/p))^p."""
    coef = fan_power(v, p, p)
    return x + y + (coef - v - 1.0 / v) * z if p > 0 else coef * z


def _carlen(s, gamma, p):
    """(1 + Gamma^(2/p))^(p-1) * s at x + y = s > 0, over floats or arrays."""
    return xpow(1.0 + xpow(gamma, 2.0 / p), p - 1.0) * s


def eval_F(p, t):
    """The horizontal-chord envelope F_p at a cone point (0 at the origin)."""
    s = t.x + t.y
    return 0.0 if s == 0.0 else _F(s, t.gamma, p.p, math.sqrt)


def eval_G(p, t):
    """The corner-fan envelope G_p at a cone point (x + y or 0 on z = 0)."""
    if t.z == 0.0:
        return t.x + t.y if p.p > 0 else 0.0
    return _G(t.x, t.y, t.z, t.v, p.p)


def upper_envelope(p, t):
    """The concave envelope: pointwise supremum of |f+g|_p^p at the triple."""
    return eval_F(p, t) if p.f_is_concave else eval_G(p, t)


def lower_envelope(p, t):
    """The convex envelope: pointwise infimum of |f+g|_p^p at the triple."""
    return eval_G(p, t) if p.f_is_concave else eval_F(p, t)


def carlen_bound(p, t):
    """The (1 + Gamma^(2/p))^(p-1) * (x+y) reference bound.

    An upper bound on |f+g|_p^p for p in (0,1] u [2,inf), a lower bound for
    p in (-inf,0) u (1,2). Gamma := 0 at the origin, giving 0 there.
    """
    s = t.x + t.y
    return 0.0 if s == 0.0 else _carlen(s, t.gamma, p.p)


def envelope_arrays(p, x, y, z):
    """eval_F, eval_G, upper_envelope, lower_envelope and carlen_bound at each
    ConeTriple(x[i], y[i], z[i]), as float arrays. Rows off the open cone, z = 0
    aside, go through ConeTriple (rejected or clamped); x + y = 0 and z = 0 are masked."""
    x, y, z = (np.array(a, dtype=float) for a in (x, y, z))
    with np.errstate(over="ignore", invalid="ignore"):
        cs = np.minimum(np.sqrt(x * y), np.sqrt(x) * np.sqrt(y))
        # cs is NaN where x or y is negative, so those rows still raise
        inside = np.isfinite(x + y) & (
            (z >= 0.0) & (z < cs) | (z == 0.0) & (cs >= 0.0))
        for i in np.flatnonzero(~inside).tolist():
            z[i] = ConeTriple(x[i], y[i], z[i]).z
        s = x + y
        k = s != 0.0
        w = np.minimum(2.0 * z[k] / s[k], 1.0)
        F, C = np.zeros_like(s), np.zeros_like(s)
        F[k], C[k] = _F(s[k], w, p.p, np.sqrt), _carlen(s[k], w, p.p)
        G = s.copy() if p.p > 0 else np.zeros_like(s)
        k = z != 0.0
        v = np.minimum(np.minimum(x[k] / z[k], y[k] / z[k]), 1.0)
        G[k] = _G(x[k], y[k], z[k], v, p.p)
    return (F, G, F, G, C) if p.f_is_concave else (F, G, G, F, C)


# A margin below -MARGIN_TOL, or NaN, is a violated bound.
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Comparison of an actual |f+g|_p^p against every applicable bound.

    Margins are signed relative slacks (scale = max(1, |actual|)); a
    nonnegative margin means the corresponding inequality holds.
    """

    p: float
    triple: ConeTriple
    actual: float
    upper: float
    lower: float
    carlen: float
    margins: dict

    @staticmethod
    def at(p, t, actual):
        upper = upper_envelope(p, t)
        lower = lower_envelope(p, t)
        carlen = carlen_bound(p, t)
        scale = max(1.0, abs(actual))
        margins = {
            "upper": (upper - actual) / scale,
            "lower": (actual - lower) / scale,
        }
        # carlen bounds from above in the F-concave regime, below otherwise
        if p.f_is_concave:
            margins["carlen"] = (carlen - actual) / scale
        else:
            margins["carlen"] = (actual - carlen) / scale
        return BoundReport(
            p=p.p, triple=t, actual=actual, upper=upper, lower=lower,
            carlen=carlen, margins=margins,
        )

    def ok(self):
        return all(m >= -MARGIN_TOL for m in self.margins.values())

    def to_dict(self):
        return asdict(self)


def sum_bound(moments, overlaps, p):
    """Many-function bound: sum_j |f_j|_p^p + (2^p - 2) * sum_{i<j} overlaps.

    ``moments`` is the per-function list of p-th power norms, ``overlaps``
    the already-summed pairwise overlap total. Upper bound on
    |sum f_j|_p^p for p in [1,2], lower bound for p in (0,1] u [2,inf).
    Rejects p < 0, where the bound fails for three or more functions.
    """
    if p.p < 0:
        raise ValueError("the many-function bound requires p > 0")
    total = math.fsum(moments)
    if not math.isfinite(total) or not math.isfinite(float(overlaps)):
        raise ValueError("both sums must be finite")
    return total + (2.0 ** p.p - 2.0) * float(overlaps)
