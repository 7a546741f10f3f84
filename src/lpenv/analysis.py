"""Sign-analysis functions behind the concavity/convexity claims,
plus the torsion of the boundary space curve in closed form.

The sign tables these produce certify numerically which of the two
closed-form envelopes is concave and which is convex in each exponent
regime.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .powers import fan_power, xpow

# Values below this magnitude count as exact zeros in sign tables.
ZERO_TOL = 1e-12


def v_fn(x, p):
    """x^(2/p-1) + (2/p-1)*x^(1/p-1)*(1-x) - 1 on (0, 1].

    Its sign equals the sign of the second derivative of the chord profile
    of F_p: <= 0 (concave) for p in (0,1) u (2,inf), >= 0 otherwise.
    """
    pp = p.p
    return (
        xpow(x, 2.0 / pp - 1.0)
        + (2.0 / pp - 1.0) * xpow(x, 1.0 / pp - 1.0) * (1.0 - x)
        - 1.0
    )


def g_fn(x, p):
    """(1 + (2/p-1)x) - (1+x)^(2-p) on [0, 1].

    <= 0 for p in (1,2), >= 0 for p in (0,1] u [2,inf); controls the sign
    of h''.
    """
    pp = p.p
    return 1.0 + (2.0 / pp - 1.0) * x - xpow(1.0 + x, 2.0 - pp)


def h_fn_d2(t, p):
    """h'' of h = h~ - t - 1/t: 2 t^-3 [(1+t^(2/p))^(p-2)(1+(2/p-1)t^(2/p)) - 1]."""
    _require_unit_interval(t)
    pp = p.p
    u = xpow(t, 2.0 / pp)
    return 2.0 * xpow(t, -3.0) * (
        xpow(1.0 + u, pp - 2.0) * (1.0 + (2.0 / pp - 1.0) * u) - 1.0)


def h_tilde_fn_d2(t, p):
    """h~'' of h~(t) = (t^(1/p) + t^(-1/p))^p on (0, 1], G_p's fan coefficient."""
    _require_unit_interval(t)
    pp, inv = p.p, 1.0 / p.p
    return (2.0 * xpow(t, -2.0) * fan_power(t, pp, pp - 2.0)
            * (xpow(t, -2.0 * inv) + (2.0 / pp - 1.0)))


def _require_unit_interval(t):
    if not np.all((0.0 < t) & (t <= 1.0)):
        raise ValueError("t must lie in (0, 1], got %r" % (t,))


def sign_of(value, tol=ZERO_TOL):
    """0 within tol of zero, else 1 above and -1 below or at NaN; floats or arrays."""
    sign = np.where(np.abs(value) <= tol, 0, np.where(value > 0, 1, -1))
    return sign if sign.ndim else int(sign)


@dataclass
class TorsionReport:
    count: int
    location: float
    direction: str
    blowups: list = field(default_factory=list)


def torsion(p, s):
    """The torsion of gamma = (s, y, phi) = (s, sqrt(1-s^2), phi_p(s)) and
    its sign at each entry of the array s in (-1, 1), for p outside {1, 2}.

    With q = 1/p, A = 1 + s, B = 1 - s, a = A^q, b = B^q and u = a + b:
    y' = -s/sqrt(AB), y'' = -(AB)^(-3/2), phi' = u^(p-1) (a/A - b/B) and
    phi'' = 4(q-1) u^(p-2) ab/(AB)^2. The numerator y'' phi''' - y''' phi''
    of (gamma' x gamma'').gamma''' reduces to phi'' (2q-1)(a-b)/(u (AB)^2.5),
    over |gamma' x gamma''|^2 = (y' phi'' - phi' y'')^2 + phi''^2 + y''^2 > 0.
    The sign, sign(q-1) sign(2q-1) sign(a-b), is taken as that product, so
    it holds where the value underflows to 0 (|p| <= 0.005): one change, at
    s = 0. a and b are scaled by the larger, e^m, through their logarithms,
    so nothing overflows at small |p|; e^(mp) is left in phi' and phi''.
    """
    q, A, B = 1.0 / p.p, 1.0 + s, 1.0 - s
    AB = A * B
    la, lb = q * np.log1p(s), q * np.log1p(-s)
    m = np.maximum(la, lb)
    a, b = np.exp(la - m), np.exp(lb - m)
    dy, ddy = -s / np.sqrt(AB), -AB ** -1.5
    with np.errstate(over="ignore", invalid="ignore"):
        u, scale = a + b, np.exp(m * p.p)
        dphi = scale * u ** (p.p - 1.0) * (a / A - b / B)
        ddphi = 4.0 * (q - 1.0) * scale * u ** (p.p - 2.0) * a * b / (AB * AB)
        num = ddphi * (2.0 * q - 1.0) * (a - b) / (u * AB ** 2.5)
        tau = num / ((dy * ddphi - dphi * ddy) ** 2 + ddphi ** 2 + ddy ** 2)
    return tau, np.sign(q - 1.0) * np.sign(2.0 * q - 1.0) * np.sign(a - b)


def torsion_sign_changes(p, grid=512):
    """Count sign changes of the torsion's exact signs over a grid in
    (-1, 1); grid points where its value is not finite are reported as
    blowups and left out of the count."""
    if p.p in (1.0, 2.0):
        raise ValueError("torsion vanishes identically at p in {1, 2}")
    if grid < 3:  # the smallest grid with s = 0 and a point on each side
        raise ValueError("grid must be at least 3, got %d" % grid)
    ss = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, grid)
    tau, seq = torsion(p, ss)
    good = np.isfinite(tau)
    keep = good & (seq != 0)
    tau, pos, seq = tau[keep], ss[keep], seq[keep]
    flips = np.flatnonzero(seq[1:] != seq[:-1])
    location, direction = math.nan, ""
    if len(flips):
        # linear interpolation of the last crossing between its two samples
        i = flips[-1] + 1
        t0, t1 = tau[i - 1], tau[i]
        location = pos[i - 1] + (pos[i] - pos[i - 1]) * (-t0) / (t1 - t0)
        direction = "minus_to_plus" if seq[i] > seq[i - 1] else "plus_to_minus"
    return TorsionReport(len(flips), location, direction, ss[~good].tolist())
