"""Scalar sign-analysis functions behind the concavity/convexity claims,
plus the torsion of the boundary space curve.

The sign tables these produce certify numerically which of the two
closed-form envelopes is concave and which is convex in each exponent
regime.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import boundary_value
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


def h_fn(t, p):
    """(t^(1/p) + t^(-1/p))^p - t - 1/t on (0, 1], for p > 0."""
    return h_tilde_fn(t, p) - t - 1.0 / t


def h_fn_d1(t, p):
    return h_tilde_fn_d1(t, p) - (1.0 - t ** -2.0)


def h_fn_d2(t, p):
    """Simplified closed form 2 t^-3 [(1+t^(2/p))^(p-2)(1+(2/p-1)t^(2/p)) - 1]."""
    _require_unit_interval(t)
    pp = p.p
    u = xpow(t, 2.0 / pp)
    return 2.0 * t ** -3.0 * (xpow(1.0 + u, pp - 2.0) * (1.0 + (2.0 / pp - 1.0) * u) - 1.0)


def h_tilde_fn(t, p):
    """(t^(1/p) + t^(-1/p))^p on (0, 1]; for p < 0 concave with h'(1) = 0."""
    _require_unit_interval(t)
    return fan_power(t, p.p, p.p)


def h_tilde_fn_d1(t, p):
    _require_unit_interval(t)
    pp = p.p
    inv = 1.0 / pp
    return (fan_power(t, pp, pp - 1.0)
            * (xpow(t, inv - 1.0) - xpow(t, -inv - 1.0)))


def h_tilde_fn_d2(t, p):
    _require_unit_interval(t)
    pp = p.p
    inv = 1.0 / pp
    return (2.0 * t ** -2.0 * fan_power(t, pp, pp - 2.0)
            * (xpow(t, -2.0 * inv) + (2.0 / pp - 1.0)))


def _require_unit_interval(t):
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1], got %r" % (t,))


def sign_of(value, tol=ZERO_TOL):
    if abs(value) <= tol:
        return 0
    return 1 if value > 0 else -1


def _curve_point(p, s):
    return np.array([s, math.sqrt(max(0.0, 1.0 - s * s)), boundary_value(p, s)])


def _fd(f, h, order):
    """Fourth-order central differences for derivatives 1 and 2, second
    order for derivative 3, from the values f[k] = fun(s + k*h)."""
    if order == 1:
        return (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * h)
    if order == 2:
        return (-f[2] + 16 * f[1] - 30 * f[0] + 16 * f[-1] - f[-2]) / (12 * h * h)
    return (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * h ** 3)


@dataclass
class TorsionReport:
    count: int
    location: float
    direction: str
    blowups: list = field(default_factory=list)


def torsion_sign_changes(p, grid=512, margin=1e-3):
    """Count sign changes of the Frenet torsion of the boundary curve
    gamma(s) = (s, sqrt(1-s^2), phi_p(s)) over s in (-1, 1).

    Derivatives come from finite differences (steps 1e-5 for gamma',
    gamma'' and 1e-3 for gamma'''); grid points where the stencil leaves
    the domain or produces non-finite values are reported as blowups, not
    silently dropped into the sign count.
    """
    if p.p in (1.0, 2.0):
        raise ValueError("torsion vanishes identically at p in {1, 2}")
    h12, h3 = 1e-5, 1e-3
    ss = np.linspace(-1.0 + margin, 1.0 - margin, grid)
    taus, locs, blowups = [], [], []
    fun = lambda s: _curve_point(p, s)
    for s in ss:
        if abs(s) + 3 * h3 >= 1.0:
            blowups.append(float(s))
            continue
        fine = {k: fun(s + k * h12) for k in (-2, -1, 0, 1, 2)}
        coarse = {k: fun(s + k * h3) for k in (-2, -1, 1, 2)}
        d1 = _fd(fine, h12, 1)
        d2 = _fd(fine, h12, 2)
        d3 = _fd(coarse, h3, 3)
        cross = np.cross(d1, d2)
        denom = float(cross @ cross)
        tau = float(cross @ d3) / denom if denom > 0 else math.nan
        if not math.isfinite(tau):
            blowups.append(float(s))
            continue
        taus.append(tau)
        locs.append(float(s))
    taus = np.array(taus)
    locs = np.array(locs)
    tol = 1e-9 * np.max(np.abs(taus))
    signs = np.where(np.abs(taus) <= tol, 0, np.sign(taus)).astype(int)
    nz = signs != 0
    seq = signs[nz]
    pos = locs[nz]
    count = 0
    location = math.nan
    direction = ""
    for i in range(1, len(seq)):
        if seq[i] != seq[i - 1]:
            count += 1
            # linear interpolation of the crossing between the two samples
            t0, t1 = taus[nz][i - 1], taus[nz][i]
            location = pos[i - 1] + (pos[i] - pos[i - 1]) * (-t0) / (t1 - t0)
            direction = (
                "minus_to_plus" if seq[i] > seq[i - 1] else "plus_to_minus"
            )
    return TorsionReport(count=count, location=location, direction=direction,
                         blowups=blowups)
