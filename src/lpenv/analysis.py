"""Sign-analysis functions behind the concavity/convexity claims,
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
    return h_tilde_fn_d1(t, p) - (1.0 - xpow(t, -2.0))


def h_fn_d2(t, p):
    """Simplified closed form 2 t^-3 [(1+t^(2/p))^(p-2)(1+(2/p-1)t^(2/p)) - 1]."""
    _require_unit_interval(t)
    pp = p.p
    u = xpow(t, 2.0 / pp)
    return 2.0 * xpow(t, -3.0) * (
        xpow(1.0 + u, pp - 2.0) * (1.0 + (2.0 / pp - 1.0) * u) - 1.0)


def h_tilde_fn(t, p):
    """(t^(1/p) + t^(-1/p))^p on (0, 1]; for p < 0 concave with h'(1) = 0."""
    _require_unit_interval(t)
    return fan_power(t, p.p, p.p)


def h_tilde_fn_d1(t, p):
    _require_unit_interval(t)
    pp, inv = p.p, 1.0 / p.p
    return (fan_power(t, pp, pp - 1.0)
            * (xpow(t, inv - 1.0) - xpow(t, -inv - 1.0)))


def h_tilde_fn_d2(t, p):
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


def _curve(p, s):
    """gamma at each entry of the array s, as a 3 x len(s) array."""
    return np.array([s, np.sqrt(np.maximum(0.0, 1.0 - s * s)), boundary_value(p, s)])


def _fd(f, h, order):
    """Fourth-order central differences for derivatives 1 and 2, second
    order for derivative 3, from the values f[k] = fun(s + k*h)."""
    if order == 1:
        return (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * h)
    if order == 2:
        return (-f[2] + 16 * f[1] - 30 * f[0] + 16 * f[-1] - f[-2]) / (12 * h * h)
    return (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * h ** 3)


def _dots(a, b):
    """The column dot products of the 3 x n arrays a and b, each by 1-d
    a @ b's loop: a plain sum of the three products rounds differently."""
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    return (a[:, None, :] @ b[:, :, None]).ravel()


@dataclass
class TorsionReport:
    count: int
    location: float
    direction: str
    blowups: list = field(default_factory=list)


def torsion_sign_changes(p, grid=512):
    """Count sign changes of the Frenet torsion of the boundary curve
    gamma(s) = (s, sqrt(1-s^2), phi_p(s)) over s in (-1, 1).

    Derivatives come from finite differences at all grid points at once
    (steps 1e-5 for gamma', gamma'' and 1e-3 for gamma'''); grid points
    where the stencil leaves the domain or produces non-finite values are
    reported as blowups, not silently dropped into the sign count.
    """
    if p.p in (1.0, 2.0):
        raise ValueError("torsion vanishes identically at p in {1, 2}")
    if abs(p.p) < 0.3:  # the steps below do not resolve phi_p there
        raise ValueError("torsion needs |p| >= 0.3, got p = %r" % p.p)
    if grid < 3:  # no smaller grid has a point whose stencil fits in (-1, 1)
        raise ValueError("grid must be at least 3, got %d" % grid)
    h12, h3 = 1e-5, 1e-3
    ss = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, grid)
    inside = np.abs(ss) + 3 * h3 < 1.0
    s = ss[inside]
    fine = {k: _curve(p, s + k * h12) for k in (-2, -1, 0, 1, 2)}
    coarse = {k: _curve(p, s + k * h3) for k in (-2, -1, 1, 2)}
    cross = np.cross(_fd(fine, h12, 1), _fd(fine, h12, 2), axis=0)
    tau = np.full(grid, math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau[inside] = _dots(cross, _fd(coarse, h3, 3)) / _dots(cross, cross)
    good = np.isfinite(tau)
    tau, pos = tau[good], ss[good]
    seq = sign_of(tau, 1e-9 * np.max(np.abs(tau)))
    tau, pos, seq = tau[seq != 0], pos[seq != 0], seq[seq != 0]
    flips = np.flatnonzero(seq[1:] != seq[:-1])
    location, direction = math.nan, ""
    if len(flips):
        # linear interpolation of the last crossing between its two samples
        i = flips[-1] + 1
        t0, t1 = tau[i - 1], tau[i]
        location = pos[i - 1] + (pos[i] - pos[i - 1]) * (-t0) / (t1 - t0)
        direction = "minus_to_plus" if seq[i] > seq[i - 1] else "plus_to_minus"
    return TorsionReport(len(flips), location, direction, ss[~good].tolist())
