"""Independent high-precision reference evaluations (mpmath, 50 digits).

These never call into lpenv; they re-derive every closed form directly so
the test suite has a second, independent route to each value.
"""

import mpmath as mp

mp.mp.dps = 50


def ref_F(p, x, y, z):
    p, x, y, z = map(mp.mpf, (p, x, y, z))
    if x + y == 0:
        return mp.mpf(0)
    w = 2 * z / (x + y)
    r = mp.sqrt((1 - w) * (1 + w))
    if p < 0 and r == 1:
        return mp.mpf(0)
    return (x + y) / 2 * ((1 + r) ** (1 / p) + (1 - r) ** (1 / p)) ** p


def ref_G(p, x, y, z):
    p, x, y, z = map(mp.mpf, (p, x, y, z))
    if z == 0:
        return x + y if p > 0 else mp.mpf(0)
    v = min(x / z, y / z, mp.mpf(1))
    if p > 0:
        return x + y + ((v ** (1 / p) + v ** (-1 / p)) ** p - v - 1 / v) * z
    return (v ** (1 / p) + v ** (-1 / p)) ** p * z


def ref_carlen(p, x, y, z):
    p, x, y, z = map(mp.mpf, (p, x, y, z))
    if x + y == 0:
        return mp.mpf(0)
    gamma = 2 * z / (x + y)
    if gamma == 0 and p < 0:
        return mp.mpf(0)
    return (1 + gamma ** (2 / p)) ** (p - 1) * (x + y)


def ref_two_point(q, x):
    q, x = mp.mpf(q), mp.mpf(x)
    lhs = ((1 + x) ** q + (1 - x) ** q) / 2 if x < 1 or q >= 0 else mp.inf
    if x == 1 and q < 0:
        return mp.inf, mp.inf
    rhs = ((1 + (1 - x ** 2) ** q) / 2) ** (1 - q)
    return lhs, rhs


def ref_h(p, t):
    p, t = mp.mpf(p), mp.mpf(t)
    return (t ** (1 / p) + t ** (-1 / p)) ** p - t - 1 / t


def ref_h_tilde(p, t):
    p, t = mp.mpf(p), mp.mpf(t)
    return (t ** (1 / p) + t ** (-1 / p)) ** p


def ref_diff(fun, t, order=1):
    return mp.diff(fun, mp.mpf(t), order)


def ref_torsion(p, s):
    """The torsion (g1 x g2) . g3 / |g1 x g2|^2 of the boundary curve
    g(t) = (t, sqrt(1-t^2), ((1+t)^(1/p) + (1-t)^(1/p))^p) at t = s, with
    g1, g2 and g3 its derivatives taken numerically by mp.diff."""
    p = mp.mpf(p)
    parts = (lambda t: t, lambda t: mp.sqrt(1 - t * t),
             lambda t: ((1 + t) ** (1 / p) + (1 - t) ** (1 / p)) ** p)
    g1, g2, g3 = ([ref_diff(f, s, k) for f in parts] for k in (1, 2, 3))
    cross = [g1[1] * g2[2] - g1[2] * g2[1], g1[2] * g2[0] - g1[0] * g2[2],
             g1[0] * g2[1] - g1[1] * g2[0]]
    return mp.fdot(cross, g3) / mp.fdot(cross, cross)
