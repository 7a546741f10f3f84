"""The torsion sign-change detector, one grid point at a time.

``torsion_sign_changes`` is the reference for
``lpenv.analysis.torsion_sign_changes``: the array version must return the
same count, location, direction and blowups, repr for repr, on every
exponent and grid. It evaluates the boundary curve at each stencil point
and counts sign changes in a Python loop.
"""

import math

import numpy as np

from lpenv.analysis import TorsionReport, _fd
from lpenv.oracle import boundary_value


def _curve_point(p, s):
    return np.array([s, math.sqrt(max(0.0, 1.0 - s * s)), boundary_value(p, s)])


def torsion_sign_changes(p, grid=512, margin=1e-3):
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
