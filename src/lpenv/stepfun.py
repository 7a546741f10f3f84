"""Weighted step functions on [0, 1] and their L^p quantities.

These are the concrete measure-space citizens: nonnegative piecewise
constant functions, allowed to take the value +inf (which contributes 0
to p-th powers when p < 0). All integrals are exact sums, so the only
tolerances anywhere are floating-point slack.
"""

import json
import math

import numpy as np

from .envelopes import BoundReport, ConeTriple
from .powers import INF, xpow


class StepFunction:
    """A nonnegative step function given by breakpoints 0=t_0<...<t_n=1
    and one (extended-real) value per interval."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise ValueError("need exactly one value per interval")
        if any(math.isnan(v) or v < 0 for v in vals):
            raise ValueError("values must be nonnegative (or +inf)")
        self.breakpoints = bp
        self.values = vals

    @staticmethod
    def constant(value):
        return StepFunction((0.0, 1.0), (value,))

    def __repr__(self):
        return "StepFunction(%r, %r)" % (list(self.breakpoints), list(self.values))

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def to_json(self):
        vals = ["inf" if math.isinf(v) else v for v in self.values]
        return json.dumps({"breakpoints": list(self.breakpoints), "values": vals})

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        try:
            bp = [float(b) for b in obj["breakpoints"]]
            vals = [INF if v == "inf" else float(v) for v in obj["values"]]
        except (KeyError, TypeError):
            raise ValueError('a step function is a JSON object {"breakpoints": '
                             '[numbers], "values": [numbers or "inf"]}') from None
        return StepFunction(bp, vals)


def refine(f, g):
    """Common refinement: merged breakpoints (exact comparison, no epsilon
    merging) with the aligned value lists of f and g."""
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    fi = gi = 0
    fv, gv = [], []
    for left in merged[:-1]:
        while f.breakpoints[fi + 1] <= left:
            fi += 1
        while g.breakpoints[gi + 1] <= left:
            gi += 1
        fv.append(f.values[fi])
        gv.append(g.values[gi])
    return merged, fv, gv


def _integral(breakpoints, values, expo):
    """Sum of (b - a) * v^expo over the intervals [a, b] and their values
    v; +inf as soon as one term is."""
    if expo == 0:
        raise ValueError("p must be nonzero")
    total = 0.0
    for a, b, v in zip(breakpoints, breakpoints[1:], values):
        term = xpow(v, expo)
        if math.isinf(term):
            return INF
        total += (b - a) * term
    return total


def pth_power_norm(f, p):
    """The p-th power integral of f; may legally be +inf for p < 0."""
    return _integral(f.breakpoints, f.values, p)


def _overlap_integral(merged, fv, gv, p):
    products = [INF if a == INF or b == INF else a * b for a, b in zip(fv, gv)]
    return _integral(merged, products, 0.5 * p)


def _sum_integral(merged, fv, gv, p):
    return _integral(merged, [a + b for a, b in zip(fv, gv)], p)


def overlap_norm(f, g, p):
    """Integral of (fg)^(p/2) over the common refinement.

    A +inf factor makes the product +inf (not inf * 0 = nan), so the
    integrand there is 0 for p < 0 and +inf for p > 0.
    """
    return _overlap_integral(*refine(f, g), p)


def _cone_point(x, y, z):
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(
            "norms must be finite to form a cone point, got (%r, %r, %r)"
            % (x, y, z)
        )
    return ConeTriple(x, y, z)


def triple_of_pair(f, g, p):
    """The cone point (|f|_p^p, |g|_p^p, |fg|_{p/2}^{p/2}) of a pair."""
    return _cone_point(pth_power_norm(f, p), pth_power_norm(g, p),
                       overlap_norm(f, g, p))


def sum_norm(f, g, p):
    """|f+g|_p^p on the common refinement (inf + anything = inf)."""
    return _sum_integral(*refine(f, g), p)


def sum_and_report(f, g, p):
    """Evaluate |f+g|_p^p and compare it against every applicable bound
    for the Exponent ``p``; one refinement serves the overlap and the sum."""
    merged, fv, gv = refine(f, g)
    t = _cone_point(pth_power_norm(f, p.p), pth_power_norm(g, p.p),
                    _overlap_integral(merged, fv, gv, p.p))
    return BoundReport.at(p, t, _sum_integral(merged, fv, gv, p.p))


def _integrals(breakpoints, values, expo):
    """_integral of every row: row i of ``breakpoints`` (rows x k+1) bounds
    the intervals of row i of ``values`` (rows x k), and intervals of zero
    width are padding. Terms are summed column by column in interval
    order, and a row stops at its first +inf term, so xpow sees exactly
    the values _integral would and every sum is the same float."""
    if expo == 0:
        raise ValueError("p must be nonzero")
    total = np.zeros(len(values))
    live = np.ones(len(values), dtype=bool)
    for w, v in zip(np.diff(breakpoints, axis=1).T, values.T):
        rows = np.flatnonzero(live & (w > 0.0))
        terms = np.array([xpow(b, expo) for b in v[rows].tolist()])
        live[rows] = terms < INF
        total[rows] += w[rows] * terms
    return total


def pair_norms(fb, fv, gb, gv, p):
    """(x, y, z, |f+g|_p^p) arrays for a batch of pairs, each entry the
    float triple_of_pair and sum_norm give for that pair.

    Row i of the breakpoint matrices fb, gb and value matrices fv, gv
    holds the i-th pair in the padded layout of sampling.random_pairs:
    breakpoints end in 1.0 and repeat it, values past the last interval
    are ignored. Raises triple_of_pair's ValueError, for the first row
    with a non-finite norm, before any sum is computed.
    """
    merged = np.sort(np.concatenate((fb, gb), axis=1), axis=1)
    left = merged[:, :-1, None]
    # the interval of f (g) holding each refined interval: breakpoints <= its left end
    fr = np.take_along_axis(fv, (fb[:, None, :-1] <= left).sum(axis=2) - 1, axis=1)
    gr = np.take_along_axis(gv, (gb[:, None, :-1] <= left).sum(axis=2) - 1, axis=1)
    x = _integrals(fb, fv, p)
    y = _integrals(gb, gv, p)
    inf = np.isinf(fr) | np.isinf(gr)
    products = np.multiply(fr, gr, out=np.full(fr.shape, INF), where=~inf)
    z = _integrals(merged, products, 0.5 * p)
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)))
    if bad.size:  # triple_of_pair's error, for the first such pair
        i = bad[0]
        _cone_point(float(x[i]), float(y[i]), float(z[i]))
    return x, y, z, _integrals(merged, fr + gr, p)
