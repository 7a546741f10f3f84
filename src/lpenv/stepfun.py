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
from .powers import INF, xpow, xpow_array


class StepFunction:
    """A nonnegative step function given by breakpoints 0=t_0<...<t_n=1
    and one (extended-real) value per interval."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp, vals = tuple(map(float, breakpoints)), tuple(map(float, values))
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if not all(map(float.__lt__, bp, bp[1:])):  # NaN fails too
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise ValueError("need exactly one value per interval")
        if not all(map((0.0).__le__, vals)):  # NaN fails, -0.0 passes
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
            bp, vals = obj["breakpoints"], obj["values"]
            if not (isinstance(bp, list) and isinstance(vals, list)):
                raise TypeError
            vals = [INF if v == "inf" else v for v in vals]
            # exact types: bool is an int subclass, and float() reads strings
            if not all(type(v) in (int, float) for v in bp + vals):
                raise TypeError
        except (KeyError, TypeError):
            raise ValueError('a step function is a JSON object {"breakpoints": '
                             '[numbers], "values": [numbers or "inf"]}') from None
        return StepFunction(bp, vals)


def _refine(fb, fv, gb, gv):
    """Common refinement of two step functions given by their breakpoints
    (strictly increasing from 0 to 1) and values: the merged breakpoints
    (exact comparison, no epsilon merging) with the value of each function
    on every merged interval, as lists."""
    merged, rf, rg = [fb[0]], [], []
    i = j = 1
    a, b = fb[1], gb[1]
    while True:
        rf.append(fv[i - 1])
        rg.append(gv[j - 1])
        if a < b:
            merged.append(a)
            i += 1
            a = fb[i]
        elif b < a:
            merged.append(b)
            j += 1
            b = gb[j]
        else:
            merged.append(a)
            if a == 1.0:
                return merged, rf, rg
            i += 1
            j += 1
            a, b = fb[i], gb[j]


def refine(f, g):
    """(merged breakpoints, values of f, values of g): see _refine."""
    return _refine(f.breakpoints, f.values, g.breakpoints, g.values)


def _integral(breakpoints, values, expo):
    """Sum of (b - a) * v^expo over the intervals [a, b] and their values
    v; +inf as soon as one term is. xpow's fast branch, v ** expo, runs in line."""
    if expo == 0:
        raise ValueError("p must be nonzero")
    total, ends = 0.0, iter(breakpoints)
    a = next(ends, 0.0)
    for b, v in zip(ends, values):
        try:
            term = v ** expo if 0.0 < v < INF else xpow(v, expo)
        except OverflowError:
            term = xpow(v, expo)  # raises again, naming the power
        if term == INF:  # terms are never negative
            return INF
        total += (b - a) * term
        a = b
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


def triple_of_pair(f, g, p):
    """The cone point (|f|_p^p, |g|_p^p, |fg|_{p/2}^{p/2}) of a pair, by the list kernels."""
    fb, fv, gb, gv = f.breakpoints, f.values, g.breakpoints, g.values
    return ConeTriple(_integral(fb, fv, p), _integral(gb, gv, p),
                      _overlap_integral(*_refine(fb, fv, gb, gv), p))


def sum_norm(f, g, p):
    """|f+g|_p^p on the common refinement (inf + anything = inf)."""
    return _sum_integral(*refine(f, g), p)


def pair_norms(lengths, breakpoints, values, p):
    """(x, y, z, |f+g|_p^p) as float arrays over the pairs (0, 1), (2, 3), ...
    of an even, nonzero count of functions in sampling._draws' columns (its
    arrays, taken without a copy, or lists): the floats of triple_of_pair and
    sum_norm, as each integral is a weighted bincount, which adds a bin's
    terms in order from 0.0 like _integral (np.add.reduceat adds pairwise);
    but a power that overflows raises OverflowError even after a +inf term."""
    if p == 0 or not len(lengths) or len(lengths) % 2:
        raise ValueError("p must be nonzero and the function count even, > 0")
    n, bps, vals = (np.asarray(a) for a in (lengths, breakpoints, values))
    h, fid = len(n) // 2, np.repeat(np.arange(len(n)), n)  # value -> function
    ends = np.cumsum(n + 1) - 1  # the index of each function's 1.0
    left, right = np.delete(bps, ends), np.delete(bps, ends - n)
    # by (pair, left end): a run's last entry is a merged interval, and the
    # running maxima of f's and of g's value indices give both values there
    order = np.lexsort((left, fid >> 1))
    odd, pair, at = (fid & 1)[order], (fid >> 1)[order], left[order]
    nxt = np.append(at[1:], 1.0)  # the next left end in the pair, or 1.0
    nxt[np.append(pair[1:] != pair[:-1], True)] = 1.0
    keep = nxt != at
    fv = vals[np.maximum.accumulate(np.where(odd, 0, order))[keep]]
    gv = vals[np.maximum.accumulate(np.where(odd, order, 0))[keep]]
    pair, width = pair[keep], (nxt - at)[keep]
    xy = np.bincount(fid, weights=(right - left) * xpow_array(vals, p), minlength=2 * h)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0; fv * gv, fv + gv overflow
        product = np.where(np.isinf(fv) | np.isinf(gv), INF, fv * gv)
        z = np.bincount(pair, weights=width * xpow_array(product, 0.5 * p), minlength=h)
        total = np.bincount(pair, weights=width * xpow_array(fv + gv, p), minlength=h)
    return (*xy.reshape(h, 2).T, z, total)


def sum_and_report(f, g, p):
    """Evaluate |f+g|_p^p and compare it against every applicable bound
    for the Exponent ``p``; one refinement serves the overlap and the sum."""
    merged, rf, rg = _refine(f.breakpoints, f.values, g.breakpoints, g.values)
    x, y = (_integral(h.breakpoints, h.values, p.p) for h in (f, g))
    t = ConeTriple(x, y, _overlap_integral(merged, rf, rg, p.p))
    return BoundReport.at(p, t, _sum_integral(merged, rf, rg, p.p))
