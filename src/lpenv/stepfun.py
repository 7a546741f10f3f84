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
from .powers import INF, TINY, xpow, xpow_array


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
    products = [a * b if TINY <= a * b < INF else INF if a == INF or b == INF
                else a * b if a == 0.0 or b == 0.0 else -1.0 for a, b in zip(fv, gv)]
    if -1.0 in products and p:  # a split term; lazy, as _integral stops at +inf
        return _integral(merged, (xpow(a, 0.5 * p) * xpow(b, 0.5 * p) if v < 0.0
                                  else xpow(v, 0.5 * p) for a, b, v in zip(fv, gv, products)), 1.0)
    return _integral(merged, products, 0.5 * p)


def overlap_norm(f, g, p):
    """Integral of (fg)^(p/2) over the common refinement.

    A +inf factor makes the product +inf (not inf * 0 = nan), so the
    integrand there is 0 for p < 0 and +inf for p > 0. Where fg leaves the
    normal range but f and g are finite and positive, it is split: f^(p/2) g^(p/2).
    """
    return _overlap_integral(*refine(f, g), p)


def triple_of_pair(f, g, p):
    """The cone point (|f|_p^p, |g|_p^p, |fg|_{p/2}^{p/2}) of a pair, by the list kernels."""
    fb, fv, gb, gv = f.breakpoints, f.values, g.breakpoints, g.values
    return ConeTriple(_integral(fb, fv, p), _integral(gb, gv, p),
                      _overlap_integral(*_refine(fb, fv, gb, gv), p))


def sum_norm(f, g, p):
    """|f+g|_p^p on the common refinement (inf + anything = inf)."""
    merged, fv, gv = refine(f, g)
    return _integral(merged, [a + b for a, b in zip(fv, gv)], p)


def _merged(grp, take, slot, k, left, vals):
    """Common refinements of the entries ``take`` sorted by (refinement, left end): merged
    intervals' refinements, widths and values by slot 0 to k - 1 (past its members, another's)."""
    at = left[take]  # ``take`` holds flat indices, which pairs revisit: slots track positions
    nxt = np.append(at[1:], 1.0)  # the next left end in the refinement, or 1.0
    nxt[np.append(grp[1:] != grp[:-1], True)] = 1.0
    keep, pos = nxt != at, np.arange(len(at))  # a run's last entry, and each entry's position
    return grp[keep], (nxt - at)[keep], [  # each slot's latest entry, by a running maximum
        vals[take[np.maximum.accumulate(np.where(slot == s, pos, 0))[keep]]] for s in range(k)]


def group_norms(lengths, breakpoints, values, sizes, p):
    """(moments, overlaps, totals) over groups of consecutive functions in _draws'
    columns (arrays or lists), group k of sizes[k] >= 2: each |f|_p^p, each group's
    sum of |f_i f_j|_{p/2}^{p/2} over i < j, each pair on its own refinement, and
    |f_0 + f_1 + ...|_p^p folded as ((f_0 + f_1) + f_2) + ..., all read off one stable
    row sort per group. Weighted bincounts add in order from 0.0, so these are the list
    kernels' floats; but a power that overflows raises OverflowError after a +inf term."""
    n, bps, vals, sizes = (np.asarray(a) for a in (lengths, breakpoints, values, sizes))
    if p == 0 or not len(sizes) or sizes.min() < 2 or sizes.sum() != len(n):
        raise ValueError("p must be nonzero and the functions in groups of 2 or more")
    count, k, h = len(sizes), sizes.max(), 0.5 * p
    fid = np.repeat(np.arange(len(n)), n)  # value -> function
    inner = np.ones(len(bps) - 1, bool)  # breakpoint i and i + 1 of one function
    inner[np.cumsum(n + 1)[:-1] - 1] = False  # not a function's 1.0 and the next's 0.0
    left, right = bps[:-1][inner], bps[1:][inner]
    moments = np.bincount(fid, weights=(right - left) * xpow_array(vals, p), minlength=len(n))
    group = np.repeat(np.arange(count), sizes)[fid]  # value -> group, as the row sort keeps it
    m = np.bincount(group)  # values per group
    real = np.arange(m.max()) < m[:, None]  # one row per group, padded past its values
    rows, slots = np.full(real.shape, 2.0), np.full(real.shape, -1, np.min_scalar_type(-k))
    rows[real], slots[real] = left, fid - (np.cumsum(sizes) - sizes)[group]
    rows = rows.argsort(axis=1, kind="stable")  # padding last, ties in slot order as lexsort's
    slots = slots.ravel()[rows + np.arange(0, real.size, m.max())[:, None]]  # rows' order too
    rows += (np.cumsum(m) - m)[:, None]  # each group's flat indices, sorted
    grp, width, v = _merged(group, rows[real], slots[real], k, left, vals)
    pair, pw, (fv, gv) = grp, width, v[:2]  # at size 2 a group is its one pair
    if k > 2:  # each group's pairs i < j in order: slots i and j of its sorted row
        i, j = np.array(np.triu_indices(k, 1), slots.dtype)  # compared in the slots' type
        owner, t = np.nonzero(j < sizes[:, None])
        ps = slots[owner]  # each pair's group row of slots
        at = np.flatnonzero((ps == i[t, None]) | (ps == j[t, None]))  # i's and j's, in row order
        pair = at // ps.shape[1]
        at = rows.ravel()[at + (owner[pair] - pair) * ps.shape[1]], ps.ravel()[at] == j[t[pair]]
        pair, pw, (fv, gv) = _merged(pair, *at, 2, left, vals)  # at: flat indices, slots 0, 1
    del rows, slots, real  # not kept through the powers' temporaries
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0; products and sums overflow
        inf = np.isinf(fv) | np.isinf(gv)
        product = np.where(inf, INF, fv * gv)
        terms = xpow_array(product, h)  # then split where _overlap_integral splits
        split = ~inf & (np.minimum(fv, gv) > 0.0) & ~((product >= TINY) & (product < INF))
        if split.any():
            terms[split] = xpow_array(fv[split], h) * xpow_array(gv[split], h)
        z = np.bincount(pair, weights=pw * terms)
        overlaps = z if k == 2 else np.bincount(owner, weights=z, minlength=count)
        total = v[0] + v[1]
        for s in range(2, k):
            total = np.where(sizes[grp] > s, total + v[s], total)
        totals = np.bincount(grp, weights=width * xpow_array(total, p), minlength=count)
    return moments, overlaps, totals


def sum_and_report(f, g, p):
    """Evaluate |f+g|_p^p and compare it against every applicable bound
    for the Exponent ``p``; one refinement serves the overlap and the sum."""
    merged, rf, rg = _refine(f.breakpoints, f.values, g.breakpoints, g.values)
    x, y = (_integral(h.breakpoints, h.values, p.p) for h in (f, g))
    t = ConeTriple(x, y, _overlap_integral(merged, rf, rg, p.p))
    return BoundReport.at(p, t, _integral(merged, [a + b for a, b in zip(rf, rg)], p.p))
