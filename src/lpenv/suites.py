"""The verification suites behind ``lpenv verify`` and the acceptance tests.

Each suite is written once here and returns plain values; the CLI prints
them and the acceptance tests hold them to their own thresholds, each
caller with its own seeds, sample counts and grids.
"""

import math

import numpy as np

from . import analysis
from .envelopes import MARGIN_TOL, classify, envelope_arrays, sum_bound
from .oracle import EnvelopeOracle
from .sampling import _draws, substreams
from .stepfun import StepFunction, group_norms, pth_power_norm

P_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.3, 1.5, 1.7, 2.0, 3.0, 5.0)
SUM_UPPER_PS = (1.0, 1.5, 2.0)
SUM_LOWER_PS = (0.5, 1.0, 2.0, 3.0)
SIGN_EXPONENTS = (-2.0, -0.5, 0.5, 0.9, 1.3, 1.7, 2.5, 4.0)
TORSION_EXPONENTS = (-1.0, 0.5, 1.5, 3.0)

# An oracle error above ORACLE_TOL, or NaN, is a violation.
ORACLE_TOL = 2e-2

SUM_CHUNK = 256  # sums per group_norms call in many_sweep, bounding its arrays


def _tally(margins):
    """(violations, worst margin) of an array of margins in draw order: a NaN
    violates and is the worst, and a tie goes to the first drawn."""
    m = np.asarray(margins, dtype=float)
    if not m.size:
        return 0, math.inf
    return int(np.count_nonzero(~(m >= -MARGIN_TOL))), float(m[np.argmin(m)])


def pair_sweep(seed, samples):
    """The sandwich lower <= |f+g|_p^p <= upper on random pairs.

    Each exponent of P_GRID draws ``samples // len(P_GRID)`` pairs (at
    least one), random_pair's functions, from its own substream of ``seed``
    by one _draws, then takes group_norms at size 2 and BoundReport.at's margins
    over all its pairs at once. Returns (violations, worst margin) over both sides.
    """
    per = max(1, samples // len(P_GRID))

    def margins():
        for p_val, rng in zip(P_GRID, substreams(seed, len(P_GRID))):
            p = classify(p_val)
            xy, z, actual = group_norms(*_draws(rng, p.p, 2 * per), np.full(per, 2), p.p)
            _, _, upper, lower, _ = envelope_arrays(p, *xy.reshape(per, 2).T, z)
            scale = np.maximum(1.0, np.abs(actual))
            up, lo = (upper - actual) / scale, (actual - lower) / scale
            # min(up, lo) as Python takes it: up unless lo is smaller
            yield np.where(lo < up, lo, up)

    return _tally(np.concatenate(list(margins())))


def many_sweep(cases, per, draw):
    """The many-function bound on ``per`` random sums for each case.

    ``cases`` holds (p, upper, rng) triples: an upper bound when ``upper``, else a lower
    one. A case reads ``per`` raw words first, word k giving sum k's size, then draws each
    chunk of up to SUM_CHUNK sums by one call ``draw(rng, p, n)``, n its terms, as _draws'
    columns. With _draws, sum k is _draws(rng, p, sizes[k]) after advance(per + 18 *
    sum(sizes[:k])) from the case's start. Returns (violations, worst margin)."""
    def margins():
        for p_val, upper, rng in cases:
            p, sign = classify(p_val), 1.0 if upper else -1.0
            w = rng.bit_generator.random_raw(per)  # the size words, decoded in place
            np.right_shift(np.multiply(np.right_shift(w, 11, out=w), 6, out=w), 53, out=w)
            w = w.astype(np.int8) + 3  # 3 + ((w >> 11) * 6 >> 53): a byte a sum from here
            for done in range(0, per, SUM_CHUNK):
                sizes = w[done:done + SUM_CHUNK]
                moments, z, sums = group_norms(*draw(rng, p.p, int(sizes.sum())), sizes, p.p)
                for m, overlap, actual in zip(np.split(moments, np.cumsum(sizes)[:-1]),
                                              z.tolist(), sums.tolist()):
                    yield sign * (sum_bound(m, overlap, p) - actual) / max(1.0, abs(actual))

    return _tally(np.fromiter(margins(), float))


def sum_sweep(seed, samples):
    """many_sweep over SUM_UPPER_PS (upper bound) and SUM_LOWER_PS (lower
    bound), one substream of ``seed`` each, ``samples`` sums in all."""
    upper, lower = substreams(seed, 2)
    cases = ([(p, True, upper) for p in SUM_UPPER_PS]
             + [(p, False, lower) for p in SUM_LOWER_PS])
    return many_sweep(cases, max(1, samples // len(cases)), _draws)


def p_neg_counterexample():
    """(lhs, bound) of the many-function bound at p = -1 for three unit
    constants: lhs = 1/3 and bound = 3 + (2^-1 - 2) * 3 = -1.5. The bound
    fails, so it does not extend to p < 0."""
    lhs = pth_power_norm(StepFunction.constant(3.0), -1.0)
    return lhs, 3.0 + (2.0 ** -1.0 - 2.0) * 3.0


def sign_tables():
    """Yield (p, v_ok, g_ok, h_ok) for each exponent of SIGN_EXPONENTS.

    Each flag says that the function keeps the paper's sign at all 1000
    points of [1e-3, 1]: v, g and h'' for p > 0, v and h~'' for p < 0,
    where g is not defined and g_ok is True.
    """
    xs = np.linspace(1e-3, 1.0, 1000)

    def keeps(fn, p, sign):  # fn is 0 or has the sign ``sign`` all over xs
        return -sign not in analysis.sign_of(fn(xs, p))

    for p_val in SIGN_EXPONENTS:
        p = classify(p_val)
        # g and h'' (h~'' for p < 0) are >= 0 where F_p is the concave
        # envelope and <= 0 where G_p is; v has the reverse sign
        sign = 1 if p.f_is_concave else -1
        h = analysis.h_fn_d2 if p_val > 0 else analysis.h_tilde_fn_d2
        g_ok = p_val < 0 or keeps(analysis.g_fn, p, sign)
        yield p_val, keeps(analysis.v_fn, p, -sign), g_ok, keeps(h, p, sign)


def torsion_checks(grid=512):
    """Yield (p, report, ok) for each exponent of TORSION_EXPONENTS: ok
    when the torsion of the boundary curve changes sign exactly once,
    within 1e-2 of s = 0 and in the direction the paper gives."""
    for p_val in TORSION_EXPONENTS:
        p = classify(p_val)
        rep = analysis.torsion_sign_changes(p, grid=grid)
        expect = "minus_to_plus" if p.f_is_concave else "plus_to_minus"
        ok = (rep.count == 1 and rep.direction == expect
              and abs(rep.location) <= 1e-2)
        yield p_val, rep, ok


def interior_grid(m=20):
    """Rows (s, z) of an m x m grid kept 0.02 inside the half-disc."""
    margin = 0.02
    s = np.linspace(-1.0 + margin, 1.0 - margin, m)
    z = np.linspace(margin, np.sqrt(1.0 - s * s) - margin, m, axis=1)
    s = np.broadcast_to(s[:, None], z.shape)
    keep = (z > 0.0) & (s * s + z * z < (1.0 - margin) ** 2)
    return np.column_stack((s[keep], z[keep]))


def closed_columns(p, kind, m=20):
    """s, z and the closed form of the ``kind`` envelope at p over interior_grid(m)."""
    s, z = interior_grid(m).T
    _, _, upper, lower, _ = envelope_arrays(p, 1.0 + s, 1.0 - s, z)
    return s, z, upper if kind == "concave" else lower


def oracle_errors(n):
    """Yield (p, kind, err) for each exponent of P_GRID and kind: the largest
    |oracle - closed form| / max(1, |closed form|) (or NaN) over interior_grid()
    at n nodes. Every exponent's hull is queued at once, in P_GRID order, and
    the workers build them while the ones before are compared."""
    s, z = interior_grid().T
    ahead = [EnvelopeOracle(classify(p_val), n) for p_val in P_GRID]
    try:
        for p_val in P_GRID:
            oc = ahead.pop(0)  # each exponent's hull is let go once compared
            _, _, upper, lower, _ = envelope_arrays(oc.curve.p, 1.0 + s, 1.0 - s, z)
            for kind, cf in (("concave", upper), ("convex", lower)):
                err = np.max(np.abs(oc.evaluate(s, z, kind) - cf) / np.maximum(1.0, np.abs(cf)))
                yield p_val, kind, float(err)
    finally:  # a closed or failed sweep leaves no build queued
        for oc in ahead:
            oc._planes.cancel()
