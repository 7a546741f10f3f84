"""Empirical best-pair search, a test helper for the envelope checks.

``empirical_B`` takes the best |f+g|_p^p over the closed-form extremal
pairs and seeded random two-block pairs whose triple matches a given
cone point.
"""

import math

import numpy as np

from lpenv.extremal import extremal_F, extremal_G
from lpenv.powers import power_sum
from lpenv.stepfun import sum_norm


def _two_block_candidates(rng, p, t, budget):
    """Random genuine pairs matching t: two blocks of constants, moments
    split (X1, Y1) / (X2, Y2) with sqrt(X1*Y1) + sqrt(X2*Y2) = z."""
    x, y, z = t.x, t.y, t.z
    out = []
    for _ in range(budget):
        c = rng.uniform(0.1, 0.9)
        x1 = rng.uniform(1e-6, 1.0 - 1e-6) * x
        x2 = x - x1
        if x1 <= 0.0 or x2 <= 0.0:
            continue
        # sqrt(x1*y1) = z1 with (z - z1)^2 = x2*(y - z1^2/x1)
        aa = 1.0 + x2 / x1
        disc = z * z - aa * (z * z - x2 * y)
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for z1 in ((z + root) / aa, (z - root) / aa):
            if not 0.0 <= z1 <= z:
                continue
            y1 = z1 * z1 / x1
            y2 = y - y1
            if y1 < 0.0 or y2 < 0.0:
                continue
            out.append(
                c * power_sum(x1 / c, y1 / c, p.p)
                + (1.0 - c) * power_sum(x2 / (1.0 - c), y2 / (1.0 - c), p.p)
            )
    return out


def empirical_B(p, t, direction, budget=200, seed=0):
    """Best |f+g|_p^p found over pairs whose triple matches t.

    Searches the closed-form extremal families (which contain the exact
    optimizers) plus seeded random two-block pairs through t.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    rng = np.random.default_rng(seed)
    candidates = []
    for ctor in (extremal_F, extremal_G):
        try:
            f, g = ctor(p, t)
        except ValueError:
            continue
        val = sum_norm(f, g, p.p)
        if math.isfinite(val):
            candidates.append(val)
    candidates.extend(
        v for v in _two_block_candidates(rng, p, t, budget) if math.isfinite(v)
    )
    if not candidates:
        raise ValueError("no feasible pair found for triple %r" % (t,))
    return max(candidates) if direction == "sup" else min(candidates)
