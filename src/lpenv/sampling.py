"""Seeded random generators for step-function pairs and cone points.

Atom counts are uniform on {1..8}, values are exp(Uniform[-3,3]), and with
10% probability a degenerate atom is planted (a zero for p > 0, a +inf for
p < 0) to exercise the extended-real conventions.
"""

import numpy as np

from .powers import INF
from .stepfun import StepFunction

MAX_ATOMS = 8


def substreams(seed, count):
    """Derive independent child generators from a single 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _draw(rng, p):
    """The breakpoints and values of one random step function, as lists.

    Raises the ValueError StepFunction would when an interior breakpoint
    is drawn as exactly 0.0.
    """
    n = int(rng.integers(1, MAX_ATOMS + 1))
    if n == 1:
        breakpoints = [0.0, 1.0]
    else:
        # random(k) draws exactly what uniform(0.0, 1.0, k) would, faster
        breakpoints = [0.0, *sorted(set(rng.random(n - 1).tolist())), 1.0]
        if breakpoints[1] == 0.0:
            raise ValueError("breakpoints must be strictly increasing")
    values = np.exp(rng.uniform(-3.0, 3.0, len(breakpoints) - 1)).tolist()
    if rng.random() < 0.1:
        k = int(rng.integers(0, len(values)))
        values[k] = 0.0 if p > 0 else INF
    return breakpoints, values


def random_step_function(rng, p):
    return StepFunction(*_draw(rng, p))


def random_pair(rng, p):
    return random_step_function(rng, p), random_step_function(rng, p)
