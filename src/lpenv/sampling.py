"""Seeded random generators for step-function pairs and cone points.

Atom counts are uniform on {1..8}, values are exp(Uniform[-3,3]), and with
10% probability a degenerate atom is planted (a zero for p > 0, a +inf for
p < 0) to exercise the extended-real conventions.
"""

import numpy as np

from .powers import INF
from .stepfun import StepFunction


def substreams(seed, count):
    """Derive independent child generators from a single 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def random_step_function(rng, p):
    n = int(rng.integers(1, 9))
    if n == 1:
        breakpoints = (0.0, 1.0)
    else:
        interior = np.sort(rng.uniform(0.0, 1.0, n - 1))
        interior = np.unique(interior)
        breakpoints = (0.0, *interior.tolist(), 1.0)
    values = np.exp(rng.uniform(-3.0, 3.0, len(breakpoints) - 1)).tolist()
    if rng.random() < 0.1:
        k = int(rng.integers(0, len(values)))
        values[k] = 0.0 if p > 0 else INF
    return StepFunction(breakpoints, values)


def random_pair(rng, p):
    return random_step_function(rng, p), random_step_function(rng, p)
