"""Seeded random generators for step-function pairs and cone points.

Atom counts are uniform on {1..8}, values are exp(Uniform[-3,3]), and with
10% probability a degenerate atom is planted (a zero for p > 0, a +inf for
p < 0) to exercise the extended-real conventions.

Function i of a call reads the raw words 18i ... 18i + 17 of the generator's
bit generator, a word w read as the uniform u = (w >> 11) * 2^-53:

- word 0: the atom count n = 1 + (w >> 61);
- words 1-7: the breakpoints, of which the first n - 1 are used;
- words 8-15: the values exp(-3 + 6u), of which the first m are used;
- word 16: the atom test, u < 0.1;
- word 17: the atom's interval, floor(u * m).

A repeated breakpoint, or one read as 0.0, merges, so a function has m <= n
intervals. Draw k of a generator starts 18k words in: ``advance(18 * k)``
replays it.
"""

from itertools import accumulate

import numpy as np

from .powers import INF
from .stepfun import StepFunction

MAX_ATOMS = 8
STRIDE = 18  # raw words per function


def substreams(seed, count):
    """Derive independent child generators from a single 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _draws(rng, p, count):
    """Arrays (lengths, breakpoints, values) of ``count`` random step functions:
    function i has lengths[i] values and lengths[i] + 1 breakpoints."""
    words = rng.bit_generator.random_raw(STRIDE * count).reshape(count, STRIDE)
    u = (words >> 11) * 2.0 ** -53
    # per row: 0.0, the n - 1 breakpoints, then 1.0 as the end and the pads
    table = np.where(np.arange(MAX_ATOMS + 1) <= words[:, :1] >> 61,
                     u[:, :MAX_ATOMS + 1], 1.0)
    table[:, 0] = 0.0
    table.sort()
    keep = np.ones(table.shape, bool)
    keep[:, 1:] = table[:, 1:] > table[:, :-1]  # a repeat or a 0.0 does not rise
    m = keep.sum(axis=1) - 1
    vals = np.exp(-3.0 + 6.0 * u[:, MAX_ATOMS:2 * MAX_ATOMS])
    atom = np.flatnonzero(u[:, -2] < 0.1)
    vals[atom, (u[atom, -1] * m[atom]).astype(np.intp)] = 0.0 if p > 0 else INF
    return m, table[keep], vals[np.arange(MAX_ATOMS) < m[:, None]]


def random_step_functions(rng, p, count):
    """``count`` StepFunctions of _draws' columns, as lists: function i's m values
    end at the running total e of lengths, and its breakpoints at e + i + 1."""
    lengths, bps, vals = (a.tolist() for a in _draws(rng, p, count))
    return [StepFunction(bps[e - m + i:e + i + 1], vals[e - m:e])
            for i, (m, e) in enumerate(zip(lengths, accumulate(lengths)))]


def random_pair(rng, p):
    return tuple(random_step_functions(rng, p, 2))
