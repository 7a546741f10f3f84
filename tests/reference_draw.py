"""One random step function per call, drawn through numpy's Generator.

``_draw`` is the twin-generator reference for ``lpenv.sampling._draws``:
``_draws(rng, p, count)`` must return the lists of ``count`` successive
``_draw(twin, p)`` calls, flattened by ``columns``, and leave ``rng`` where
they leave ``twin``.
"""

import numpy as np

from lpenv.powers import INF
from lpenv.sampling import MAX_ATOMS


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


def columns(draws):
    """(lengths, breakpoints, values) of (breakpoints, values) list pairs,
    as flat lists in _draws' layout: function i holds ``lengths[i]``
    values and ``lengths[i] + 1`` breakpoints."""
    lengths, breakpoints, values = [], [], []
    for bps, vals in draws:
        lengths.append(len(vals))
        breakpoints += bps
        values += vals
    return lengths, breakpoints, values
