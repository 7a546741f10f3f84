"""Step functions as flat columns, the layout of ``lpenv.sampling._draws``.

``columns`` flattens (breakpoints, values) list pairs into the lists
``_draws`` returns as arrays, so the tests compare functions built one at a
time with ``_draws``' columns by ``==``.
"""


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
