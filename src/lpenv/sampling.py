"""Seeded random generators for step-function pairs and cone points.

Atom counts are uniform on {1..8}, values are exp(Uniform[-3,3]), and with
10% probability a degenerate atom is planted (a zero for p > 0, a +inf for
p < 0) to exercise the extended-real conventions.
"""

import numpy as np

from .powers import INF
from .stepfun import StepFunction

MAX_ATOMS = 8

# _draws takes raw words for at most _CHUNK functions at a time, _WORDS
# each: one function's atom-count draw, breakpoints, values and atom test.
_CHUNK, _WORDS = 256, 2 * MAX_ATOMS + 1


def substreams(seed, count):
    """Derive independent child generators from a single 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _draws(rng, p, count):
    """Flat lists (lengths, breakpoints, values) of ``count`` random step
    functions, function i with ``lengths[i]`` values, drawn from PCG64's raw
    words as these Generator calls would draw each: ``integers(1, 9)`` atoms,
    ``random(n - 1)`` breakpoints, ``exp(uniform(-3, 3, k))`` on the k
    intervals, then ``random()`` and ``integers(0, k)`` for a degenerate atom.
    ``random`` is (word >> 11) * 2^-53, ``integers`` Lemire's method on
    32-bit draws: a word's low half, its high half kept in the state's
    ``uinteger`` (``has_uint32``) for the next draw. Leaves ``rng`` where
    those calls would; an interior breakpoint of 0.0 raises a ValueError."""
    bg, lengths, bps, vals = rng.bit_generator, [], [], []
    state = bg.state
    has32, cached, i = state["has_uint32"], state["uinteger"], 0
    words, dbl, val = np.empty(0, np.uint64), (), ()

    def refill():  # carries the unread words; bg stays at the buffer's end
        nonlocal i, words, dbl, val
        fresh = bg.random_raw(min(count - len(lengths), _CHUNK) * _WORDS)
        words, i = np.concatenate((words[i:], fresh)), 0
        d = (words >> 11) * 2.0 ** -53
        dbl, val = d.tolist(), np.exp(-3.0 + 6.0 * d).tolist()

    def u32():
        nonlocal has32, cached, i
        if has32:
            has32 = 0
            return cached
        if i == len(words):  # Lemire's loop ran past the buffer's end
            refill()
        w, i = int(words[i]), i + 1
        has32, cached = 1, w >> 32
        return w & 0xFFFFFFFF

    try:
        while len(lengths) < count:
            if i + _WORDS > len(words):
                refill()
            n = 1 + (u32() >> 29)  # Lemire at range 8: the top three bits
            breakpoints = [0.0, *sorted(set(dbl[i:i + n - 1])), 1.0]
            i += n - 1
            if breakpoints[1] == 0.0:
                raise ValueError("breakpoints must be strictly increasing")
            m = len(breakpoints) - 1
            bps += breakpoints
            vals += val[i:i + m]
            i += m + 1
            if dbl[i - 1] < 0.1:
                k, low = 0, -1
                # Lemire rejects a low word below 2^32 mod m; m = 1 draws none
                while m > 1 and low < (1 << 32) % m:
                    k, low = divmod(u32() * m, 1 << 32)
                vals[k - m] = 0.0 if p > 0 else INF
            lengths.append(m)  # after the atom: refill counts what is left
    finally:  # step back over the unread words; advance clears the cache
        state = bg.advance(-(len(words) - i) % 2 ** 128).state
        state["has_uint32"], state["uinteger"] = has32, cached
        bg.state = state
    return lengths, bps, vals


def random_step_functions(rng, p, count):
    lengths, bps, vals = _draws(rng, p, count)
    fs, i = [], 0
    for k, n in enumerate(lengths):  # k earlier functions: k more breakpoints
        fs.append(StepFunction(bps[i + k:i + k + n + 1], vals[i:i + n]))
        i += n
    return fs


def random_pair(rng, p):
    return tuple(random_step_functions(rng, p, 2))
