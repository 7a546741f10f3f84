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


def _draws(rng, p, count):
    """The lists of ``count`` successive _draw(rng, p) calls, from PCG64's
    raw words; leaves ``rng`` where those calls would. ``random`` is
    (word >> 11) * 2^-53, and ``integers`` is Lemire's method on 32-bit
    draws: a word's low half, its high half kept in the state's
    ``uinteger`` (``has_uint32``) for the next draw."""
    bg = rng.bit_generator
    start = bg.state
    has32, cached, used, i = start["has_uint32"], start["uinteger"], 0, 0
    words = dbl = val = ()
    out = []

    def seek():  # bg at word used + i after start, its uint32 cache set
        bg.state = start
        state = bg.advance(used + i).state  # advance clears the cache
        state["has_uint32"], state["uinteger"] = has32, cached
        bg.state = state

    def refill():
        nonlocal used, i, words, dbl, val
        seek()
        used, i = used + i, 0
        words = bg.random_raw(min(count - len(out), _CHUNK) * _WORDS)
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

    while len(out) < count:
        if i + _WORDS > len(words):
            refill()
        n = 1 + (u32() >> 29)  # Lemire at range 8: the top three bits
        breakpoints = [0.0, *sorted(set(dbl[i:i + n - 1])), 1.0]
        i += n - 1
        if breakpoints[1] == 0.0:
            seek()
            raise ValueError("breakpoints must be strictly increasing")
        values = val[i:i + len(breakpoints) - 1]
        i += len(values) + 1
        if dbl[i - 1] < 0.1:
            k, m, low = 0, len(values), -1
            # Lemire rejects a low word below (2^32 - m) mod m; m = 1 draws none
            while m > 1 and low < (1 << 32) % m:
                k, low = divmod(u32() * m, 1 << 32)
            values[k] = 0.0 if p > 0 else INF
        out.append((breakpoints, values))
    seek()
    return out


def random_step_function(rng, p):
    return StepFunction(*_draw(rng, p))


def random_pair(rng, p):
    return random_step_function(rng, p), random_step_function(rng, p)
