"""Seeded random generators for step-function pairs and cone points.

Atom counts are uniform on {1..8}, values are exp(Uniform[-3,3]), and with
10% probability a degenerate atom is planted (a zero for p > 0, a +inf for
p < 0) to exercise the extended-real conventions.
"""

import numpy as np

from .powers import INF
from .stepfun import StepFunction

MAX_ATOMS = 8

_CHUNK, _WORDS = 256, 2 * MAX_ATOMS + 1  # _sample reads _CHUNK functions' words at a time
_ATOM = 900719925474100 << 11  # ceil(0.1 * 2^53): random() < 0.1 below it


def substreams(seed, count):
    """Derive independent child generators from a single 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _sample(rng, p, count, assemble):
    """assemble(doubles, values, vs, ns, ms) of the raw words that integers(1, 9)
    atoms n, random(n - 1) breakpoints, exp(uniform(-3, 3, m)) values, random() and,
    under 0.1, integers(0, m) read for ``count`` functions: words as doubles, values
    (atoms planted) and each first value word vs[i]. The walk takes m = n; where
    assemble raises a ValueError, it rewinds the generator and walks exactly."""
    entry = (bg := rng.bit_generator).state
    for exact in (False, True):
        has32, word = entry["has_uint32"], entry["uinteger"] << 32  # the cache: word >> 32
        raw, ws, vs, ns, ms, atoms = [np.empty(0, np.uint64)], [], [], [], [], []
        base = j = m = 0  # ws[j] is word base + j of the call
        try:
            while len(ns) < count or m:  # m > 0: an atom's index is due
                if j + _WORDS > len(ws):  # read the next chunk
                    raw.append(bg.random_raw(min(count - len(ns) + (m > 0), _CHUNK) * _WORDS))
                    ws, base, j = ws[j:] + raw[-1].tolist(), base + j, 0  # unread words only
                r, has32 = (word >> 32, 0) if has32 else ((word := ws[j]) & 0xFFFFFFFF, 1)
                j += has32  # Lemire's 32-bit draws: a word's low half, then its high half
                if m:  # Lemire rejects a low word below 2^32 mod m
                    k, low = divmod(r * m, 1 << 32)
                    if low >= (1 << 32) % m:
                        atoms.append(vs[-1] + k)
                        m = 0
                    continue
                n = m = 1 + (r >> 29)  # Lemire at range 8: the top three bits
                vs.append(base + (j := j + n - 1))  # past the breakpoints: the first value word
                if exact:  # m - 1 distinct breakpoints
                    if 0 in (bits := {w >> 11 for w in ws[j - n + 1:j]}):
                        raise ValueError("breakpoints must be strictly increasing")
                    ms.append(m := 1 + len(bits))
                ns.append(n)
                j += m + 1
                m *= ws[j - 1] < _ATOM  # the atom test
                if m == 1:  # one interval draws no index
                    atoms.append(vs[-1])
                    m = 0
        finally:  # step back over the unread words; advance clears the cache
            bg.state = dict(bg.advance(-(len(ws) - j) % 2 ** 128).state,
                            has_uint32=has32, uinteger=word >> 32)
        d = ((raw[1] if len(raw) == 2 else np.concatenate(raw)) >> 11) * 2.0 ** -53
        value = np.exp(-3.0 + 6.0 * d)
        if atoms:  # most small calls plant none
            value[atoms] = 0.0 if p > 0 else INF
        try:
            return assemble(d, value, vs, ns, ms if exact else ns)
        except () if exact else ValueError:  # fast pass: a repeated or zero breakpoint
            bg.state = entry


def _draws(rng, p, count):
    """Arrays (lengths, breakpoints, values) of ``count`` random step functions."""
    def columns(d, vals, vs, ns, ms):  # the fast walk passes ns as ms
        v, n, m = (np.array(a, dtype=np.intp) for a in (vs, ns, ms))
        pad = np.arange(MAX_ATOMS + 1) + 1 - n[:, None]  # breakpoints, 0, 1, 2, ...
        table = np.sort(np.where(pad < 0, d.take(v[:, None] + pad, mode="clip"), pad))
        if not (rise := np.diff(table, prepend=-1.0) > 0).all() and ms is ns:
            raise ValueError("breakpoints must be strictly increasing")
        keep = rise & (table <= 1.0)
        return m, table[keep], vals[np.repeat(v + m - np.cumsum(m), m) + np.arange(m.sum())]
    return _sample(rng, p, count, columns)


def random_step_functions(rng, p, count):
    """``count`` StepFunctions of _draws' stream, built as lists, not arrays."""
    def functions(d, value, vs, ns, ms):  # a repeated or zero breakpoint raises
        dbl, val = d.tolist(), value.tolist()
        return [StepFunction([0.0, *sorted(set(dbl[v - n + 1:v])), 1.0], val[v:v + m])
                for v, n, m in zip(vs, ns, ms)]
    return _sample(rng, p, count, functions)


def random_pair(rng, p):
    return tuple(random_step_functions(rng, p, 2))
