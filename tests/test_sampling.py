import tracemalloc

import numpy as np
import pytest

from lpenv import suites
from lpenv.envelopes import classify
from lpenv.powers import INF
from lpenv.envelopes import sum_bound
from lpenv.sampling import (_draws, random_pair, random_step_functions,
                            substreams)
from lpenv.stepfun import (_integral, _refine, overlap_norm, pth_power_norm,
                           sum_and_report)
from lpenv.suites import (P_GRID, SUM_LOWER_PS, SUM_UPPER_PS, _tally,
                          pair_sweep, sum_sweep)
from reference_draw import columns


def reference_pair_sweep(seed, samples):
    """The pair sweep one pair at a time: random_pair, then sum_and_report."""
    per = max(1, samples // len(P_GRID))

    def margins():
        for p_val, rng in zip(P_GRID, substreams(seed, len(P_GRID))):
            p = classify(p_val)
            for _ in range(per):
                f, g = random_pair(rng, p.p)
                m = sum_and_report(f, g, p).margins
                yield min(m["upper"], m["lower"])

    return _tally(list(margins()))


def reference_sum_sweep(seed, samples, tally=_tally):
    """The sum sweep one term at a time: each case's size words decoded one
    Python int at a time, a one-function random_step_functions call per term,
    then the moments, overlaps and sum norm of each sum by the list kernels:
    the overlaps added in i < j order from 0.0 (Python 3.12's sum()
    compensates), the terms folded by _refine."""
    upper, lower = substreams(seed, 2)
    cases = ([(p, True, upper) for p in SUM_UPPER_PS]
             + [(p, False, lower) for p in SUM_LOWER_PS])
    per = max(1, samples // len(cases))

    def margins():
        for p_val, upper, rng in cases:
            p = classify(p_val)
            sign = 1.0 if upper else -1.0
            for w in rng.bit_generator.random_raw(per).tolist():
                fs = [random_step_functions(rng, p.p, 1)[0]
                      for _ in range(3 + ((w >> 11) * 6 >> 53))]
                moments = [pth_power_norm(f, p.p) for f in fs]
                overlaps = 0.0
                for i, f in enumerate(fs):
                    for g in fs[i + 1:]:
                        overlaps += overlap_norm(f, g, p.p)
                bps, vals = fs[0].breakpoints, fs[0].values
                for f in fs[1:]:
                    bps, av, bv = _refine(bps, vals, f.breakpoints, f.values)
                    vals = [a + b for a, b in zip(av, bv)]
                actual = _integral(bps, vals, p.p)
                bound = sum_bound(moments, overlaps, p)
                yield sign * (bound - actual) / max(1.0, abs(actual))

    return tally(list(margins()))


def as_lists(arrays):
    """_draws' arrays as lists, compared with == rather than a tolerance."""
    return tuple(a.tolist() for a in arrays)


def listed(functions):
    """StepFunctions as _draws' columns, in lists."""
    return columns([(list(f.breakpoints), list(f.values)) for f in functions])


def joined(parts):
    """The columns of successive draws, concatenated."""
    out = ([], [], [])
    for part in parts:
        for column, values in zip(out, part):
            column += values
    return out


def fresh():
    return substreams(5, 1)[0]


def cached():
    """fresh()'s generator with its 32-bit cache full."""
    rng = fresh()
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                               "uinteger": 0xDEADBEEF}
    return rng


def moved(make, words):
    """The state of make()'s generator ``words`` raw words on, its 32-bit
    cache as make() left it (advance clears the cache; random_raw does not)."""
    bg = make().bit_generator
    cache = {key: bg.state[key] for key in ("has_uint32", "uinteger")}
    return {**bg.advance(words).state, **cache}


def assert_stride(make, p, counts):
    """Successive calls _draws(rng, p, c), c of ``counts``, hold the columns
    of one-function calls on a twin and of random_step_functions(., p, c) on
    a third generator; all three end 18 words per function on, their 32-bit
    caches untouched."""
    rng, twin, lists = make(), make(), make()
    for count in counts:
        want = joined(as_lists(_draws(twin, p, 1)) for _ in range(count))
        assert as_lists(_draws(rng, p, count)) == want
        assert listed(random_step_functions(lists, p, count)) == want
    end = moved(make, 18 * sum(counts))
    for gen in (rng, twin, lists):
        assert gen.bit_generator.state == end


class Stream:
    """A stand-in bit generator that hands out ``words`` as raw words (zeros
    after them), with PCG64's state keys for the position and the 32-bit
    cache, which random_raw leaves as it is."""

    def __init__(self, words):
        self.words, self.state = words, {"pos": 0, "has_uint32": 0,
                                         "uinteger": 0}

    def random_raw(self, size):
        pos = self.state["pos"]
        self.state = {**self.state, "pos": pos + size}
        return np.array((self.words + [0] * (pos + size))[pos:pos + size],
                        dtype=np.uint64)


def streamed(words):
    """A generator whose bit generator is Stream(words)."""
    return type("Rng", (), {"bit_generator": Stream(words)})


def double_word(x):
    """The word read as the uniform x, a multiple of 2**-53 in [0, 1)."""
    return int(x * 2 ** 53) << 11


def function_words(n, breakpoints, values, atom=None):
    """The 18 words of one function: atom count n, the breakpoint and value
    uniforms given (0.0 after them) and, where ``atom`` is a uniform u, an
    atom at interval floor(u * m)."""
    bps, vals = (list(a) + [0.0] * 8 for a in (breakpoints, values))
    test = 0.5 if atom is None else 0.0
    return [(n - 1) << 61] + [double_word(u) for u in
                              bps[:7] + vals[:8] + [test, atom or 0.0]]


def exp_values(us):
    return np.exp(-3.0 + 6.0 * np.array(us)).tolist()


class TestRandomPairs:
    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 3.0])
    def test_same_draws_as_random_pair(self, p):
        """pair_sweep's one _draws call of 2k functions holds the k pairs of
        k random_pair calls and leaves the generator where they do."""
        sweep, twin = substreams(11, 1)[0], substreams(11, 1)[0]
        drawn = as_lists(_draws(sweep, p, 600))
        assert listed(f for _ in range(300) for f in random_pair(twin, p)) == drawn
        assert sweep.bit_generator.state == twin.bit_generator.state

    def test_zero_interior_breakpoint_rejected(self):
        """Two atoms whose breakpoint is read as 0.0: the breakpoint is
        dropped, not the function, and random_step_functions gives one
        interval, its value the atom planted at floor(0.875 * 1) = 0."""
        rng = streamed(function_words(2, [0.0], [0.25, 0.5], atom=0.875))
        [f] = random_step_functions(rng, -1.0, 1)
        assert (list(f.breakpoints), list(f.values)) == ([0.0, 1.0], [INF])
        assert rng.bit_generator.state["pos"] == 18


class TestDraws:
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("count", [1, 2, 500, 515])
    def test_same_as_draw_loop(self, p, count):
        assert_stride(fresh, p, [count])

    @pytest.mark.parametrize("seed", [1, 3, 7, 42])
    def test_successive_calls(self, seed):
        """Successive calls of 500, 1, 37, 0 and 500 functions hold the
        functions of one call of 1038 and end where it does."""
        rng, twin = substreams(seed, 1)[0], substreams(seed, 1)[0]
        got = joined(as_lists(_draws(rng, 1.5, c)) for c in (500, 1, 37, 0, 500))
        assert got == as_lists(_draws(twin, 1.5, 1038))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert_stride(lambda: substreams(seed, 1)[0], 1.5, [500, 1, 37, 0, 500])

    @pytest.mark.parametrize("p", [-1.0, 3.0])
    def test_cached_uint32_on_entry(self, p):
        """A full 32-bit cache is neither read nor cleared: the functions are
        a fresh generator's, and the cache is still full at the end."""
        for count in (1, 2, 500):
            assert as_lists(_draws(cached(), p, count)) == as_lists(
                _draws(fresh(), p, count))
            assert_stride(cached, p, [count])

    def test_zero_interior_breakpoint(self):
        """Three atoms with breakpoints 0.0 and 0.5: the 0.0 merges into the
        start, so m = 2 intervals take the first two value words and the
        atom index is floor(0.875 * 2) = 1, not floor(0.875 * 3) = 2."""
        rng = streamed(function_words(3, [0.0, 0.5], [0.25, 0.75, 0.5],
                                      atom=0.875))
        want = ([2], [0.0, 0.5, 1.0], [exp_values([0.25])[0], 0.0])
        assert as_lists(_draws(rng, 2.0, 1)) == want
        assert rng.bit_generator.state["pos"] == 18

    @pytest.mark.parametrize("p, atom", [(-2.0, INF), (-0.5, INF),
                                         (0.5, 0.0), (3.0, 0.0)])
    def test_decoded_by_hand(self, p, atom):
        """One function from 18 known words. Word 0's top three bits give
        n = 4, the first three breakpoint words sort to 0.125, 0.375, 0.625,
        the first four value words give the values, and the atom test's
        largest uniform below 0.1 plants the atom at floor(0.625 * 4) = 2.
        Words 4-7 and 12-15 are not read, nor are each word's low 11 bits
        or word 0's low 61."""
        low = (1 << 11) - 1
        words = [3 << 61 | 0x123456789,
                 double_word(0.625) | low, double_word(0.125), double_word(0.375),
                 double_word(0.0), double_word(0.0), double_word(0.5), low,
                 double_word(0.5), double_word(0.25) | low, double_word(0.125),
                 double_word(0.875),
                 double_word(0.0), double_word(0.0), low, double_word(0.5),
                 (900719925474100 - 1) << 11 | low,  # u just below 0.1
                 double_word(0.625)]
        values = exp_values([0.5, 0.25, 0.125, 0.875])
        values[2] = atom
        want = ([4], [0.0, 0.125, 0.375, 0.625, 1.0], values)
        assert values[0] == 1.0
        for draw in (lambda rng: as_lists(_draws(rng, p, 1)),
                     lambda rng: listed(random_step_functions(rng, p, 1))):
            rng = streamed(words)
            assert draw(rng) == want
            assert rng.bit_generator.state["pos"] == 18

    def test_atom_test_boundary(self):
        """The smallest atom-test word read as 0.1 plants no atom; one below
        it does (the words of a one-atom function with value exp(0))."""
        words = function_words(1, [], [0.5])
        for test, want in ((900719925474100 << 11, 1.0),
                           ((900719925474100 - 1) << 11 | 2047, 0.0)):
            words[16] = test
            assert as_lists(_draws(streamed(words), 1.0, 1)) == (
                [1], [0.0, 1.0], [want])

    def test_buffers_bounded(self):
        """Each call reads one buffer of exactly 18 words per function, by
        one random_raw call: no state read, no advance."""
        class Recording:
            """A bit generator with random_raw only, recording each size."""

            def __init__(self, bg):
                self.bg, self.sizes = bg, []

            def random_raw(self, size):
                self.sizes.append(size)
                return self.bg.random_raw(size)

        class Rng:
            bit_generator = Recording(substreams(9, 1)[0].bit_generator)

        for count in (1, 2, 515, 0):
            _draws(Rng, 2.0, count)
        random_step_functions(Rng, 2.0, 7)
        random_pair(Rng, 2.0)
        assert Rng.bit_generator.sizes == [18, 36, 18 * 515, 0, 18 * 7, 36]

    def test_word_list_windowed(self):
        """At criterion 2's 18,180 functions a call peaks near 10 MB of
        Python and numpy allocations, the words and their uniforms as
        (count, 18) arrays."""
        rng = substreams(1, 1)[0]
        tracemalloc.start()
        try:
            _draws(rng, 2.0, 18180)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6


class TestExactWalk:
    """The layout walked exactly: replay from any draw, and merges."""

    @pytest.mark.parametrize("count", [1, 2, 500, 515])
    @pytest.mark.parametrize("make", [fresh, cached],
                             ids=["fresh", "cached-uint32"])
    def test_forced_rewalk(self, count, make):
        """Replay: draw k of a call of ``count``, walked again on a twin
        forced 18k words on by advance, is _draws(twin, p, 1)'s and
        random_step_functions(twin, p, 1)'s function."""
        for p in (-2.0, 3.0):
            m, bps, vals = as_lists(_draws(make(), p, count))
            for k in range(count):
                v = sum(m[:k])
                want = ([m[k]], bps[v + k:v + k + m[k] + 1], vals[v:v + m[k]])
                twin, lists = make(), make()
                twin.bit_generator.advance(18 * k)
                lists.bit_generator.advance(18 * k)
                assert as_lists(_draws(twin, p, 1)) == want
                assert listed(random_step_functions(lists, p, 1)) == want

    def test_repeated_breakpoint(self):
        """Three atoms with both breakpoints 0.5 merge into m = 2 intervals:
        the first two value words, the atom at floor(0.75 * 2) = 1, not
        floor(0.75 * 3) = 2; the next function starts 18 words on."""
        words = (function_words(3, [0.5, 0.5], [0.25, 0.75, 0.125], atom=0.75)
                 + function_words(2, [0.25], [0.5, 0.375]))
        want = ([2, 2], [0.0, 0.5, 1.0, 0.0, 0.25, 1.0],
                [exp_values([0.25])[0], 0.0, *exp_values([0.5, 0.375])])
        for draw in (lambda rng: as_lists(_draws(rng, 1.0, 2)),
                     lambda rng: listed(random_step_functions(rng, 1.0, 2))):
            rng = streamed(words)
            assert draw(rng) == want
            assert rng.bit_generator.state == {"pos": 36, "has_uint32": 0,
                                               "uinteger": 0}

    def test_repeated_zero_breakpoint(self):
        """Four atoms with breakpoints 0.0, 0.0 and 0.5 merge into m = 2
        intervals: the first two value words, the atom at
        floor(0.625 * 2) = 1, not floor(0.625 * 4) = 2."""
        words = function_words(4, [0.0, 0.0, 0.5], [0.5, 0.25, 0.75, 0.125],
                               atom=0.625)
        want = ([2], [0.0, 0.5, 1.0], [1.0, INF])
        for draw in (lambda rng: as_lists(_draws(rng, -0.5, 1)),
                     lambda rng: listed(random_step_functions(rng, -0.5, 1))):
            rng = streamed(words)
            assert draw(rng) == want
            assert rng.bit_generator.state["pos"] == 18


N = 200_000


@pytest.fixture(scope="module", params=[2.0, -1.0])
def many(request):
    """(p, atom, lengths, breakpoints, values) of N functions at p."""
    p = request.param
    return (p, 0.0 if p > 0 else INF,
            *_draws(substreams(2024, 1)[0], p, N))


class TestDistribution:
    def test_atom_counts(self, many):
        """Each count 1..8 at 1/8, within 0.004: 5.4 binomial standard
        deviations, sqrt(1/8 * 7/8 / N) = 7.4e-4. A merge (probability
        below 2^-48 per function) moves none of them here."""
        m = many[2]
        freq = np.bincount(m, minlength=9) / N
        assert freq[0] == 0 and len(freq) == 9
        assert np.abs(freq[1:] - 1 / 8).max() < 0.004

    def test_atom_rate(self, many):
        """At most one atom per function, in 0.1 of them within 0.0035: 5.2
        binomial standard deviations, sqrt(0.1 * 0.9 / N) = 6.7e-4."""
        _, atom, m, _, values = many
        atoms = np.bincount(np.repeat(np.arange(N), m)[values == atom],
                            minlength=N)
        assert atoms.max() == 1
        assert abs(atoms.mean() - 0.1) < 0.0035

    def test_value_range(self, many):
        """Every value is in [e^-3, e^3] or the atom, and each function's
        breakpoints rise from 0.0 to 1.0."""
        _, atom, m, bps, values = many
        assert np.all((values == atom)
                      | ((values >= np.exp(-3.0)) & (values <= np.exp(3.0))))
        ends = np.cumsum(m + 1) - 1
        assert np.all(bps[ends] == 1.0) and np.all(bps[ends - m] == 0.0)
        assert np.all(np.delete(np.diff(bps), ends[:-1]) > 0)


class TestTally:
    def test_empty(self):
        assert _tally([]) == (0, np.inf)

    def test_counts_below_tolerance(self):
        assert _tally([0.5, -1e-16, -2e-9, 0.0, -3.0]) == (2, -3.0)
        assert _tally([-1e-9, 1.0]) == (0, -1e-9)

    def test_nan_alone_is_a_violation(self):
        violations, worst = _tally([float("nan")])
        assert violations == 1 and np.isnan(worst)

    @pytest.mark.parametrize("margins", [
        [0.0, float("nan"), -1e-16], [float("nan"), -5.0, 1.0],
        [-5.0, 1.0, float("nan")],
    ], ids=["middle", "first", "last"])
    def test_nan_reaches_worst(self, margins):
        violations, worst = _tally(margins)
        assert violations == 1 + sum(m < -1e-9 for m in margins)
        assert np.isnan(worst)

    def test_signed_zero_tie_goes_to_first(self):
        assert repr(_tally([0.0, -0.0, 1.0])) == "(0, 0.0)"
        assert repr(_tally(np.array([1.0, -0.0, 0.0]))) == "(0, -0.0)"

    def test_several_nans(self):
        nan = float("nan")
        violations, worst = _tally(np.array([1.0, nan, -3.0, nan, -1e-16]))
        assert violations == 3 and np.isnan(worst)

    def test_array_as_list(self):
        margins = [0.5, -1e-16, -2e-9, 0.0, -3.0, -3.0]
        assert repr(_tally(np.array(margins))) == repr(_tally(margins))


class TestPairSweep:
    @pytest.mark.parametrize("seed", [1, 7, 202])
    def test_matches_per_pair_loop(self, seed):
        assert repr(pair_sweep(seed, 2750)) == repr(
            reference_pair_sweep(seed, 2750))

    @pytest.mark.parametrize("samples", [1, 5, 10])
    def test_one_pair_per_exponent(self, samples):
        assert repr(pair_sweep(3, samples)) == repr(
            reference_pair_sweep(3, samples))


class TestSumSweep:
    @pytest.mark.parametrize("seed", [1, 7, 202])
    # 1799 sums are 257 per exponent: one more than SUM_CHUNK
    @pytest.mark.parametrize("samples", [7, 14, 700, 1799])
    def test_matches_per_term_loop(self, seed, samples):
        assert repr(sum_sweep(seed, samples)) == repr(
            reference_sum_sweep(seed, samples))

    def test_size_words_then_records(self):
        """Each case reads its ``per`` size words first, then its sums'
        functions as 18-word records, one draw call per chunk: sum k of a case
        replays on a twin as advance(per + 18 * sum(sizes[:k])) from the case's
        start and one _draws(twin, p, sizes[k]). Two cases share a generator,
        as sum_sweep's do, 300 sums each: a full chunk and a short one."""
        per, calls, rng = 300, [], fresh()

        def draw(rng, p, count):
            columns = _draws(rng, p, count)
            calls.append(as_lists(columns))
            return columns

        def twin(words):
            gen = fresh()
            gen.bit_generator.advance(words)
            return gen

        suites.many_sweep([(1.5, True, rng), (2.0, False, rng)], per, draw)
        start, want = 0, []
        for p in (1.5, 2.0):
            sizes = [3 + ((w >> 11) * 6 >> 53)
                     for w in twin(start).bit_generator.random_raw(per).tolist()]
            assert min(sizes) == 3 and max(sizes) == 8
            ends = np.cumsum([0] + sizes).tolist()
            want += [as_lists(_draws(twin(start + per + 18 * e), p, n))
                     for e, n in zip(ends, sizes)]
            start += per + 18 * ends[-1]
        assert len(calls) == 4  # ceil(300 / SUM_CHUNK) per case
        assert joined(calls) == joined(want)
        assert rng.bit_generator.state == twin(start).bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_any_chunk_size(self, monkeypatch, chunk):
        """Every margin, in draw order, does not depend on how many sums
        share a kernel call: 10 sums per exponent in chunks of 1, 3 (the
        last one short) or 10."""
        monkeypatch.setattr(suites, "SUM_CHUNK", chunk)
        monkeypatch.setattr(suites, "_tally", lambda margins: margins.tolist())
        assert repr(sum_sweep(3, 70)) == repr(reference_sum_sweep(3, 70, list))
