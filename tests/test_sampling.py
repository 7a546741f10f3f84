import tracemalloc

import numpy as np
import pytest

from lpenv import sampling
from lpenv.envelopes import classify
from lpenv.powers import INF
from lpenv.envelopes import sum_bound
from lpenv.sampling import (_draws, random_pair, random_step_functions,
                            substreams)
from lpenv.stepfun import (StepFunction, _integral, _refine, overlap_norm,
                           pth_power_norm, sum_and_report)
from lpenv.suites import (P_GRID, SUM_LOWER_PS, SUM_UPPER_PS, _tally,
                          pair_sweep, sum_sweep)
from reference_draw import _draw, columns


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


def reference_sum_sweep(seed, samples):
    """The sum sweep one term at a time: a _draw per term, then the
    moments, overlaps and sum norm of each sum as many_sweep takes them."""
    upper, lower = substreams(seed, 2)
    cases = ([(p, True, upper) for p in SUM_UPPER_PS]
             + [(p, False, lower) for p in SUM_LOWER_PS])
    per = max(1, samples // len(cases))

    def margins():
        for p_val, upper, rng in cases:
            p = classify(p_val)
            sign = 1.0 if upper else -1.0
            for _ in range(per):
                fs = [StepFunction(*_draw(rng, p.p))
                      for _ in range(int(rng.integers(3, 9)))]
                moments = [pth_power_norm(f, p.p) for f in fs]
                overlaps = sum(overlap_norm(f, g, p.p)
                               for i, f in enumerate(fs) for g in fs[i + 1:])
                bps, vals = fs[0].breakpoints, fs[0].values
                for f in fs[1:]:
                    bps, av, bv = _refine(bps, vals, f.breakpoints, f.values)
                    vals = [a + b for a, b in zip(av, bv)]
                actual = _integral(bps, vals, p.p)
                bound = sum_bound(moments, overlaps, p)
                yield sign * (bound - actual) / max(1.0, abs(actual))

    return _tally(list(margins()))


class TestRandomPairs:
    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 3.0])
    def test_same_draws_as_random_pair(self, p):
        """pair_sweep's two _draw calls per pair hold random_pair's
        functions and leave the generator where random_pair does."""
        sweep, twin = substreams(11, 1)[0], substreams(11, 1)[0]
        for _ in range(300):
            drawn = (_draw(sweep, p), _draw(sweep, p))
            for f, (bps, vals) in zip(random_pair(twin, p), drawn):
                assert bps == list(f.breakpoints)
                assert vals == list(f.values)
        assert sweep.bit_generator.state == twin.bit_generator.state

    def test_zero_interior_breakpoint_rejected(self):
        """Two atoms from the cached 1 << 29 and an interior breakpoint
        drawn as 0.0: the sampler raises _draw's error and leaves the
        generator where _draw does."""
        rng, twin = planted(0, 1, 1 << 29), planted(0, 1, 1 << 29)
        with pytest.raises(ValueError, match="strictly increasing") as got:
            random_step_functions(rng, 1.0, 1)
        with pytest.raises(ValueError) as want:
            _draw(twin, 1.0)
        assert str(got.value) == str(want.value)
        assert rng.bit_generator.state == twin.bit_generator.state


def planted(word, has_uint32=0, uinteger=0):
    """A PCG64 generator whose next raw word is ``word`` (below 2**64) and
    whose 32-bit cache holds ``has_uint32`` and ``uinteger``.

    PCG64 steps its 128-bit state, then outputs the XSL-RR of the new
    state, which is the low word when the high word is 0; advancing by
    2**128 - 1 steps back once, so the next step lands on that state.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bg = rng.bit_generator
    state = bg.state
    state["state"]["state"] = word
    bg.state = state
    bg.advance(2 ** 128 - 1)
    state = bg.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    bg.state = state
    return rng


def rejecting_word():
    """The first word w >= 2**30 that starts a three-atom function whose
    degenerate atom is planted: w's low half gives n = 3 and its high half,
    0, is the cached 32-bit draw that Lemire's method rejects at range 3."""
    w = 1 << 30
    while (planted(w).bit_generator.random_raw(7)[6] >> 11) * 2.0 ** -53 >= 0.1:
        w += 1
    assert w >> 29 == 2
    return w


def as_lists(arrays):
    """_draws' arrays as lists, compared with == rather than a tolerance."""
    return tuple(a.tolist() for a in arrays)


def assert_same_as_draw(make, p, counts):
    """_draws(rng, p, c) for each c of ``counts`` in turn holds the columns
    of what c _draw(twin, p) calls return, and leaves rng's state where
    they do."""
    rng, twin = make(), make()
    for count in counts:
        assert as_lists(_draws(rng, p, count)) == columns(
            [_draw(twin, p) for _ in range(count)])
        assert rng.bit_generator.state == twin.bit_generator.state


class TestDraws:
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("count", [1, 2, 500, 2 * sampling._CHUNK + 3])
    def test_same_as_draw_loop(self, p, count):
        assert_same_as_draw(lambda: substreams(5, 1)[0], p, [count])

    @pytest.mark.parametrize("seed", [1, 3, 7, 42])
    def test_successive_calls(self, seed):
        assert_same_as_draw(lambda: substreams(seed, 1)[0], 1.5,
                            [500, 1, 37, 0, 500])

    @pytest.mark.parametrize("p", [-1.0, 3.0])
    def test_cached_uint32_on_entry(self, p):
        for count in (1, 2, 500):
            assert_same_as_draw(lambda: planted(987654321, 1, 0xDEADBEEF), p,
                                [count])

    def test_zero_interior_breakpoint(self):
        """Atom count 2 from the cached 1 << 29, then the word 0 as the
        breakpoint: both paths raise and leave the same state."""
        rng, twin = planted(0, 1, 1 << 29), planted(0, 1, 1 << 29)
        with pytest.raises(ValueError, match="strictly increasing") as got:
            _draws(rng, 1.0, 3)
        with pytest.raises(ValueError, match="strictly increasing") as want:
            _draw(twin, 1.0)
        assert str(got.value) == str(want.value)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("p, atom", [(-2.0, INF), (-0.5, INF),
                                         (0.5, 0.0), (3.0, 0.0)])
    def test_lemire_rejection(self, p, atom):
        """The cached draw 0 is rejected at range 3, so the index takes a
        fresh word and the call ends with the uint32 cache full."""
        w = rejecting_word()
        rng, twin = planted(w), planted(w)
        [n], breakpoints, values = as_lists(_draws(rng, p, 1))
        assert (breakpoints, values) == _draw(twin, p)
        assert n == 3
        assert len(values) == 3 and atom in values
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_same_as_draw(lambda: planted(w), p, [2, 500])

    def test_buffers_bounded(self):
        """Each random_raw call takes at most _CHUNK functions' words, and
        2 * _CHUNK + 3 functions take a few buffers, not one per function."""
        class Recording:
            """A bit generator that records each random_raw size."""

            def __init__(self, bg):
                self.bg, self.sizes = bg, []

            state = property(lambda self: self.bg.state,
                             lambda self, state: setattr(self.bg, "state", state))

            def advance(self, delta):
                self.bg.advance(delta)
                return self

            def random_raw(self, size):
                self.sizes.append(size)
                return self.bg.random_raw(size)

        class Rng:
            bit_generator = Recording(substreams(9, 1)[0].bit_generator)

        count = 2 * sampling._CHUNK + 3
        twin = substreams(9, 1)[0]
        assert as_lists(_draws(Rng, 2.0, count)) == columns(
            [_draw(twin, 2.0) for _ in range(count)])
        assert Rng.bit_generator.state == twin.bit_generator.state
        assert max(Rng.bit_generator.sizes) == sampling._CHUNK * sampling._WORDS
        assert 2 <= len(Rng.bit_generator.sizes) <= 4

    def test_word_list_windowed(self):
        """The walk keeps only the unread words of the last buffer as Python
        ints: at criterion 2's 18,180 functions a call peaks near 11 MB of
        Python and numpy allocations, against 19 MB when all ~309,000 words
        stayed in one list."""
        rng = substreams(1, 1)[0]
        tracemalloc.start()
        try:
            _draws(rng, 2.0, 18180)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    def test_refill_in_rejection_loop(self, monkeypatch):
        """With a buffer of seven words, the rejected function uses all
        seven, and the index's next draw takes a new buffer."""
        monkeypatch.setattr(sampling, "_WORDS", 7)
        w = rejecting_word()
        rng, twin = planted(w), planted(w)
        assert as_lists(_draws(rng, 3.0, 1)) == columns([_draw(twin, 3.0)])
        assert rng.bit_generator.state == twin.bit_generator.state


class Stream:
    """A stand-in bit generator that hands out ``words`` as raw words (zeros
    after them), with PCG64's state keys for the position and the 32-bit
    cache; advance steps the position modulo 2**128 and clears the cache."""

    def __init__(self, words):
        self.words, self.state = words, {"pos": 0, "has_uint32": 0,
                                         "uinteger": 0}

    def advance(self, delta):
        self.state = {"pos": (self.state["pos"] + delta) % 2 ** 128,
                      "has_uint32": 0, "uinteger": 0}
        return self

    def random_raw(self, size):
        pos = self.state["pos"]
        self.advance(size)
        return np.array((self.words + [0] * (pos + size))[pos:pos + size],
                        dtype=np.uint64)


def word(low=0, high=0):
    return high << 32 | low


def double_word(x):
    """The word that random() reads as x, a multiple of 2**-53 in [0, 1)."""
    return int(x * 2 ** 53) << 11


class TestExactWalk:
    @pytest.mark.parametrize("count", [1, 2, 500, 2 * sampling._CHUNK + 3])
    @pytest.mark.parametrize("make", [lambda: substreams(5, 1)[0],
                                      lambda: planted(987654321, 1, 0xDEADBEEF)],
                             ids=["fresh", "cached-uint32"])
    def test_forced_rewalk(self, monkeypatch, count, make):
        """Every fast walk flagged as if it held a repeated breakpoint: both
        samplers rewind and walk again exactly, and give _draw's functions
        and state."""
        sample, passes = sampling._sample, []

        def flag_fast_walk(rng, p, count, assemble):
            def flagged(*walk):
                passes.append(len(passes) % 2)
                if passes[-1] == 0:
                    raise ValueError("flagged")
                return assemble(*walk)
            return sample(rng, p, count, flagged)

        monkeypatch.setattr(sampling, "_sample", flag_fast_walk)
        for p in (-2.0, 3.0):
            assert_same_as_draw(make, p, [count])
            rng, twin = make(), make()
            fs = random_step_functions(rng, p, min(count, 40))
            assert [(list(f.breakpoints), list(f.values)) for f in fs] == [
                _draw(twin, p) for _ in fs]
            assert rng.bit_generator.state == twin.bit_generator.state
        assert passes == [0, 1] * 4

    def test_repeated_breakpoint(self):
        """Three atoms with both breakpoints 0.5: the fast walk takes three
        values, assembly finds the repeat, and the exact walk takes two,
        its atom test, then a one-atom function from the cached high half."""
        words = [word(2 << 29), double_word(0.5), double_word(0.5),
                 double_word(0.25), double_word(0.75), double_word(0.5),
                 double_word(0.125), double_word(0.625)]
        value = np.exp(-3.0 + 6.0 * np.array([0.25, 0.75, 0.125])).tolist()
        want = ([2, 1], [0.0, 0.5, 1.0, 0.0, 1.0], value)
        for draw in (lambda rng: as_lists(_draws(rng, 1.0, 2)),
                     lambda rng: columns([(list(f.breakpoints), list(f.values))
                                          for f in random_step_functions(rng, 1.0, 2)])):
            rng = type("Rng", (), {"bit_generator": Stream(words)})
            assert draw(rng) == want
            assert rng.bit_generator.state == {"pos": 8, "has_uint32": 0,
                                               "uinteger": 0}

    def test_repeated_zero_breakpoint(self):
        """0.0 twice among the breakpoints is a zero breakpoint, raised by
        the exact walk with the position just past the breakpoints and the
        atom-count word's high half cached."""
        words = [word(3 << 29, 7), 0, 0, double_word(0.5)] + [double_word(0.5)] * 8
        for draw in (_draws, random_step_functions):
            rng = type("Rng", (), {"bit_generator": Stream(words)})
            with pytest.raises(ValueError, match="strictly increasing"):
                draw(rng, 1.0, 1)
            assert rng.bit_generator.state == {"pos": 4, "has_uint32": 1,
                                               "uinteger": 7}


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
    @pytest.mark.parametrize("samples", [7, 14, 700])
    def test_matches_per_term_loop(self, seed, samples):
        assert repr(sum_sweep(seed, samples)) == repr(
            reference_sum_sweep(seed, samples))
