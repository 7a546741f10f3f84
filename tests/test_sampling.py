import numpy as np
import pytest

from lpenv import sampling
from lpenv.envelopes import classify
from lpenv.sampling import random_pair, random_pairs, random_step_function, substreams
from lpenv.stepfun import sum_and_report
from lpenv.suites import P_GRID, _tally, pair_sweep


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

    return _tally(margins())


class TestRandomPairs:
    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 3.0])
    def test_same_draws_as_random_pair(self, p):
        batch, twin = substreams(11, 1)[0], substreams(11, 1)[0]
        count = 300
        fb, fv, gb, gv = random_pairs(batch, p, count)
        assert fb.shape == gb.shape == (count, sampling.MAX_ATOMS + 1)
        assert fv.shape == gv.shape == (count, sampling.MAX_ATOMS)
        for i in range(count):
            for f, bps, vals in zip(random_pair(twin, p), (fb, gb), (fv, gv)):
                n = len(f.values)
                assert bps[i, :n + 1].tolist() == list(f.breakpoints)
                assert vals[i, :n].tolist() == list(f.values)
                assert (bps[i, n + 1:] == 1.0).all()
        assert batch.bit_generator.state == twin.bit_generator.state

    def test_zero_interior_breakpoint_rejected(self):
        class ZeroDraw:
            """Two atoms whose interior breakpoint is drawn as 0.0."""

            def integers(self, low, high):
                return 2

            def random(self, size=None):
                return np.zeros(size) if size else 0.5

        with pytest.raises(ValueError, match="strictly increasing"):
            random_step_function(ZeroDraw(), 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            random_pairs(ZeroDraw(), 1.0, 3)


class TestPairSweep:
    @pytest.mark.parametrize("seed", [1, 7, 202])
    def test_matches_per_pair_loop(self, seed):
        assert repr(pair_sweep(seed, 2750)) == repr(
            reference_pair_sweep(seed, 2750))

    @pytest.mark.parametrize("samples", [1, 5, 10])
    def test_one_pair_per_exponent(self, samples):
        assert repr(pair_sweep(3, samples)) == repr(
            reference_pair_sweep(3, samples))
