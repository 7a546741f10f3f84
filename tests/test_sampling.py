import numpy as np
import pytest

from lpenv.envelopes import classify
from lpenv.sampling import _draw, random_pair, random_step_function, substreams
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
        class ZeroDraw:
            """Two atoms whose interior breakpoint is drawn as 0.0."""

            def integers(self, low, high):
                return 2

            def random(self, size=None):
                return np.zeros(size) if size else 0.5

        with pytest.raises(ValueError, match="strictly increasing"):
            random_step_function(ZeroDraw(), 1.0)


class TestPairSweep:
    @pytest.mark.parametrize("seed", [1, 7, 202])
    def test_matches_per_pair_loop(self, seed):
        assert repr(pair_sweep(seed, 2750)) == repr(
            reference_pair_sweep(seed, 2750))

    @pytest.mark.parametrize("samples", [1, 5, 10])
    def test_one_pair_per_exponent(self, samples):
        assert repr(pair_sweep(3, samples)) == repr(
            reference_pair_sweep(3, samples))
