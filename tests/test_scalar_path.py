"""The scalar API's fast path against tests/reference_scalar.py: the same
floats by repr, the same exceptions by type and message, on random step
functions at every P_GRID exponent and on hand-built edge cases."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scalar as ref
from lpenv import envelopes, extremal, stepfun
from lpenv.envelopes import ConeTriple, classify
from lpenv.powers import INF
from lpenv.sampling import random_step_functions
from lpenv.stepfun import StepFunction, _integral
from lpenv.suites import P_GRID

NAN = math.nan
TINY = 5e-324  # the smallest subnormal
SPECIAL = (0.0, -0.0, INF, -INF, NAN, TINY, 2.2250738585072014e-308, 1e-300,
           1e300, 1.7976931348623157e308, 0, 1, 3, -2, 10 ** 400,
           np.float64(2.5), np.float64(0.0), np.float64(1e-300), np.float64(NAN))
EXPONENTS = (*P_GRID, *(0.5 * p for p in P_GRID), 0.0, 1e-3, -1e-3, 400.0)

reals = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-3, 10))


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def built(breakpoints, values):
    f = StepFunction(breakpoints, values)
    return f.breakpoints, f.values


def functions(construct, p, t):
    return [(h.breakpoints, h.values) for h in construct(p, t)]


def reference_kernels():
    """The scalar API with the reference power loop and ConeTriple."""
    return mock.patch.multiple(stepfun, _integral=ref.integral, ConeTriple=ref.ConeTriple)


class TestIntegral:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(P_GRID))
    @settings(max_examples=300, deadline=None)
    def test_random_pairs_match(self, seed, p):
        f, g = random_step_functions(np.random.default_rng(seed), p, 2)
        calls = [(stepfun.pth_power_norm, f, p), (stepfun.overlap_norm, f, g, p),
                 (stepfun.triple_of_pair, f, g, p), (stepfun.sum_norm, f, g, p)]
        got = [outcome(*call) for call in calls]
        with reference_kernels():
            assert got == [outcome(*call) for call in calls]

    @given(st.lists(reals, min_size=1, max_size=6), st.sampled_from(EXPONENTS))
    @settings(max_examples=500, deadline=None)
    def test_edge_values_match(self, values, expo):
        breakpoints = np.linspace(0.0, 1.0, len(values) + 1).tolist()
        assert (outcome(_integral, breakpoints, values, expo)
                == outcome(ref.integral, breakpoints, values, expo))

    @pytest.mark.parametrize("values, expected", [
        # a +inf term returns +inf before a later power would overflow
        ((0.0, 1e-300), repr(INF)),
        # an overflowing power raises before a later +inf term
        ((1e-300, 0.0), (OverflowError, "1e-300 ** -2.0 overflows the float range")),
        ((1e-300, INF), (OverflowError, "1e-300 ** -2.0 overflows the float range")),
        ((INF, 2.0), repr(0.125)),
    ])
    def test_overflow_order(self, values, expected):
        for fn in (_integral, ref.integral):
            assert outcome(fn, (0.0, 0.5, 1.0), values, -2.0) == expected


class TestStepFunctionChecks:
    @given(st.lists(reals, min_size=0, max_size=6), st.lists(reals, min_size=0, max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_edge_inputs_match(self, inner, values):
        for breakpoints in ([0.0, *inner, 1.0], [*inner, 1.0], inner[::-1]):
            assert outcome(built, breakpoints, values) == outcome(
                ref.step_function, breakpoints, values)

    @pytest.mark.parametrize("breakpoints, values", [
        ((0.0, NAN, 1.0), (1.0, 2.0)),          # NaN breakpoint
        ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0)),  # repeated
        ((0.0, 0.7, 0.3, 1.0), (1.0, 2.0, 3.0)),  # decreasing
        ((0.0, 0.5, 1.0), (NAN, 2.0)),           # NaN value
        ((0.0, 0.5, 1.0), (-0.0, INF)),          # -0.0 and +inf pass
        ((0.0, 0.5, 1.0), (TINY, np.float64(2.0))),
        ((0, 1), (3,)),
        ((0.0, 0.5, 0.5, 1.0), (NAN, 1.0)),      # the breakpoints fail first
        ((-0.0, 1.0), (-1.0,)),
    ])
    def test_hand_built_cases_match(self, breakpoints, values):
        assert outcome(built, breakpoints, values) == outcome(
            ref.step_function, breakpoints, values)

    @pytest.mark.parametrize("breakpoints, values, message", [
        ((0.0, NAN, 1.0), (1.0, 2.0), "breakpoints must be strictly increasing"),
        ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
        ((0.0, 0.7, 0.3, 1.0), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
        ((0.0, 0.5, 1.0), (NAN, 2.0), "values must be nonnegative (or +inf)"),
        ((0.0, 0.5, 1.0), (1.0, -TINY), "values must be nonnegative (or +inf)"),
    ])
    def test_messages(self, breakpoints, values, message):
        with pytest.raises(ValueError) as err:
            StepFunction(breakpoints, values)
        assert str(err.value) == message


class TestConeTripleChecks:
    @given(reals, reals, reals)
    @settings(max_examples=500, deadline=None)
    def test_edge_triples_match(self, x, y, z):
        assert outcome(ConeTriple, x, y, z) == outcome(ref.ConeTriple, x, y, z)

    @given(st.floats(0, 1e300), st.floats(0, 1e300), st.floats(0.999, 1.001))
    @settings(max_examples=300, deadline=None)
    def test_boundary_triples_match(self, x, y, frac):
        # around z = sqrt(x*y): clamped within EPS_CS, rejected beyond it
        z = frac * math.sqrt(x) * math.sqrt(y)
        got, want = outcome(ConeTriple, x, y, z), outcome(ref.ConeTriple, x, y, z)
        assert got == want
        if isinstance(got, str):
            t, r = ConeTriple(x, y, z), ref.ConeTriple(x, y, z)
            assert dataclasses.asdict(t) == dataclasses.asdict(r)
            assert hash(t) == hash(r)
            assert t == dataclasses.replace(t) and t != r  # eq compares classes
            assert repr(dataclasses.replace(t, z=0.0)) == repr(dataclasses.replace(r, z=0.0))

    @pytest.mark.parametrize("triple, message", [
        ((-1.0, 1.0, 0.5), "x must be a finite nonnegative real, got -1.0"),
        ((1, -TINY, 0), "y must be a finite nonnegative real, got -5e-324"),
        ((1.0, INF, 0.5), "y must be a finite nonnegative real, got inf"),
        ((1.0, 1.0, -INF), "z must be a finite nonnegative real, got -inf"),
        ((1.0, 1.0, NAN), "z must be a finite nonnegative real, got nan"),
        ((NAN, -1.0, INF), "x must be a finite nonnegative real, got nan"),
        ((1.0, 1.0, 1.0 + 1e-6), "z=1.000001 violates Cauchy-Schwarz: sqrt(x*y)=1.0"),
    ])
    def test_messages(self, triple, message):
        for cls in (ConeTriple, ref.ConeTriple):
            with pytest.raises(ValueError) as err:
                cls(*triple)
            assert str(err.value) == message

    def test_clamp_and_fields(self):
        t = ConeTriple(1, 1, 1.0 + 1e-10)
        assert (t.x, t.y, t.z) == (1.0, 1.0, 1.0) and type(t.x) is float
        assert ConeTriple(-0.0, 2.0, 0.0) == ConeTriple(x=0.0, y=2, z=-0.0)
        assert repr(ConeTriple(-0.0, 2, 0)) == "ConeTriple(x=-0.0, y=2.0, z=0.0)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.z = 0.5
        assert envelopes.ConeTriple.__match_args__ == ("x", "y", "z")


class TestExtremal:
    """extremal_F without _two_block and extremal_G without the call on the
    swapped triple build the functions of the reference constructors."""

    norms = st.one_of(st.sampled_from((0.0, TINY, 1e-300, 1.0, 2.0, 1e300)),
                      st.floats(0, 1e6))

    @given(st.sampled_from((*P_GRID, 0.05, -0.05, 10.0, -3.0)), norms, norms,
           st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)))
    @settings(max_examples=500, deadline=None)
    def test_constructors_match(self, p_val, x, y, frac):
        p, t = classify(p_val), ConeTriple(x, y, frac * math.sqrt(x) * math.sqrt(y))
        for new, old in ((extremal.extremal_F, ref.extremal_F),
                         (extremal.extremal_G, ref.extremal_G)):
            assert outcome(functions, new, p, t) == outcome(functions, old, p, t)

    @pytest.mark.parametrize("triple", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (2.0, 2.0, 2.0),
                                        (1.0, 3.0, 1.5), (3.0, 1.0, 1.5), (1.0, 1.0, 0.25)])
    @pytest.mark.parametrize("p_val", [-1.0, 0.5, 1.5, 3.0])
    def test_block_edges_match(self, p_val, triple):
        """c = 1 and c = 0 (one block each), z = sqrt(xy), and y > x (swapped)."""
        p, t = classify(p_val), ConeTriple(*triple)
        for new, old in ((extremal.extremal_F, ref.extremal_F),
                         (extremal.extremal_G, ref.extremal_G)):
            assert outcome(functions, new, p, t) == outcome(functions, old, p, t)
