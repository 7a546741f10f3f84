import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highprec import ref_F, ref_G, ref_carlen, ref_two_point
from lpenv import envelopes
from lpenv.envelopes import (MARGIN_TOL, BoundReport, ConeTriple, carlen_bound, classify,
                             envelope_arrays, eval_F, eval_G, lower_envelope,
                             sum_bound, upper_envelope)
from lpenv.powers import xpow
from lpenv.stepfun import StepFunction, group_norms, pth_power_norm, sum_norm
from lpenv.suites import P_GRID, SUM_LOWER_PS, SUM_UPPER_PS
from reference_draw import columns


class TestClassify:
    def test_regimes(self):
        assert classify(2.0).f_is_concave
        assert classify(2.0).p == 2.0
        assert not classify(1.5).f_is_concave
        assert classify(0.5).f_is_concave
        assert classify(1.0).f_is_concave
        assert classify(1.0).p == 1.0
        assert not classify(-1.0).f_is_concave
        assert classify(100.0).f_is_concave

    @pytest.mark.parametrize("bad", [0.0, 1e-4, -1e-9, math.inf, math.nan,
                                     True, "2", np.float32("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            classify(bad)

    @pytest.mark.parametrize("good", [np.float32(2.0), np.float64(1.5),
                                      np.int64(3), Fraction(-1, 2)])
    def test_accepts_any_finite_real(self, good):
        p = classify(good)
        assert type(p.p) is float and p.p == float(good)


class TestConeTriple:
    def test_clamps_within_slack(self):
        t = ConeTriple(1.0, 1.0, 1.0 + 1e-10)
        assert t.z == 1.0

    def test_rejects_beyond_slack(self):
        with pytest.raises(ValueError):
            ConeTriple(1.0, 1.0, 1.0 + 1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConeTriple(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("x, y, z", [
        (1e200, 1e200, 1e201),  # x*y overflows to inf
        (1e308, 1e308, 1.7e308),  # x + y overflows too
        (1e-300, 1e-300, 1e-299),  # x*y underflows to 0
    ])
    def test_rejects_beyond_slack_outside_normal_range(self, x, y, z):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            ConeTriple(x, y, z)

    @pytest.mark.parametrize("x, y, z", [
        (1e-300, 1e-300, 1e-300),  # x*y underflows to 0
        (1e-160, 1e-160, 1e-160),  # x*y is subnormal
        (1e200, 1e200, 1e200),  # x*y overflows to inf
    ])
    def test_boundary_outside_normal_range(self, x, y, z):
        t = ConeTriple(x, y, z)
        assert t.z == math.sqrt(x) * math.sqrt(y)
        assert t.z == pytest.approx(z, rel=1e-15)

    def test_clamp_keeps_sqrt_of_product(self):
        # in the normal range the clamp is sqrt(x*y) itself, which here
        # differs from sqrt(x)*sqrt(y) in the last bit
        x, y = 2.0, 3.0
        assert math.sqrt(x * y) != math.sqrt(x) * math.sqrt(y)
        assert ConeTriple(x, y, math.sqrt(x * y) * (1 + 1e-12)).z == math.sqrt(x * y)

    def test_ratios(self):
        t = ConeTriple(1.0, 1.0, 0.5)
        assert t.gamma == 0.5
        assert t.v == 1.0
        t = ConeTriple(1.0, 0.25, 0.4)
        assert t.v == pytest.approx(0.625, abs=0)
        t = ConeTriple(2.0, 3.0, 0.0)
        assert t.v == 1.0 and t.gamma == 0.0
        assert ConeTriple(0.0, 0.0, 0.0).gamma == 0.0


class TestPowConventions:
    def test_zero_negative(self):
        assert xpow(0.0, -0.5) == math.inf

    def test_inf_negative(self):
        assert xpow(math.inf, -2.0) == 0.0

    def test_inf_positive(self):
        assert xpow(math.inf, 1.5) == math.inf


class TestEvalF:
    def test_p2_identity(self):
        # for p = 2 the bracket reduces to 1 + Gamma, so F_2 = x + y + 2z
        assert eval_F(classify(2), ConeTriple(1, 1, 0.5)) == pytest.approx(3.0, rel=1e-14)

    def test_zero_overlap(self):
        assert eval_F(classify(3), ConeTriple(2, 1, 0)) == pytest.approx(3.0, rel=1e-14)

    def test_p3_frozen(self):
        # frozen from the 50-digit reference evaluation
        assert eval_F(classify(3), ConeTriple(1, 1, 0.5)) == pytest.approx(
            5.2937350181684707, rel=1e-14)

    def test_boundary(self):
        assert eval_F(classify(2), ConeTriple(1, 1, 1)) == pytest.approx(4.0, rel=1e-14)

    def test_origin(self):
        assert eval_F(classify(-1), ConeTriple(0, 0, 0)) == 0.0

    def test_p_negative_zero_overlap(self):
        # 0^(1/p) = +inf and inf^p = 0 for p < 0
        assert eval_F(classify(-1), ConeTriple(1, 2, 0)) == 0.0


class TestEvalG:
    def test_triangular_cone(self):
        val = eval_G(classify(1.5), ConeTriple(1, 1, 0.5))
        assert val == pytest.approx(2.0 + (2 ** 1.5 - 2) * 0.5, rel=1e-14)

    def test_p1_linear(self):
        for t in (ConeTriple(1, 1, 0.5), ConeTriple(2, 0.3, 0.7)):
            assert eval_G(classify(1), t) == pytest.approx(t.x + t.y, rel=1e-14)

    def test_frozen_off_triangle(self):
        assert eval_G(classify(1.5), ConeTriple(1, 0.25, 0.4)) == pytest.approx(
            1.5763933952917516, rel=1e-14)

    def test_negative_p(self):
        assert eval_G(classify(-1), ConeTriple(1, 1, 0.5)) == pytest.approx(0.25, rel=1e-14)

    def test_z_zero(self):
        assert eval_G(classify(1.5), ConeTriple(1, 2, 0)) == 3.0
        assert eval_G(classify(-1), ConeTriple(1, 2, 0)) == 0.0


class TestDispatch:
    def test_p2_coincide(self):
        p = classify(2)
        t = ConeTriple(1, 1, 0.5)
        assert upper_envelope(p, t) == pytest.approx(3.0, rel=1e-14)
        assert lower_envelope(p, t) == pytest.approx(3.0, rel=1e-14)

    def test_p1_coincide(self):
        p = classify(1)
        for t in (ConeTriple(1, 1, 0.5), ConeTriple(0.2, 3, 0.6)):
            assert upper_envelope(p, t) == pytest.approx(t.x + t.y, rel=1e-13)
            assert lower_envelope(p, t) == pytest.approx(t.x + t.y, rel=1e-13)

    def test_strict_between(self):
        p = classify(1.5)
        t = ConeTriple(1, 1, 0.5)
        up, lo = upper_envelope(p, t), lower_envelope(p, t)
        assert up == pytest.approx(2.414213562373095, rel=1e-14)
        assert lo == eval_F(p, t)
        assert lo < up

    def test_against_reference(self):
        rng = np.random.default_rng(5)
        for p_val in (-2, -0.7, 0.5, 1.3, 2.6, 7):
            p = classify(p_val)
            for _ in range(25):
                x, y = np.exp(rng.uniform(-2, 2, 2))
                z = rng.uniform(0, 1) * math.sqrt(x * y)
                t = ConeTriple(x, y, z)
                assert eval_F(p, t) == pytest.approx(
                    float(ref_F(p_val, x, y, z)), rel=1e-12)
                assert eval_G(p, t) == pytest.approx(
                    float(ref_G(p_val, x, y, z)), rel=1e-12)


class TestCarlen:
    def test_gamma_one(self):
        assert carlen_bound(classify(2), ConeTriple(1, 1, 1)) == pytest.approx(4.0)

    def test_gamma_zero(self):
        assert carlen_bound(classify(2), ConeTriple(1, 1, 0)) == pytest.approx(2.0)

    def test_frozen_p3(self):
        assert carlen_bound(classify(3), ConeTriple(1, 1, 0.5)) == pytest.approx(
            5.3135426257738461, rel=1e-14)
        # refinement: F_p <= carlen in the F-concave regime
        assert eval_F(classify(3), ConeTriple(1, 1, 0.5)) <= 5.3135426257738461

    def test_origin(self):
        assert carlen_bound(classify(3), ConeTriple(0, 0, 0)) == 0.0

    def test_reference(self):
        rng = np.random.default_rng(11)
        for p_val in (-1.5, 0.7, 1.4, 3.2):
            for _ in range(10):
                x, y = np.exp(rng.uniform(-1, 1, 2))
                z = rng.uniform(0, 1) * math.sqrt(x * y)
                assert carlen_bound(classify(p_val), ConeTriple(x, y, z)) == pytest.approx(
                    float(ref_carlen(p_val, x, y, z)), rel=1e-12)


def _array_rows():
    """10^4 log-uniform cone points over e^-5..e^5, then the edge rows:
    the origin, z = 0, w = 1, z clamped onto sqrt(xy), and points at
    1e-300 (x*y underflows) and 1e300."""
    rng = np.random.default_rng(23)
    x, y = np.exp(rng.uniform(-5.0, 5.0, (2, 10_000)))
    z = rng.uniform(0.0, 1.0, 10_000) * np.sqrt(x * y)
    rows = list(zip(x.tolist(), y.tolist(), z.tolist()))
    rows += [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 3.0, 0.0), (2.0, 3.0, 0.0),
             (1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (4.0, 9.0, 6.0),
             (1.0, 1.0, 1.0 + 1e-12), (4.0, 9.0, 6.0 * (1.0 + 1e-10)),
             (2.0, 3.0, math.sqrt(6.0) * (1.0 + 4e-16)),
             (1e-300, 1e-300, 1e-300), (1e-300, 2e-300, 1e-300),
             (1e-300, 2e-300, 0.0), (1e300, 1e300, 1e300),
             (1e300, 1e300, 0.5e300), (1e300, 3e299, 0.0)]
    return rows


ARRAY_ROWS = _array_rows()
ARRAY_TRIPLES = [ConeTriple(*row) for row in ARRAY_ROWS]


class TestEnvelopeArrays:
    """envelope_arrays against the scalar functions, bit for bit."""

    @pytest.mark.parametrize("p_val", P_GRID)
    def test_matches_scalar(self, p_val):
        p = classify(p_val)
        x, y, z = (np.array(col) for col in zip(*ARRAY_ROWS))
        got = envelope_arrays(p, x, y, z)
        for col, fn in zip(got, (eval_F, eval_G, upper_envelope,
                                 lower_envelope, carlen_bound)):
            want = [fn(p, t) for t in ARRAY_TRIPLES]
            assert np.array_equal(col, want), fn.__name__
            assert col.view(np.uint64).tolist() == np.array(
                want).view(np.uint64).tolist(), fn.__name__
        # the inputs are left as they were, clamped rows included
        assert z.tolist() == [row[2] for row in ARRAY_ROWS]

    @pytest.mark.parametrize("row", [
        (1.0, 1.0, 1.1), (1e200, 1e200, 1e201), (-1.0, 1.0, 0.0),
        (math.inf, 1.0, 0.0), (1.0, math.nan, 0.0),
    ], ids=["beyond-slack", "overflowing-product", "negative", "inf", "nan"])
    def test_rejects_as_cone_triple(self, row):
        with pytest.raises(ValueError) as want:
            ConeTriple(*row)
        rows = [(1.0, 2.0, 0.5), row, (1.0, 1.0, 2.0)]
        with pytest.raises(ValueError) as got:
            envelope_arrays(classify(3.0), *(np.array(c) for c in zip(*rows)))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p_val", [-2.0, -0.5, 0.5, 1.5, 3.0])
    def test_zero_z_edge_rows_skip_cone_triple(self, p_val, monkeypatch):
        """z = 0 (or -0.0) rows at x = 0, y = 0 or both match the scalar
        functions by repr without a ConeTriple of their own."""
        rows = [(x, y, z) for x, y in ((0.0, 2.0), (3.0, 0.0), (0.0, 0.0))
                for z in (0.0, -0.0)]
        p = classify(p_val)
        want = [repr([fn(p, ConeTriple(*row)) for row in rows]) for fn in (
            eval_F, eval_G, upper_envelope, lower_envelope, carlen_bound)]
        built = []
        monkeypatch.setattr(envelopes, "ConeTriple",
                            lambda *row: built.append(row) or ConeTriple(*row))
        got = envelope_arrays(p, *(np.array(c) for c in zip(*rows)))
        assert [repr(col.tolist()) for col in got] == want
        assert built == []

    @pytest.mark.parametrize("row", [
        (-1.0, 2.0, 0.0), (2.0, -1e-300, 0.0), (-1.0, 0.0, -0.0),
        (0.0, -2.0, -0.0), (math.inf, 0.0, 0.0), (0.0, math.inf, -0.0),
    ])
    def test_zero_z_invalid_rows_still_raise(self, row):
        """A negative x or y, or x + y = inf, still reaches ConeTriple's
        ValueError when z = 0."""
        with pytest.raises(ValueError) as want:
            ConeTriple(*row)
        with pytest.raises(ValueError) as got:
            envelope_arrays(classify(3.0), *(np.array([v]) for v in row))
        assert str(got.value) == str(want.value)

    def test_overflow_names_the_power(self):
        # eval_F's power sum overflows at p = -0.001, as at the scalar path
        p, t = classify(-0.001), ConeTriple(1.0, 1.0, 0.01)
        with pytest.raises(OverflowError) as want:
            eval_F(p, t)
        with pytest.raises(OverflowError) as got:
            envelope_arrays(p, np.array([1.0]), np.array([1.0]), np.array([0.01]))
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("** -1000.0 overflows the float range")


def two_point_sides(q, gamma):
    """F_p and Carlen at x + y = 2, Gamma = gamma and p = 1/q. They are 2^p lhs^p
    and 2^p rhs^p of the two-point inequality at x = sqrt(1 - Gamma^2):
    lhs = ((1+x)^q + (1-x)^q)/2 and rhs = ((1 + (1-x^2)^q)/2)^(1-q)."""
    p = 1.0 / q
    return envelopes._F(2.0, gamma, p, math.sqrt), envelopes._carlen(2.0, gamma, p)


class TestTwoPoint:
    """lhs <= rhs for q in (-inf, 1/2] u [1, inf), reversed on (1/2, 1): F_p
    below Carlen where F_p is the concave envelope, above it elsewhere."""

    def test_q1(self):
        F, C = two_point_sides(1.0, math.sqrt(1.0 - 0.7 ** 2))
        assert F == pytest.approx(2.0) and C == pytest.approx(2.0)

    def test_q2_x1(self):
        F, C = two_point_sides(2.0, 0.0)
        assert F == pytest.approx(2.0) and C == pytest.approx(2.0)

    def test_q3_direction(self):
        # lhs = 1.75 and rhs = 1.9785050114720444 at x = 0.5
        F, C = two_point_sides(3.0, math.sqrt(0.75))
        assert F == pytest.approx(3.5 ** (1.0 / 3.0), rel=1e-14)
        assert C == pytest.approx((2.0 * 1.9785050114720444) ** (1.0 / 3.0), rel=1e-13)
        assert F <= C

    def test_direction_grid(self):
        for q in np.linspace(-5, 5, 41):
            if q == 0.0:  # no exponent: both sides are 1
                continue
            concave = classify(1.0 / q).f_is_concave
            for x in np.linspace(0, 1, 21):
                F, C = two_point_sides(float(q), math.sqrt((1.0 - x) * (1.0 + x)))
                slack = 1e-12 * max(1.0, F, C)
                if concave:
                    assert F <= C + slack, (q, x)
                else:
                    assert F >= C - slack, (q, x)

    def test_reference(self):
        """Both sides at 50 digits, at the Gamma (0.436 to 0.995) and p the
        floats carry."""
        for q in (-2.0, 0.3, 0.75, 4.0):
            p = mp.mpf(1.0 / q)
            for x in (0.1, 0.5, 0.9):
                gamma = math.sqrt((1.0 - x) * (1.0 + x))
                F, C = two_point_sides(q, gamma)
                lhs, rhs = ref_two_point(1 / p, mp.sqrt(1 - mp.mpf(gamma) ** 2))
                assert F == pytest.approx(float((2 * lhs) ** p), rel=1e-13)
                assert C == pytest.approx(float((2 * rhs) ** p), rel=1e-13)


def three_term_sides(a, b, p_val):
    """(a+b)^p and a^p + b^p + (2^p - 2)(ab)^(p/2): |f+g|_p^p and sum_bound
    at the norms of the constant functions f = a and g = b on [0, 1]."""
    f, g = StepFunction.constant(a), StepFunction.constant(b)
    # (ab)^(p/2) as a^(p/2) b^(p/2): overlap_norm's product a*b underflows
    # for tiny a and b
    overlap = xpow(a, 0.5 * p_val) * xpow(b, 0.5 * p_val)
    moments = [pth_power_norm(f, p_val), pth_power_norm(g, p_val)]
    return sum_norm(f, g, p_val), sum_bound(moments, overlap, classify(p_val))


class TestScalarThreeTerm:
    """(a+b)^p <= a^p + b^p + (2^p - 2)(ab)^(p/2) for p in [1, 2], reversed
    for p in (0, 1] u [2, inf): the many-function bound at two constants."""

    def test_equal_args(self):
        for p_val in (1.0, 1.5, 2.0, 3.0):
            lhs, rhs = three_term_sides(1.0, 1.0, p_val)
            assert lhs == pytest.approx(2.0 ** p_val, rel=1e-14)
            assert rhs == pytest.approx(2.0 ** p_val, rel=1e-14)

    def test_degenerate(self):
        lhs, rhs = three_term_sides(1.0, 0.0, 1.5)
        assert lhs == 1.0 and rhs == 1.0

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative(self, a, b):
        with pytest.raises(ValueError, match=r"^values must be nonnegative \(or \+inf\)$"):
            three_term_sides(a, b, 1.5)

    def test_direction_between_1_and_2(self):
        lhs, rhs = three_term_sides(2.0, 1.0, 1.5)
        assert lhs == pytest.approx(5.196152422706632, rel=1e-14)
        assert rhs == pytest.approx(5.221669923742216, rel=1e-14)
        assert lhs <= rhs

    @given(st.floats(0, 50), st.floats(0, 50),
           st.floats(1.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_direction_property(self, a, b, p_val):
        lhs, rhs = three_term_sides(a, b, p_val)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(st.floats(0, 50), st.floats(0, 50),
           st.one_of(st.floats(0.01, 1.0), st.floats(2.0, 8.0)))
    @settings(max_examples=200, deadline=None)
    def test_reversed_property(self, a, b, p_val):
        lhs, rhs = three_term_sides(a, b, p_val)
        assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestSumBound:
    def test_p2_exact(self):
        # sum of squares plus twice the overlaps is the exact square
        assert sum_bound([1.0, 4.0], 2.0, classify(2)) == pytest.approx(9.0)

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            sum_bound([1.0], 0.0, classify(-1))

    @pytest.mark.parametrize("moments, overlaps", [
        ([1.0, math.inf], 0.0), ([1.0, 4.0], math.nan), ([1.0, 4.0], math.inf)])
    def test_rejects_non_finite_sums(self, moments, overlaps):
        with pytest.raises(ValueError, match="^both sums must be finite$"):
            sum_bound(moments, overlaps, classify(2))

    def test_counterexample_values(self):
        # the p = -1 three-constant counterexample's right-hand side
        p = 2.0 ** -1.0 - 2.0
        assert 3.0 + p * 3.0 == pytest.approx(-1.5)


# The tight family's block values, block b taking entry b mod 10: fixed, not drawn.
TIGHT_VALUES = (0.7, 2.3, 1.1, 3.9, 0.25, 1.6, 4.4, 0.9, 2.8, 1.35)


def tight_family(k):
    """_draws' columns of k step functions on one partition of [0, 1] into
    k // 2 + k equal blocks: functions 2i and 2i + 1 share block i at one
    value, function j has block k // 2 + j to itself, and every other value
    is 0. At each point one function is nonzero, or two equal ones, where
    (2a)^p = 2 a^p + (2^p - 2)(a a)^(p/2): the many-function bound's
    pointwise inequality holds with equality everywhere."""
    blocks, pairs = k + k // 2, k // 2
    bps = np.linspace(0.0, 1.0, blocks + 1).tolist()
    functions = []
    for j in range(k):
        vals = [0.0] * blocks
        for b in (j // 2, pairs + j) if j < 2 * pairs else (pairs + j,):
            vals[b] = TIGHT_VALUES[b % len(TIGHT_VALUES)]
        functions.append((bps, vals))
    return columns(functions)


class TestTightSumFamily:
    """The many-function bound integrates, interval by interval, the pointwise
    (sum t_j)^p <= sum t_j^p + (2^p - 2) sum_{i<j} (t_i t_j)^(p/2), reversed
    for the lower cases. Random sums never come near its equality case at p
    outside {1, 2} (verify sum's worst margin reads +3.0e-3), so a wrong
    coefficient passes them; the tight family is that equality case."""

    @staticmethod
    def margins(k):
        """(p, margin, overlaps, scale) of the k-function tight family at each
        exponent of SUM_UPPER_PS (upper bound) and SUM_LOWER_PS (lower bound):
        group_norms and sum_bound, with many_sweep's sign and max(1, |actual|)
        scale."""
        for ps, sign in ((SUM_UPPER_PS, 1.0), (SUM_LOWER_PS, -1.0)):
            for p_val in ps:
                moments, z, actual = group_norms(*tight_family(k), [k], p_val)
                z, actual = float(z[0]), float(actual[0])
                scale = max(1.0, abs(actual))
                margin = sign * (sum_bound(moments, z, classify(p_val)) - actual) / scale
                yield p_val, margin, z, scale

    @pytest.mark.parametrize("k", range(3, 9))
    def test_margin_is_rounding(self, k):
        """Within 1e-12 of 0 (measured: -3.4e-16 at worst), and a pass."""
        for p_val, margin, _, _ in self.margins(k):
            assert margin >= -MARGIN_TOL and abs(margin) <= 1e-12, (p_val, margin)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_coefficient_error_is_flagged(self, k):
        """A relative error of 1e-7 in 2^p - 2 moves the bound by
        |2^p - 2| z 1e-7, and for one of its two signs the margin below
        -MARGIN_TOL, at every exponent but p = 1, where 2^p - 2 = 0 (measured:
        the least move is 2.7e-9, at k = 3 and p = 3)."""
        for p_val, margin, z, scale in self.margins(k):
            if p_val != 1.0:
                assert margin - abs(2.0 ** p_val - 2.0) * z * 1e-7 / scale < -MARGIN_TOL, p_val


def random_triples(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, y = np.exp(rng.uniform(-2, 2, 2))
        z = rng.uniform(0, 1) * math.sqrt(x * y)
        yield ConeTriple(float(x), float(y), float(z))


class TestInvariants:
    P_VALUES = (-2.0, -0.5, 0.5, 1.0, 1.3, 1.7, 2.0, 3.0, 5.0)

    def test_one_homogeneity(self):
        rng = np.random.default_rng(2)
        for p_val in self.P_VALUES:
            p = classify(p_val)
            for t in random_triples(3, 20):
                lam = float(rng.uniform(1e-3, 10.0))
                ts = ConeTriple(lam * t.x, lam * t.y, lam * t.z)
                for H in (eval_F, eval_G):
                    base = H(p, t)
                    assert H(p, ts) == pytest.approx(lam * base, rel=1e-12)

    def test_symmetry_exact(self):
        for p_val in self.P_VALUES:
            p = classify(p_val)
            for t in random_triples(4, 30):
                ts = ConeTriple(t.y, t.x, t.z)
                assert eval_F(p, t) == eval_F(p, ts)
                assert eval_G(p, t) == eval_G(p, ts)

    def test_boundary_attainment(self):
        rng = np.random.default_rng(6)
        for p_val in self.P_VALUES:
            p = classify(p_val)
            for _ in range(30):
                x, y = np.exp(rng.uniform(-2, 2, 2))
                t = ConeTriple(float(x), float(y), math.sqrt(x * y))
                phi = xpow(xpow(x, 1 / p_val) + xpow(y, 1 / p_val), p_val)
                for H in (eval_F, eval_G):
                    assert H(p, t) == pytest.approx(phi, rel=1e-10)
                # z = 0 edge of the boundary
                t0 = ConeTriple(float(x), float(y), 0.0)
                expect = x + y if p_val > 0 else 0.0
                assert eval_F(p, t0) == pytest.approx(expect, rel=1e-12)
                assert eval_G(p, t0) == pytest.approx(expect, rel=1e-12)

    def test_envelope_ordering(self):
        for p_val in self.P_VALUES:
            p = classify(p_val)
            interior_gap = 0.0
            for t in random_triples(7, 50):
                up = upper_envelope(p, t)
                lo = lower_envelope(p, t)
                assert lo <= up + 1e-12 * max(1.0, abs(up))
                interior_gap = max(interior_gap, up - lo)
            if p_val in (1.0, 2.0):
                assert interior_gap <= 1e-9
            else:
                assert interior_gap > 0.0

    def test_carlen_refinement_grid(self):
        for p_val in np.concatenate((np.linspace(-5, -0.1, 25),
                                     np.linspace(0.05, 5, 50))):
            p = classify(float(p_val))
            for gamma in np.linspace(0.0, 1.0, 41):
                t = ConeTriple(1.0, 1.0, float(gamma))
                f_val = eval_F(p, t)
                c_val = carlen_bound(p, t)
                slack = 1e-12 * max(1.0, abs(f_val), abs(c_val))
                if p.f_is_concave:
                    assert f_val <= c_val + slack, (p_val, gamma)
                if p_val < 0 or 1.0 <= p_val <= 2.0:
                    assert f_val >= c_val - slack, (p_val, gamma)

    def test_F_linear_on_slices(self):
        # F restricted to {z = k(x+y)} is linear in (x+y)
        p = classify(3)
        for k in (0.0, 0.2, 0.45):
            base = eval_F(p, ConeTriple(1.0, 1.0, 2.0 * k))
            # points with k(x+y) <= sqrt(xy) so the slice stays in the cone
            for x, y in ((0.8, 1.2), (2.0, 1.5), (3.0, 3.0)):
                s = x + y
                val = eval_F(p, ConeTriple(x, y, k * s))
                assert val == pytest.approx(base * s / 2.0, rel=1e-12)

    def test_G_linear_on_triangular_cone(self):
        for p_val in (0.5, 1.3, 2.5):
            p = classify(p_val)
            coef = 2.0 ** p_val - 2.0
            for t in random_triples(8, 40):
                z = min(t.x, t.y) * 0.9
                tt = ConeTriple(t.x, t.y, z)
                assert eval_G(p, tt) == tt.x + tt.y + coef * z

    def test_midpoint_concavity_on_cross_section(self):
        rng = np.random.default_rng(9)
        for p_val in self.P_VALUES:
            p = classify(p_val)
            for _ in range(60):
                s1, s2 = rng.uniform(-1, 1, 2)
                z1 = rng.uniform(0, 1) * math.sqrt(1 - s1 * s1)
                z2 = rng.uniform(0, 1) * math.sqrt(1 - s2 * s2)
                P = ConeTriple(1 + s1, 1 - s1, z1)
                Q = ConeTriple(1 + s2, 1 - s2, z2)
                M = ConeTriple(0.5 * (P.x + Q.x), 0.5 * (P.y + Q.y),
                               0.5 * (P.z + Q.z))
                up_mid = upper_envelope(p, M)
                lo_mid = lower_envelope(p, M)
                up_avg = 0.5 * (upper_envelope(p, P) + upper_envelope(p, Q))
                lo_avg = 0.5 * (lower_envelope(p, P) + lower_envelope(p, Q))
                assert up_mid >= up_avg - 1e-12 * max(1.0, abs(up_avg))
                assert lo_mid <= lo_avg + 1e-12 * max(1.0, abs(lo_avg))


class TestBoundReport:
    def test_p2_zero_margins(self):
        p = classify(2)
        t = ConeTriple(1, 1, 0.5)
        rep = BoundReport.at(p, t, 3.0)
        assert abs(rep.margins["upper"]) < 1e-12
        assert abs(rep.margins["lower"]) < 1e-12
        assert rep.ok()

    def test_violation_detected(self):
        p = classify(3)
        t = ConeTriple(1, 1, 0.5)
        rep = BoundReport.at(p, t, 100.0)
        assert not rep.ok()

    def test_to_dict_roundtrips(self):
        rep = BoundReport.at(classify(1.5), ConeTriple(1, 1, 0.5), 2.0)
        d = rep.to_dict()
        assert d["p"] == 1.5
        assert set(d["margins"]) == {"upper", "lower", "carlen"}

    def test_to_dict_keys_order_and_values(self):
        rep = BoundReport.at(classify(1.5), ConeTriple(1, 2, 0.5), 2.0)
        expected = {
            "p": 1.5,
            "triple": {"x": 1.0, "y": 2.0, "z": 0.5},
            "actual": 2.0,
            "upper": 3.414213562373095,
            "lower": 3.340745950410038,
            "carlen": 3.328675986492513,
            "margins": {"upper": 0.7071067811865475,
                        "lower": -0.6703729752050189,
                        "carlen": -0.6643379932462565},
        }
        d = rep.to_dict()
        assert json.dumps(d) == json.dumps(expected)
        d["margins"]["upper"] = 0.0
        assert rep.margins["upper"] == 0.7071067811865475
