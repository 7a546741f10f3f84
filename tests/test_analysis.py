import math

import mpmath as mp
import numpy as np
import pytest

from highprec import ref_diff, ref_h, ref_h_tilde, ref_torsion
from lpenv import analysis
from lpenv.envelopes import P_MIN, classify
from lpenv.suites import TORSION_EXPONENTS

SIGN_EXPONENTS = (-2.0, -0.5, 0.5, 0.9, 1.3, 1.7, 2.5, 4.0)


def expected_v_sign(p):
    # <= 0 (chord profile concave) for p in (0,1) u (2,inf), >= 0 otherwise
    return -1 if (0 < p < 1 or p > 2) else 1


def expected_g_sign(p):
    return -1 if 1 < p < 2 else 1


class TestVFn:
    def test_root_at_one(self):
        for p_val in SIGN_EXPONENTS:
            assert abs(analysis.v_fn(1.0, classify(p_val))) <= 1e-12

    def test_p3_sign(self):
        assert analysis.v_fn(0.5, classify(3)) <= 0.0

    def test_p15_sign(self):
        assert analysis.v_fn(0.5, classify(1.5)) >= 0.0

    @pytest.mark.parametrize("p_val", SIGN_EXPONENTS)
    def test_sign_table(self, p_val):
        p = classify(p_val)
        want = expected_v_sign(p_val)
        for x in np.linspace(1e-3, 1.0, 1000):
            s = analysis.sign_of(analysis.v_fn(float(x), p))
            assert s in (0, want), (p_val, x)


class TestGFn:
    def test_root_at_zero(self):
        for p_val in SIGN_EXPONENTS:
            assert analysis.g_fn(0.0, classify(p_val)) == 0.0

    def test_p15_nonpositive(self):
        p = classify(1.5)
        assert all(analysis.g_fn(float(x), p) <= 1e-12
                   for x in np.linspace(0, 1, 100))

    def test_p3_nonnegative(self):
        p = classify(3)
        assert all(analysis.g_fn(float(x), p) >= -1e-12
                   for x in np.linspace(0, 1, 100))

    @pytest.mark.parametrize("p_val", [v for v in SIGN_EXPONENTS if v > 0])
    def test_sign_table(self, p_val):
        p = classify(p_val)
        want = expected_g_sign(p_val)
        for x in np.linspace(0.0, 1.0, 1000):
            s = analysis.sign_of(analysis.g_fn(float(x), p))
            assert s in (0, want), (p_val, x)


class TestHFn:
    @pytest.mark.parametrize("p_val", [0.5, 0.9, 1.3, 1.7, 2.5, 4.0])
    def test_sign_chain_with_g(self, p_val):
        # sign(h'') follows sign(g_p(t^(2/p)))
        p = classify(p_val)
        for t in np.linspace(0.05, 1.0, 200):
            s_h = analysis.sign_of(analysis.h_fn_d2(float(t), p), tol=1e-10)
            s_g = analysis.sign_of(analysis.g_fn(float(t) ** (2.0 / p_val), p),
                                   tol=1e-10)
            if s_h != 0 and s_g != 0:
                assert s_h == s_g, (p_val, t)

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("p_val", [0.5, 1.3, 2.5])
    def test_derivatives_match_high_precision(self, t, p_val):
        p = classify(p_val)
        assert analysis.h_fn_d2(t, p) == pytest.approx(
            float(ref_diff(lambda u: ref_h(p_val, u), t, 2)), rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.h_fn_d2(0.0, classify(2.5))


class TestHTilde:
    @pytest.mark.parametrize("p_val", [-2.0, -1.0, -0.5])
    def test_concave(self, p_val):
        p = classify(p_val)
        for t in np.linspace(1e-3, 1.0, 1000):
            assert analysis.h_tilde_fn_d2(float(t), p) <= 1e-12, (p_val, t)

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("p_val", [-2.0, -1.0])
    def test_derivatives_match_high_precision(self, t, p_val):
        p = classify(p_val)
        assert analysis.h_tilde_fn_d2(t, p) == pytest.approx(
            float(ref_diff(lambda u: ref_h_tilde(p_val, u), t, 2)), rel=1e-6)


def paper_direction(p_val):
    return "minus_to_plus" if classify(p_val).f_is_concave else "plus_to_minus"


class TestTorsion:
    @pytest.mark.parametrize("p_val,direction", [
        (3.0, "minus_to_plus"),
        (0.5, "minus_to_plus"),
        (1.5, "plus_to_minus"),
        (-1.0, "plus_to_minus"),
    ])
    def test_single_sign_change(self, p_val, direction):
        rep = analysis.torsion_sign_changes(classify(p_val), grid=256)
        assert rep.count == 1
        assert rep.direction == direction
        assert abs(rep.location) <= 1e-2

    def test_rejects_trivial_exponents(self):
        with pytest.raises(ValueError):
            analysis.torsion_sign_changes(classify(2.0))

    @pytest.mark.parametrize("grid", [0, 1, 2])
    def test_rejects_grid_below_3(self, grid):
        with pytest.raises(ValueError) as exc:
            analysis.torsion_sign_changes(classify(3.0), grid=grid)
        assert str(exc.value) == "grid must be at least 3, got %d" % grid

    @pytest.mark.parametrize("p_val", [0.25, -0.25, 0.2, -0.2, 0.005, -0.001])
    def test_single_change_below_0_3(self, p_val):
        """One change below |p| = 0.3 too, down to P_MIN."""
        rep = analysis.torsion_sign_changes(classify(p_val))
        assert (rep.count, rep.direction, rep.blowups) == (
            1, paper_direction(p_val), [])

    @pytest.mark.parametrize("grid", [16, 512, 8192])
    @pytest.mark.parametrize("p_val", [0.3, -0.3, P_MIN, -P_MIN])
    def test_single_change_at_floor(self, p_val, grid):
        """At |p| = 0.3 and at the package's floor P_MIN, where the torsion's
        magnitude underflows to 0 on part of the grid but its sign does not."""
        rep = analysis.torsion_sign_changes(classify(p_val), grid=grid)
        assert (rep.count, rep.direction, rep.blowups) == (
            1, paper_direction(p_val), [])

    @pytest.mark.parametrize("grid", [16, 512, 8192])
    @pytest.mark.parametrize("p_val", TORSION_EXPONENTS + (0.02, -0.02, 0.1, -0.1))
    def test_single_change(self, p_val, grid):
        rep = analysis.torsion_sign_changes(classify(p_val), grid=grid)
        assert (rep.count, rep.direction, rep.blowups) == (
            1, paper_direction(p_val), [])
        assert abs(rep.location) <= 1e-2

    @pytest.mark.parametrize("p_val", TORSION_EXPONENTS + (0.1, -0.1))
    def test_matches_high_precision(self, p_val):
        """The closed form against mp.diff derivatives of the curve at 50 digits."""
        assert mp.mp.dps >= 50
        s = np.array([-0.9, -0.3, 0.2, 0.3, 0.7, 0.9, 0.95])
        tau, sign = analysis.torsion(classify(p_val), s)
        want = [ref_torsion(p_val, float(v)) for v in s]
        assert sign.tolist() == [int(mp.sign(w)) for w in want]
        for got, ref in zip(tau.tolist(), want):
            assert abs(got - ref) <= 1e-13 * abs(ref), (p_val, got, ref)

    def test_grid_3_reports(self):
        rep = analysis.torsion_sign_changes(classify(3.0), grid=3)
        assert isinstance(rep, analysis.TorsionReport)
        assert (rep.count, rep.blowups) == (1, [])

    def test_blowups_reported(self):
        # every grid point's torsion is finite, up to s = -0.999 and 0.999
        rep = analysis.torsion_sign_changes(classify(3.0), grid=128)
        assert rep.blowups == []


ARRAY_FUNCTIONS = ("v_fn", "g_fn", "h_fn_d2", "h_tilde_fn_d2")


class TestArrayInputs:
    @pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
    @pytest.mark.parametrize("p_val", SIGN_EXPONENTS + (-1.0, 1.0, 1.5, 2.0, 3.0))
    def test_array_matches_scalar_calls(self, name, p_val):
        fn, p = getattr(analysis, name), classify(p_val)
        xs = np.linspace(1e-3, 1.0, 1000)
        assert np.array_equal(fn(xs, p), [fn(float(x), p) for x in xs])

    def test_sign_of_array_matches_scalar_rule(self):
        tol = analysis.ZERO_TOL
        vals = np.array([math.nan, 0.0, -0.0, tol, -tol, np.nextafter(tol, 1.0),
                         -np.nextafter(tol, 1.0), 1.0, -1.0, math.inf, -math.inf])
        got = analysis.sign_of(vals)
        assert got.tolist() == [analysis.sign_of(float(v)) for v in vals]
        assert got.tolist() == [-1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1]
        assert analysis.sign_of(0.5, tol=1.0) == 0
        assert analysis.sign_of(np.array([0.5, 1.5]), tol=1.0).tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_unit_interval_rejects_one_entry_outside(self, bad):
        ts = np.linspace(0.1, 1.0, 10)
        ts[4] = bad
        for fn in (analysis.h_fn_d2, analysis.h_tilde_fn_d2):
            with pytest.raises(ValueError):
                fn(ts, classify(2.5))
