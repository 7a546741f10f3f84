"""The two power-sum maps of lpenv.powers and the formulas built on them.

Each formula that routes its power sum through ``power_sum`` or
``fan_power`` is compared with ``==`` against the inline expression it
had before, kept here as the reference.
"""

import math
import pathlib
from itertools import repeat

import numpy as np
import pytest

from lpenv import analysis, powers
from lpenv.envelopes import ConeTriple, classify, eval_F, eval_G
from lpenv.oracle import boundary_value
from lpenv.powers import INF, fan_power, power_sum, xpow, xpow_array
from lpenv.suites import P_GRID, SIGN_EXPONENTS

EXPONENTS = sorted(set(P_GRID) | set(SIGN_EXPONENTS))
TS = [float(t) for t in np.linspace(1e-3, 1.0, 97)] + [0.5, 1.0]
SS = [float(s) for s in np.linspace(-1.0, 1.0, 41)] + [-1.0, 1.0, 0.0]


def _triples():
    rng = np.random.default_rng(5)
    out = [ConeTriple(0.0, 0.0, 0.0), ConeTriple(1.0, 0.0, 0.0),
           ConeTriple(2.0, 3.0, 0.0), ConeTriple(1.0, 1.0, 1.0),
           ConeTriple(2.0, 0.5, 1.0)]
    for _ in range(60):
        x, y = np.exp(rng.uniform(-3, 3, 2))
        z = rng.uniform(0, 1) * math.sqrt(x * y)
        out.append(ConeTriple(float(x), float(y), float(z)))
    return out


def ref_xpow(base, expo):
    """xpow as it was before its fast path: the edge cases first."""
    if base < 0:
        raise ValueError("xpow requires a nonnegative base, got %r" % (base,))
    if expo == 0:
        return 1.0
    if base == 0:
        return INF if expo < 0 else 0.0
    if math.isinf(base):
        return 0.0 if expo < 0 else INF
    try:
        return base ** expo
    except OverflowError:
        raise OverflowError(
            "%r ** %r overflows the float range" % (base, expo)) from None


def outcomes(fn, bases, expo):
    """The bits of fn(b, expo) at each base b, and {index: type and
    message} of the errors raised."""
    vals, errors = [], {}
    rest = iter(bases)
    while len(vals) < len(bases):
        try:  # extend keeps the values before a raising base
            vals.extend(map(fn, rest, repeat(expo)))
        except (ValueError, OverflowError) as exc:
            errors[len(vals)] = "%s: %s" % (type(exc).__name__, exc)
            vals.append(0.0)
    return np.array(vals).view(np.uint64).tolist(), errors


# 10^5 log-uniform bases from subnormal to near the float maximum, and the
# edge bases 0, +inf, NaN and a negative one
BASES = np.exp(np.random.default_rng(8).uniform(-740.0, 709.0, 100_000)).tolist()
BASES += [0.0, INF, math.nan, -1.0]
# zero, fractional, negative and integral exponents; -2, 3 and -1000
# overflow on part of the bases. 1.3 to 5.0 are values of p, p / 2 and 1 / p
# that the pair sweep and the envelopes pass at P_GRID's exponents
POWERS = [0.0, 0.5, 2.0 / 3.0, 1.0 / 1.7, -2.0, 3.0, -1000.0,
          1.3, 0.65, 1.0 / 1.3, -0.25, 2.5, 5.0]


@pytest.mark.parametrize("expo", POWERS)
class TestXpow:
    def test_fast_path_matches_reference(self, expo):
        assert outcomes(xpow, BASES, expo) == outcomes(ref_xpow, BASES, expo)

    def test_array_matches_scalar(self, expo):
        bases = BASES[:-1]  # the negative base raises: see below
        bits, errors = outcomes(xpow, bases, expo)
        if errors:  # the first base that overflows is the one named
            with pytest.raises(OverflowError) as exc:
                xpow_array(np.array(bases), expo)
            assert "OverflowError: %s" % exc.value == errors[min(errors)]
        else:
            got = xpow(np.array(bases), expo)
            assert got.view(np.uint64).tolist() == bits
        with pytest.raises(ValueError) as exc:
            xpow_array(np.array([2.0, -1.0]), expo)
        assert "ValueError: %s" % exc.value == outcomes(xpow, [-1.0], expo)[1][0]

    def test_array_ignores_callers_error_state(self, expo):
        """Under np.errstate(all="raise") an underflow stays a value and an
        overflow stays xpow's named OverflowError."""
        bases = BASES[:-4:25] + BASES[-4:-1]  # 4000 bases, 0, +inf, NaN
        bits, errors = outcomes(xpow, bases, expo)
        kept = [i for i in range(len(bases)) if i not in errors]
        with np.errstate(all="raise"):
            got = xpow_array(np.array(bases)[kept], expo)
            assert got.view(np.uint64).tolist() == [bits[i] for i in kept]
            if errors:
                with pytest.raises(OverflowError) as exc:
                    xpow_array(np.array(bases), expo)
                assert "OverflowError: %s" % exc.value == errors[min(errors)]


# the entries xpow_array takes without np.float_power's own value (-0.0),
# with it (0.0, +inf, NaN) or with an overflow (1e-310 and 1e300)
EDGE_BASES = [0.0, -0.0, INF, 1.5, 1e-310, 1e300, math.nan]


@pytest.mark.parametrize("expo", [0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 0.5, -0.5])
class TestArrayEdges:
    def test_matches_scalar(self, expo):
        """Every edge base alone, and all at once, gives xpow's bits, or
        xpow's error for the first base that overflows."""
        bits, errors = outcomes(xpow, EDGE_BASES, expo)
        for i, base in enumerate(EDGE_BASES):
            if i in errors:
                with pytest.raises(OverflowError) as exc:
                    xpow_array(np.array([base]), expo)
                assert "OverflowError: %s" % exc.value == errors[i]
            else:
                got = xpow_array(np.array([base]), expo)
                assert got.view(np.uint64).tolist() == [bits[i]], base
        if errors:
            with pytest.raises(OverflowError) as exc:
                xpow_array(np.array(EDGE_BASES), expo)
            assert "OverflowError: %s" % exc.value == errors[min(errors)]
        else:
            got = xpow_array(np.array(EDGE_BASES), expo)
            assert got.view(np.uint64).tolist() == bits

    def test_zero_and_inf_without_a_call_each(self, monkeypatch, expo):
        """0, -0.0 and +inf entries take no xpow call of their own: one
        call, xpow(0.0, expo), serves them all."""
        calls = []

        def counting(base, e):
            calls.append(base)
            return xpow(base, e)

        monkeypatch.setattr(powers, "xpow", counting)
        base = np.array([0.0, -0.0, INF, 2.0] * 250)
        got = xpow_array(base, expo)
        assert calls == [0.0]
        assert got.view(np.uint64).tolist() == outcomes(xpow, base.tolist(), expo)[0]


def ref_F(p, t):
    s = t.x + t.y
    if s == 0.0:
        return 0.0
    w = t.gamma
    r = math.sqrt(max(0.0, (1.0 - w) * (1.0 + w)))
    inv = 1.0 / p.p
    bracket = xpow(1.0 + r, inv) + xpow(w * w / (1.0 + r), inv)
    return 0.5 * s * xpow(bracket, p.p)


def ref_G(p, t):
    if t.z == 0.0:
        return t.x + t.y if p.p > 0 else 0.0
    v = t.v
    inv = 1.0 / p.p
    coef = xpow(xpow(v, inv) + xpow(v, -inv), p.p)
    if p.p > 0:
        return t.x + t.y + (coef - v - 1.0 / v) * t.z
    return coef * t.z


def ref_boundary_value(p, s):
    inv = 1.0 / p.p
    return xpow(xpow(1.0 + s, inv) + xpow(1.0 - s, inv), p.p)


def ref_h_tilde_d2(t, p):
    pp = p.p
    inv = 1.0 / pp
    return (
        2.0
        * t ** -2.0
        * xpow(xpow(t, inv) + xpow(t, -inv), pp - 2.0)
        * (xpow(t, -2.0 * inv) + (2.0 / pp - 1.0))
    )


class TestMaps:
    def test_power_sum(self):
        assert power_sum(1.0, 1.0, 2.0) == 4.0
        assert power_sum(8.0, 0.0, 3.0) == 8.0
        # +inf conventions at p < 0: 0^(1/p) = +inf, inf^p = 0
        assert power_sum(0.0, 1.0, -1.0) == 0.0
        assert power_sum(INF, 4.0, -2.0) == 4.0

    def test_fan_power(self):
        assert fan_power(1.0, 3.0, 3.0) == 8.0
        assert fan_power(1.0, -1.0, -3.0) == 0.125
        assert fan_power(0.25, 2.0, 1.0) == 2.5


@pytest.mark.parametrize("p_val", EXPONENTS)
class TestRerouted:
    def test_envelopes(self, p_val):
        p = classify(p_val)
        for t in _triples():
            assert eval_F(p, t) == ref_F(p, t), t
            assert eval_G(p, t) == ref_G(p, t), t

    def test_boundary_value(self, p_val):
        p = classify(p_val)
        for s in SS:
            assert boundary_value(p, s) == ref_boundary_value(p, s), s
        if p_val < 0:
            assert boundary_value(p, 1.0) == boundary_value(p, -1.0) == 0.0

    @pytest.mark.parametrize("fn, ref", [
        (analysis.h_tilde_fn_d2, ref_h_tilde_d2),
    ], ids=["h_tilde_d2"])
    def test_analysis(self, p_val, fn, ref):
        p = classify(p_val)
        for t in TS:
            assert fn(t, p) == ref(t, p), t


def test_one_home_for_the_power_sum():
    """No module but lpenv.powers writes the nested power sum inline."""
    src = pathlib.Path(analysis.__file__).parent
    inline = [path.name for path in sorted(src.glob("*.py"))
              if "xpow(xpow(" in path.read_text()]
    assert inline == ["powers.py"]
