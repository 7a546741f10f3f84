import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpenv import stepfun
from lpenv.envelopes import ConeTriple, classify
from lpenv.extremal import extremal_F, extremal_G
from lpenv.powers import INF, xpow
from lpenv.sampling import (_draws, random_pair, random_step_functions,
                            substreams)
from lpenv.stepfun import (StepFunction, _integral, _refine, group_norms,
                           overlap_norm, pth_power_norm, refine,
                           sum_and_report, sum_norm, triple_of_pair)
from lpenv.suites import P_GRID
from reference_draw import columns


def chi(a, b, value):
    """value * indicator of [a, b] inside [0, 1]."""
    bps = sorted({0.0, a, b, 1.0})
    vals = [value if (lo >= a and hi <= b) else 0.0
            for lo, hi in zip(bps, bps[1:])]
    return StepFunction(bps, vals)


class TestConstruction:
    def test_validates_partition(self):
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.5), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (-1.0,))

    def test_json_roundtrip(self):
        f = StepFunction((0.0, 0.25, 1.0), (2.0, INF))
        g = StepFunction.from_json(f.to_json())
        assert g == f
        assert '"inf"' in f.to_json()

    def test_repr(self):
        assert repr(StepFunction((0, 0.5, 1), (2, INF))) == (
            "StepFunction([0.0, 0.5, 1.0], [2.0, inf])")


class TestNorms:
    def test_unit_constant(self):
        assert pth_power_norm(StepFunction.constant(1.0), 2.0) == 1.0

    def test_block(self):
        f = chi(0.0, 0.5, 2.0)
        assert pth_power_norm(f, 3.0) == pytest.approx(4.0)

    def test_inf_convention(self):
        f = StepFunction((0.0, 0.5, 1.0), (INF, 1.0))
        assert pth_power_norm(f, -1.0) == pytest.approx(0.5)

    def test_zero_at_negative_p_is_inf(self):
        f = chi(0.0, 0.5, 2.0)
        assert pth_power_norm(f, -1.0) == INF

    @pytest.mark.parametrize("norm", [
        lambda f: pth_power_norm(f, 0.0),
        lambda f: overlap_norm(f, f, 0.0),
        lambda f: sum_norm(f, f, 0.0),
        lambda f: group_norms(*as_columns([(f, f)]), [2], 0.0),
    ], ids=["pth_power_norm", "overlap_norm", "sum_norm", "group_norms"])
    def test_rejects_p_zero(self, norm):
        with pytest.raises(ValueError):
            norm(StepFunction.constant(1.0))


class TestOverlap:
    def test_unit(self):
        one = StepFunction.constant(1.0)
        assert overlap_norm(one, one, 2.0) == 1.0

    def test_disjoint(self):
        assert overlap_norm(chi(0, 0.5, 2.0), chi(0.5, 1, 3.0), 2.0) == 0.0

    def test_partial_overlap(self):
        f = chi(0.0, 0.75, 2.0)
        g = chi(0.25, 1.0, 1.0)
        assert overlap_norm(f, g, 2.0) == pytest.approx(1.0)

    def test_inf_factor_contributes_zero(self):
        f = StepFunction((0.0, 0.5, 1.0), (INF, 2.0))
        g = StepFunction.constant(1.0)
        assert overlap_norm(f, g, -1.0) == pytest.approx(0.5 / 2.0 ** 0.5)

    def test_inf_times_zero_contributes_zero(self):
        # inf * 0 counts as +inf, not nan: the first half adds 0 at p < 0
        f = StepFunction((0.0, 0.5, 1.0), (INF, 2.0))
        g = StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))
        assert overlap_norm(f, g, -1.0) == 0.3535533905932738

    def test_split_term_after_inf_term(self):
        """A split term is taken only when reached: the +inf term 0^(-2)
        comes first, so 1e-160^(-2) = 1e320 is never taken and the overlap
        is +inf, not an OverflowError."""
        f = StepFunction((0.0, 0.5, 1.0), (0.0, 1e-160))
        assert overlap_norm(f, f, -4.0) == INF

    def test_inf_factor_positive_p_is_inf(self):
        f = StepFunction((0.0, 0.5, 1.0), (INF, 2.0))
        g = StepFunction.constant(1.0)
        assert overlap_norm(f, g, 2.0) == INF


class TestRefine:
    def test_merges_breakpoints(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        g = StepFunction((0.0, 0.25, 1.0), (3.0, 4.0))
        merged, fv, gv = refine(f, g)
        assert merged == [0.0, 0.25, 0.5, 1.0]
        assert fv == [1.0, 1.0, 2.0]
        assert gv == [3.0, 4.0, 4.0]

    def test_refinement_invariance(self):
        # splitting an interval with equal value changes nothing
        f = StepFunction((0.0, 0.5, 1.0), (1.5, 2.5))
        f2 = StepFunction((0.0, 0.25, 0.5, 0.75, 1.0), (1.5, 1.5, 2.5, 2.5))
        for p in (-1.0, 0.5, 2.0, 3.7):
            a = pth_power_norm(f, p)
            b = pth_power_norm(f2, p)
            assert b == pytest.approx(a, rel=1e-15)


class TestTripleOfPair:
    def test_unit_pair(self):
        one = StepFunction.constant(1.0)
        t = triple_of_pair(one, one, 2.0)
        assert (t.x, t.y, t.z) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        t = triple_of_pair(chi(0, 0.5, 2.0), chi(0.5, 1, 3.0), 2.0)
        assert t.z == 0.0

    def test_rejects_infinite(self):
        f = chi(0.0, 0.5, 2.0)  # zero on half the interval
        with pytest.raises(ValueError):
            triple_of_pair(f, f, -1.0)

    @pytest.mark.parametrize("p, f, g, name", [
        # a +inf block at p > 0
        (2.0, StepFunction((0.0, 0.5, 1.0), (1.0, INF)), StepFunction.constant(2.0), "x"),
        (2.0, StepFunction.constant(2.0), StepFunction((0.0, 0.5, 1.0), (1.0, INF)), "y"),
        # a 0 block at p < 0
        (-1.0, chi(0.0, 0.5, 2.0), StepFunction.constant(1.0), "x"),
        (-1.0, StepFunction.constant(1.0), chi(0.0, 0.5, 2.0), "y"),
    ], ids=["inf-block-x", "inf-block-y", "zero-block-x", "zero-block-y"])
    def test_names_the_infinite_norm(self, p, f, g, name):
        """ConeTriple alone checks the norms: the message names the first
        infinite one, from triple_of_pair and sum_and_report alike."""
        want = "%s must be a finite nonnegative real, got inf" % name
        with pytest.raises(ValueError) as ref:
            triple_of_pair(f, g, p)
        with pytest.raises(ValueError) as got:
            sum_and_report(f, g, classify(p))
        assert str(ref.value) == str(got.value) == want

    @pytest.mark.parametrize("p, value, z", [
        # f * g = 1e320 overflows, while f^(1/2) g^(1/2) = 1e160 does not
        (1.0, 1e160, 1e160),
        # f * g = 1e-400 underflows to 0, while f^(-1/2) g^(-1/2) = 1e200
        (-1.0, 1e-200, 1e200),
        # z = x = y at every p for f = g: (1e-200)^0.01 = 0.01 and
        # (1e200)^0.01 = 100, where the product's power would give 0 and +inf
        (0.01, 1e-200, 0.01),
        (0.01, 1e200, 100.0),
    ], ids=["product-overflow-z", "product-underflow-z", "tiny-p-underflow",
            "tiny-p-overflow"])
    def test_split_product(self, p, value, z):
        """Where f * g leaves the normal range but f and g are finite and
        positive, the overlap takes f^(p/2) g^(p/2): z is finite, equal to
        x = y here, and the same from triple_of_pair and sum_and_report."""
        f = StepFunction.constant(value)
        t = triple_of_pair(f, f, p)
        assert t.z == pytest.approx(z, rel=1e-12)
        assert t.z == pytest.approx(t.x, rel=1e-12)
        assert repr(sum_and_report(f, f, classify(p)).triple) == repr(t)

    def test_cauchy_schwarz_randomized(self):
        rngs = substreams(123, 6)
        for p, rng in zip((-2.0, -0.5, 0.7, 1.5, 2.0, 4.0), rngs):
            for _ in range(200):
                f, g = random_pair(rng, p)
                x = pth_power_norm(f, p)
                y = pth_power_norm(g, p)
                z = overlap_norm(f, g, p)
                if not all(map(math.isfinite, (x, y, z))):
                    continue
                assert z * z <= x * y * (1 + 1e-9) + 1e-15


class TestSumAndReport:
    def test_p2_pythagorean(self):
        rng = substreams(5, 1)[0]
        for _ in range(50):
            f, g = random_pair(rng, 2.0)
            rep = sum_and_report(f, g, classify(2.0))
            t = rep.triple
            assert rep.actual == pytest.approx(t.x + t.y + 2 * t.z, rel=1e-12)
            assert abs(rep.margins["upper"]) < 1e-12
            assert abs(rep.margins["lower"]) < 1e-12

    def test_p1_additive(self):
        rng = substreams(6, 1)[0]
        for _ in range(50):
            f, g = random_pair(rng, 1.0)
            rep = sum_and_report(f, g, classify(1.0))
            assert rep.actual == pytest.approx(rep.triple.x + rep.triple.y, rel=1e-12)

    def test_p3_margin_signs(self):
        f = chi(0.0, 0.5, 2.0)
        g = StepFunction.constant(1.0)
        rep = sum_and_report(f, g, classify(3.0))
        # direct quadrature: 3^3/2 + 1/2 = 14
        assert rep.actual == pytest.approx(14.0)
        assert rep.margins["upper"] >= -1e-12
        assert rep.margins["lower"] >= -1e-12
        assert rep.margins["carlen"] >= -1e-12
        assert rep.ok()

    def test_sandwich_randomized(self):
        rngs = substreams(99, len(P_GRID))
        for p, rng in zip(P_GRID, rngs):
            exponent = classify(p)
            for _ in range(300):
                f, g = random_pair(rng, p)
                rep = sum_and_report(f, g, exponent)
                assert rep.margins["upper"] >= -1e-9, (p, f, g)
                assert rep.margins["lower"] >= -1e-9, (p, f, g)

    def test_refines_once(self, monkeypatch):
        calls = []
        merge = stepfun._refine

        def counting(*args):
            calls.append(1)
            return merge(*args)

        monkeypatch.setattr(stepfun, "_refine", counting)
        f = StepFunction((0.0, 0.25, 1.0), (2.0, 0.5))
        sum_and_report(f, chi(0.0, 0.5, 3.0), classify(3.0))
        assert len(calls) == 1

    def test_matches_triple_and_sum_norm(self):
        rngs = substreams(17, len(P_GRID))
        for p, rng in zip(P_GRID, rngs):
            exponent = classify(p)
            for _ in range(50):
                f, g = random_pair(rng, p)
                rep = sum_and_report(f, g, exponent)
                assert repr(rep.triple) == repr(triple_of_pair(f, g, p))
                assert repr(rep.actual) == repr(sum_norm(f, g, p))


def ref_refine(f, g):
    """The common refinement as sorted(set(...)) of both breakpoint sets,
    then a scan for the interval of f and of g under each left end: the
    reference for refine's two-pointer merge."""
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    fi = gi = 0
    fv, gv = [], []
    for left in merged[:-1]:
        while f.breakpoints[fi + 1] <= left:
            fi += 1
        while g.breakpoints[gi + 1] <= left:
            gi += 1
        fv.append(f.values[fi])
        gv.append(g.values[gi])
    return merged, fv, gv


def as_columns(pairs):
    """The functions f, g of each pair in turn, in _draws' columns."""
    return columns([(list(h.breakpoints), list(h.values))
                    for pair in pairs for h in pair])


def size_two_norms(lengths, breakpoints, values, p):
    """x, y, z and |f+g|_p^p of the pairs (0, 1), (2, 3), ... of _draws'
    columns: group_norms at group size 2, as pair_sweep calls it."""
    xy, z, actual = group_norms(lengths, breakpoints, values,
                                np.full(len(lengths) // 2, 2), p)
    return xy[0::2], xy[1::2], z, actual


def assert_pair_norms(pairs, p):
    """group_norms over all ``pairs`` at once, at group size 2 as pair_sweep
    calls it on _draws' columns, gives each pair the floats of
    pth_power_norm, overlap_norm and sum_norm, and of triple_of_pair where
    it is finite."""
    x, y, z, actual = size_two_norms(*as_columns(pairs), p)
    for (a, b), *got in zip(pairs, x.tolist(), y.tolist(), z.tolist(),
                            actual.tolist()):
        want = [pth_power_norm(a, p), pth_power_norm(b, p),
                overlap_norm(a, b, p), sum_norm(a, b, p)]
        assert repr(got) == repr(want), (p, a, b)
        if all(map(math.isfinite, got[:3])):
            assert repr(ConeTriple(*got[:3])) == repr(
                triple_of_pair(a, b, p)), (p, a, b)


def assert_kernel_matches(pairs, p):
    """On each pair, and on each function paired with itself: refine gives
    what ref_refine does, and group_norms at size 2 over the whole batch
    gives the floats of triple_of_pair and sum_norm."""
    batch = [(a, b) for f, g in pairs for a, b in ((f, g), (f, f), (g, g))]
    for a, b in batch:
        assert repr(refine(a, b)) == repr(ref_refine(a, b)), (a, b)
    assert_pair_norms(batch, p)


class TestPairNorms:
    """The norms of every pair from the columnar kernel at group size 2,
    against ref_refine, triple_of_pair and sum_norm, bit for bit."""

    @pytest.mark.parametrize("p", P_GRID)
    def test_random_pairs(self, p):
        rng = substreams(31, 1)[0]
        assert_kernel_matches([random_pair(rng, p) for _ in range(200)], p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_draws_arrays_as_lists(self, p):
        """_draws' arrays, which group_norms takes without a copy, give the
        floats of the same pairs drawn by random_pair in as_columns' lists."""
        rng, twin = substreams(37, 1)[0], substreams(37, 1)[0]
        got = size_two_norms(*_draws(rng, p, 400), p)
        want = size_two_norms(*as_columns([random_pair(twin, p) for _ in range(200)]), p)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 1.5, 3.0])
    def test_hand_built(self, p):
        one = StepFunction.constant(1.5)
        eight = StepFunction([k / 8 for k in range(9)],
                             [0.25 * (k + 1) for k in range(8)])
        split = StepFunction((0.0, 0.25, 0.5, 1.0), (2.0, 0.5, 3.0))
        shared = StepFunction((0.0, 0.25, 0.5, 1.0), (0.75, 4.0, 1.25))
        odd = StepFunction([0.0, *((2 * k + 1) / 16 for k in range(8)), 1.0],
                           [0.3 * (k + 1) for k in range(9)])
        # 16 merged intervals: a pairwise reduction (np.add.reduce, and so
        # np.add.reduceat per bin) adds this pair's terms in another order
        merged, fv, gv = refine(eight, odd)
        terms = np.diff(merged) * [xpow(a + b, p) for a, b in zip(fv, gv)]
        assert np.add.reduce(terms) != sum_norm(eight, odd, p)
        pairs = [(one, one), (one, eight), (eight, eight), (split, shared),
                 (eight, split), (shared, one), (eight, odd)]
        if p < 0:  # +inf atoms
            pairs += [(StepFunction((0.0, 0.5, 1.0), (INF, 2.0)), eight),
                      (StepFunction((0.0, 0.125, 1.0), (INF, INF)), split)]
        else:  # 0 atoms
            pairs += [(chi(0.0, 0.5, 2.0), eight),
                      (chi(0.25, 0.75, 3.0), chi(0.5, 1.0, 0.5))]
        exponent = classify(p)
        for t in (ConeTriple(1.0, 1.0, 0.5), ConeTriple(0.3, 2.5, 0.2),
                  ConeTriple(4.0, 0.5, 1.4)):
            pairs += [extremal_F(exponent, t), extremal_G(exponent, t)]
        assert_kernel_matches(pairs, p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_pair(self, p):
        f = StepFunction((0.0, 0.3, 1.0), (2.0, 0.5))
        g = StepFunction((0.0, 0.6, 0.8, 1.0), (1.5, 0.25, 4.0))
        assert_pair_norms([(f, g)], p)
        assert_kernel_matches([(f, g)], p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_one_interval_functions(self, p):
        consts = [StepFunction.constant(v) for v in (0.05, 1.0, 1.5, 20.0)]
        assert_kernel_matches([(a, b) for a in consts for b in consts], p)

    @pytest.mark.parametrize("p", P_GRID)
    def test_identical_breakpoints(self, p):
        bps = (0.0, 0.125, 0.3, 0.7, 1.0)
        f = StepFunction(bps, (2.0, 0.5, 3.0, 1.25))
        g = StepFunction(bps, (0.75, 4.0, 1.0, 0.5))
        h = StepFunction(bps, (1.0, 1.0, 1.0, 1.0))
        assert_kernel_matches([(f, g), (g, h), (h, f)], p)

    @pytest.mark.parametrize("p", [-2.0, -1.0, -0.5])
    def test_inf_atoms_on_one_interval(self, p):
        """+inf in both functions on a shared interval: the product there
        is +inf and adds 0, as do both +inf atoms to x, y and the sum."""
        f = StepFunction((0.0, 0.25, 0.5, 1.0), (2.0, INF, 0.5))
        g = StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, INF, 3.0))
        g2 = StepFunction((0.0, 0.375, 1.0), (INF, 1.5))
        assert_kernel_matches([(f, g), (f, g2), (g2, g)], p)

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 3.0])
    def test_inf_against_zero(self, p):
        """0 against +inf on one interval: inf * 0 counts as +inf, so z
        takes 0 there for p < 0 and +inf for p > 0; x or y is +inf."""
        f = StepFunction((0.0, 0.5, 1.0), (INF, 2.0))
        g = StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))
        g2 = StepFunction((0.0, 0.25, 0.75, 1.0), (0.0, 3.0, 0.5))
        assert_pair_norms([(f, g), (g, f), (f, g2), (g2, f)], p)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 5.0])
    def test_zero_atoms(self, p):
        f = StepFunction((0.0, 0.5, 1.0), (0.0, 2.0))
        g = StepFunction((0.0, 0.25, 0.5, 1.0), (3.0, 0.0, 0.0))
        zero = StepFunction.constant(0.0)
        assert_kernel_matches([(f, g), (f, zero), (zero, zero), (g, f)], p)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_rejects_odd_or_no_functions(self, count):
        """No count of pairs holds 1 or 3 functions, and no group is empty."""
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        lengths, bps, vals = columns([(list(f.breakpoints), list(f.values))]
                                     * count)
        with pytest.raises(ValueError, match="groups of 2 or more"):
            group_norms(lengths, bps, vals, [2] * ((count + 1) // 2), 2.0)

    def test_overflow_after_inf_term_raises(self):
        """Where pth_power_norm stops at a +inf term, group_norms still takes
        every power, so 1e-300 ** -2 raises instead of returning +inf."""
        f = StepFunction((0.0, 0.5, 1.0), (0.0, 1e-300))
        assert pth_power_norm(f, -2.0) == INF
        with pytest.raises(OverflowError):
            size_two_norms(*as_columns([(f, StepFunction.constant(1.0))]), -2.0)

    @pytest.mark.parametrize("p, f, g", [
        (-1.0, chi(0.0, 0.5, 2.0), StepFunction.constant(1.0)),  # x = +inf
        (-0.5, StepFunction.constant(1.0), chi(0.25, 1.0, 3.0)),  # y = +inf
        # inf * 0 counts as +inf, not nan, in z; the message names the first
        # infinite field, y here and x for (g, f) (x and y at p = 2)
        (-1.0, StepFunction((0.0, 0.5, 1.0), (INF, 2.0)),
         StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))),
        (2.0, StepFunction((0.0, 0.5, 1.0), (INF, 2.0)),
         StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))),
        # x stops at the +inf term, before 1e-300 ** -2 would overflow
        (-2.0, StepFunction((0.0, 0.5, 1.0), (0.0, 1e-300)),
         StepFunction.constant(1.0)),
    ], ids=["zero-atom-f", "zero-atom-g", "inf-times-zero-p-neg",
            "inf-times-zero-p-pos", "stops-at-inf-term"])
    def test_raises_where_triple_of_pair_does(self, p, f, g):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError) as ref:
                triple_of_pair(a, b, p)
            with pytest.raises(ValueError) as got:
                sum_and_report(a, b, classify(p))
            assert str(got.value) == str(ref.value)


def ref_group(fs, p):
    """The list kernels' floats for one group: each pth_power_norm, the
    overlap_norm of each pair i < j added in that order from 0.0, and
    _integral of the _refine fold ((f_0 + f_1) + f_2) + ..."""
    overlaps = 0.0
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            overlaps += overlap_norm(f, g, p)
    bps, vals = fs[0].breakpoints, fs[0].values
    for f in fs[1:]:
        bps, av, bv = _refine(bps, vals, f.breakpoints, f.values)
        vals = [a + b for a, b in zip(av, bv)]
    return [pth_power_norm(f, p) for f in fs], overlaps, _integral(bps, vals, p)


def assert_group_norms(groups, p):
    """group_norms over all ``groups`` in one call gives each group the
    floats of ref_group, bit for bit."""
    moments, overlaps, totals = group_norms(
        *columns([(list(h.breakpoints), list(h.values)) for fs in groups for h in fs]),
        [len(fs) for fs in groups], p)
    end = 0
    for fs, overlap, total in zip(groups, overlaps.tolist(), totals.tolist()):
        got = moments[end:end + len(fs)].tolist(), overlap, total
        end += len(fs)
        assert repr(got) == repr(ref_group(fs, p)), (p, fs)
    assert end == len(moments)


def lexsort_orders(lengths, breakpoints, sizes):
    """The flat indices np.lexsort gives over _draws' columns in groups of
    ``sizes``: every left end by (group, left end), and each group's pairs
    i < j, gathered as f_i's left ends then f_j's, by (pair, left end). Ties
    go to the earlier index, so to the earlier function."""
    n, bps = np.asarray(lengths), np.asarray(breakpoints)
    left = np.delete(bps, np.cumsum(n + 1) - 1)  # each interval's left end
    group = np.repeat(np.repeat(np.arange(len(sizes)), sizes), n)
    first = np.cumsum(n) - n  # each function's first interval
    pairs = []
    for g, size in zip(np.cumsum(sizes) - sizes, sizes):
        for i in range(g, g + size):
            for j in range(i + 1, g + size):
                pairs.append(np.r_[first[i]:first[i] + n[i], first[j]:first[j] + n[j]])
    gathered = np.concatenate(pairs)
    pid = np.repeat(np.arange(len(pairs)), [len(pair) for pair in pairs])
    return np.lexsort((left, group)), gathered[np.lexsort((left[gathered], pid))]


def assert_lexsort_order(monkeypatch, lengths, breakpoints, values, sizes, p):
    """The flat indices group_norms hands stepfun._merged are lexsort_orders',
    index for index: the group refinement's, then (above size 2) the pairs'."""
    takes, merged = [], stepfun._merged

    def spy(grp, take, *rest):
        takes.append(take.copy())
        return merged(grp, take, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(stepfun, "_merged", spy)
        group_norms(lengths, breakpoints, values, sizes, p)
    whole, pairs = lexsort_orders(lengths, breakpoints, sizes)
    assert len(takes) == (2 if max(sizes) > 2 else 1)
    assert np.array_equal(takes[0], whole)
    if len(takes) == 2:
        assert np.array_equal(takes[1], pairs)


class TestRowOrder:
    """group_norms' stable row sort per group, and the pairs read off its
    rows, order every left end as np.lexsort does, ties included."""

    @pytest.mark.parametrize("p", [3.0, -2.0])
    def test_criterion_2_substreams(self, p, monkeypatch):
        """pair_sweep's draws at criterion 2's seed and sample count."""
        per = 100_000 // len(P_GRID)
        rng = substreams(202, len(P_GRID))[P_GRID.index(p)]
        assert_lexsort_order(monkeypatch, *_draws(rng, p, 2 * per), np.full(per, 2), p)

    @pytest.mark.parametrize("p", [-0.5, 1.5])
    def test_random_groups(self, p, monkeypatch):
        rng = substreams(47, 1)[0]
        sizes = np.random.default_rng(53).integers(2, 9, 300)
        assert_lexsort_order(monkeypatch, *_draws(rng, p, int(sizes.sum())), sizes, p)

    def test_hand_built_ties(self, monkeypatch):
        """Equal left ends in f and g, one-interval functions, 8 + 8
        intervals, and 8 functions that share every breakpoint."""
        quarter = StepFunction((0.0, 0.25, 0.5, 1.0), (2.0, 0.5, 3.0))
        tied = StepFunction((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 4.0, 0.5, 2.0))
        one, two = StepFunction.constant(1.5), StepFunction.constant(0.25)
        eight = StepFunction([k / 8 for k in range(9)], [0.25 * (k + 1) for k in range(8)])
        odd = StepFunction([0.0, *((2 * k + 1) / 16 for k in range(7)), 1.0],
                           [0.3 * (k + 1) for k in range(8)])
        shared = [StepFunction(eight.breakpoints, [v * (k + 1) for v in eight.values])
                  for k in range(8)]
        for groups in ([[quarter, tied], [one, two], [eight, odd], [eight, eight],
                        [one, eight], [tied, quarter]],
                       [shared, [quarter, tied, one], [one, two], [eight, odd],
                        shared[:3], [tied, quarter, two, eight, one]]):
            fs = [f for group in groups for f in group]
            cols = columns([(list(f.breakpoints), list(f.values)) for f in fs])
            assert_lexsort_order(monkeypatch, *cols, [len(g) for g in groups], 1.5)


class TestGroupNorms:
    """Moments, i < j overlap sums and folded sums of groups of 2 to 8
    functions from the columnar kernel, against the list kernels, bit for
    bit."""

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_hand_built(self, p):
        one = StepFunction.constant(1.5)
        eight = StepFunction([k / 8 for k in range(9)],
                             [0.25 * (k + 1) for k in range(8)])
        split = StepFunction((0.0, 0.25, 0.5, 1.0), (2.0, 0.5, 3.0))
        shared = StepFunction((0.0, 0.25, 0.5, 1.0), (0.75, 4.0, 1.25))
        odd = StepFunction([0.0, *((2 * k + 1) / 16 for k in range(8)), 1.0],
                           [0.3 * (k + 1) for k in range(9)])
        if p < 0:  # +inf atoms
            atoms = [StepFunction((0.0, 0.5, 1.0), (INF, 2.0)),
                     StepFunction((0.0, 0.125, 1.0), (INF, INF))]
        else:  # 0 atoms
            atoms = [chi(0.0, 0.5, 2.0), chi(0.25, 0.75, 3.0)]
        fs = [one, eight, split, shared, odd, *atoms, StepFunction.constant(0.2)]
        # sizes 2 to 8 in one call; split and shared share every breakpoint
        groups = [fs[:2], fs[2:5], [split, shared, split, shared], fs[:5],
                  fs[1:7], fs[:7], fs, [eight] * 8, [one, one], [shared, split],
                  atoms + [one], [odd, *atoms]]
        assert_group_norms(groups, p)

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_random_groups(self, p):
        """Random sizes 2 to 8 over random_step_functions' functions, and
        group_norms over _draws' arrays of the same functions."""
        rng, twin = substreams(41, 1)[0], substreams(41, 1)[0]
        sizes = [int(k) for k in np.random.default_rng(43).integers(2, 9, 120)]
        fs = random_step_functions(twin, p, sum(sizes))
        groups, end = [], 0
        for k in sizes:
            groups.append(fs[end:end + k])
            end += k
        assert_group_norms(groups, p)
        got = group_norms(*_draws(rng, p, sum(sizes)), np.array(sizes), p)
        want = group_norms(*columns([(list(f.breakpoints), list(f.values))
                                     for f in fs]), sizes, p)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.5, 1.5, 3.0])
    def test_shared_left_ends_every_size(self, p):
        """Groups of every size from 3 to 8 in one call, whose functions
        share and tie left ends, with a +inf atom at p < 0 (a 0 atom at p > 0).
        Each pair's refinement is read off its group's sorted row, and a
        slot's running maximum there must not carry over from the pair before."""
        quarter = (0.0, 0.25, 0.5, 0.75, 1.0)
        atom = INF if p < 0 else 0.0
        fs = [StepFunction(quarter, (2.0, 0.5, 3.0, 1.25)),
              StepFunction(quarter, (0.75, 4.0, 1.0, 0.5)),
              StepFunction((0.0, 0.5, 1.0), (1.5, 0.2)),
              StepFunction((0.0, 0.25, 0.625, 1.0), (0.3, 2.5, 1.1)),
              StepFunction.constant(0.8),
              StepFunction([k / 8 for k in range(9)], [0.25 * (k + 1) for k in range(8)]),
              StepFunction((0.0, 0.75, 1.0), (atom, 1.75)),
              StepFunction((0.0, 0.125, 0.5, 0.875, 1.0), (3.5, 0.4, 2.2, 0.9))]
        groups = [fs[:size] for size in range(3, 9)]
        groups += [fs[::-1][:size] for size in range(3, 9)]
        groups += [[fs[0], fs[1], fs[0]], [fs[6]] * 4, fs[2:5], fs[:2] * 4]
        assert_group_norms(groups, p)

    @pytest.mark.parametrize("p", [-1.0, -0.01, 0.01, 1.0])
    @pytest.mark.parametrize("value", [1e-200, 1e-160, 1e160, 1e200])
    def test_split_product(self, p, value):
        """Where f * g leaves the normal range but f and g are finite and
        positive, the kernel takes f^(p/2) g^(p/2) as overlap_norm does, at
        size 2 and on each pair's own refinement in larger groups."""
        big = StepFunction.constant(value)
        mixed = StepFunction((0.0, 0.5, 1.0), (value, 1.0))
        assert_group_norms([[big, big], [big, mixed, big], [mixed, big]], p)

    def test_tiny_exponent_overlap(self):
        """f = g = 1e200 at p = 0.01: f * g overflows, and z = x = 100."""
        f = StepFunction.constant(1e200)
        moments, overlaps, _ = group_norms(*as_columns([(f, f)]), [2], 0.01)
        assert overlaps[0] == pytest.approx(100.0, rel=1e-12)
        assert overlaps[0] == pytest.approx(moments[0], rel=1e-12)

    @pytest.mark.parametrize("count, sizes", [
        (0, []), (3, [1, 2]), (4, [2, 1, 1]), (5, [2, 2]), (4, [3, 2]),
    ], ids=["no-functions", "group-of-1", "groups-of-1", "sizes-below-count",
            "sizes-above-count"])
    def test_rejects_sizes(self, count, sizes):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        lengths, bps, vals = columns([(list(f.breakpoints), list(f.values))]
                                     * count)
        with pytest.raises(ValueError, match="groups of 2 or more"):
            group_norms(lengths, bps, vals, sizes, 2.0)

    def test_rejects_p_zero(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.5))
        with pytest.raises(ValueError, match="p must be nonzero"):
            group_norms(*as_columns([(f, f, f)]), [3], 0.0)
