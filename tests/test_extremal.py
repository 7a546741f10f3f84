import math

import numpy as np
import pytest

from lpenv.envelopes import ConeTriple, classify, eval_F, eval_G
from lpenv.extremal import extremal_F, extremal_G
from lpenv.powers import INF
from lpenv.stepfun import sum_and_report, sum_norm, triple_of_pair


def assert_roundtrip(f, g, p, t, rel=1e-12):
    got = triple_of_pair(f, g, p.p)
    scale = max(1.0, t.x, t.y, t.z)
    assert abs(got.x - t.x) <= rel * scale
    assert abs(got.y - t.y) <= rel * scale
    assert abs(got.z - t.z) <= rel * scale


def random_triples(rng, count, positive_z=False):
    for _ in range(count):
        x, y = np.exp(rng.uniform(-2, 2, 2))
        lo = 0.05 if positive_z else 0.0
        z = rng.uniform(lo, 1.0) * math.sqrt(x * y)
        yield ConeTriple(float(x), float(y), float(z))


class TestExtremalF:
    def test_p2_example(self):
        p = classify(2)
        t = ConeTriple(1, 1, 0.5)
        f, g = extremal_F(p, t)
        # a^2, b^2 are the roots of s^2 - 2s + 0.25
        assert max(f.values) ** 2 == pytest.approx((2 + math.sqrt(3)) / 2, rel=1e-14)
        assert min(f.values) ** 2 == pytest.approx((2 - math.sqrt(3)) / 2, rel=1e-14)
        assert f.breakpoints[1] == pytest.approx(0.5)
        assert sum_norm(f, g, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_boundary_constant_pair(self):
        p = classify(3)
        t = ConeTriple(1, 1, 1)
        f, g = extremal_F(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, 3.0) == pytest.approx(8.0, rel=1e-12)

    def test_disjoint_at_zero_overlap(self):
        p = classify(3)
        f, g = extremal_F(p, ConeTriple(1.0, 0.5, 0.0))
        assert sum_norm(f, g, 3.0) == pytest.approx(1.5, rel=1e-12)
        assert_roundtrip(f, g, p, ConeTriple(1.0, 0.5, 0.0))

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            extremal_F(classify(2), ConeTriple(0, 0, 0))

    @pytest.mark.parametrize("triple", [
        (1e300, 1e300, 1e300), (1e300, 1e300, 1e299),  # (s - 2z)(s + 2z) overflows
        (1e-200, 3e-200, 1e-200), (1e-300, 1e-300, 1e-300),  # z*z underflows
    ])
    def test_triple_off_the_normal_range(self, triple):
        t = ConeTriple(*triple)
        got = triple_of_pair(*extremal_F(classify(3), t), 3.0)
        for want, have in zip((t.x, t.y, t.z), (got.x, got.y, got.z)):
            assert abs(have - want) <= 1e-12 * want

    def test_negative_p_inf_blocks(self):
        p = classify(-1)
        f, g = extremal_F(p, ConeTriple(1.0, 2.0, 0.0))
        assert INF in f.values or INF in g.values
        assert_roundtrip(f, g, p, ConeTriple(1.0, 2.0, 0.0))

    @pytest.mark.parametrize("p_val", [-2.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_roundtrip_and_attainment(self, p_val):
        p = classify(p_val)
        rng = np.random.default_rng(int(10 * abs(p_val)) + 1)
        for t in random_triples(rng, 50, positive_z=(p_val < 0)):
            f, g = extremal_F(p, t)
            assert_roundtrip(f, g, p, t)
            target = eval_F(p, t)
            assert sum_norm(f, g, p_val) == pytest.approx(target, rel=1e-9)

    def test_equality_case_pointwise(self):
        # (fg)^(p/2) = k (f^p + g^p) with the k implied by the triple
        p = classify(3)
        rng = np.random.default_rng(77)
        for t in random_triples(rng, 20):
            if t.x + t.y == 0:
                continue
            k = t.z / (t.x + t.y)
            f, g = extremal_F(p, t)
            for fv, gv in zip(f.values, g.values):
                lhs = (fv * gv) ** 1.5
                rhs = k * (fv ** 3 + gv ** 3)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestExtremalGPos:
    def test_triangle_example(self):
        p = classify(1.5)
        t = ConeTriple(1, 1, 0.5)
        f, g = extremal_G(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, 1.5) == pytest.approx(eval_G(p, t), rel=1e-12)

    def test_two_block_example(self):
        p = classify(1.5)
        t = ConeTriple(1, 0.25, 0.4)
        f, g = extremal_G(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, 1.5) == pytest.approx(1.5763933952917516, rel=1e-12)

    def test_zero_overlap_disjoint(self):
        p = classify(1.5)
        f, g = extremal_G(p, ConeTriple(1.0, 2.0, 0.0))
        assert sum_norm(f, g, 1.5) == pytest.approx(3.0, rel=1e-12)

    def test_f_equals_g_on_shared_support(self):
        # triangle-cone equality case: f = g wherever fg > 0
        p = classify(1.3)
        rng = np.random.default_rng(3)
        for t in random_triples(rng, 20):
            tt = ConeTriple(t.x, t.y, min(t.x, t.y) * 0.8)
            f, g = extremal_G(p, tt)
            for fv, gv in zip(f.values, g.values):
                if fv > 0 and gv > 0:
                    assert fv == gv

    @pytest.mark.parametrize("p_val", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_roundtrip_and_attainment(self, p_val):
        p = classify(p_val)
        rng = np.random.default_rng(int(10 * p_val) + 5)
        for t in random_triples(rng, 50):
            f, g = extremal_G(p, t)
            assert_roundtrip(f, g, p, t)
            assert sum_norm(f, g, p_val) == pytest.approx(eval_G(p, t), rel=1e-9)


class TestExtremalGNeg:
    def test_basic(self):
        p = classify(-1)
        t = ConeTriple(1, 1, 0.5)
        f, g = extremal_G(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, -1.0) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_zero_overlap(self):
        with pytest.raises(ValueError):
            extremal_G(classify(-1), ConeTriple(1.0, 1.0, 0.0))

    def test_edge_z_equals_min(self):
        p = classify(-1)
        t = ConeTriple(2.0, 0.5, 0.5)
        f, g = extremal_G(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, -1.0) == pytest.approx(eval_G(p, t), rel=1e-9)

    def test_mirrored_case(self):
        p = classify(-2)
        t = ConeTriple(0.5, 2.0, 0.8)
        f, g = extremal_G(p, t)
        assert_roundtrip(f, g, p, t)
        assert sum_norm(f, g, -2.0) == pytest.approx(eval_G(p, t), rel=1e-9)

    @pytest.mark.parametrize("p_val", [-2.0, -1.0, -0.5])
    def test_roundtrip_and_attainment(self, p_val):
        p = classify(p_val)
        rng = np.random.default_rng(int(-10 * p_val) + 9)
        for t in random_triples(rng, 50, positive_z=True):
            f, g = extremal_G(p, t)
            assert_roundtrip(f, g, p, t)
            assert sum_norm(f, g, p_val) == pytest.approx(eval_G(p, t), rel=1e-9)


class TestEqualityMargins:
    def test_zero_margin_against_matching_envelope(self):
        rng = np.random.default_rng(13)
        for p_val in (-1.5, 0.7, 1.4, 2.5):
            p = classify(p_val)
            for t in random_triples(rng, 10, positive_z=True):
                fF, gF = extremal_F(p, t)
                rep = sum_and_report(fF, gF, p)
                target = eval_F(p, t)
                assert rep.actual == pytest.approx(target, rel=1e-9)
                fG, gG = extremal_G(p, t)
                rep = sum_and_report(fG, gG, p)
                assert rep.actual == pytest.approx(eval_G(p, t), rel=1e-9)
                # both stay inside the sandwich
                assert rep.margins["upper"] >= -1e-9
                assert rep.margins["lower"] >= -1e-9
