"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.
"""

import math
import time

import numpy as np
import pytest

from lpenv import analysis, suites
from lpenv.envelopes import (ConeTriple, carlen_bound, classify, eval_F,
                             eval_G, lower_envelope, upper_envelope)
from lpenv.extremal import extremal_F, extremal_G
from lpenv.powers import xpow
from lpenv.sampling import random_pair, substreams
from lpenv.stepfun import StepFunction, sum_norm, triple_of_pair
from lpenv.suites import P_GRID
from highprec import ref_diff, ref_h, ref_h_tilde
from reference_draw import columns


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d [%s] %s %s" % (num, name, status, detail))
    assert ok, "%s: %s" % (name, detail)


def omega_grid(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x, y = np.exp(rng.uniform(-2, 2, 2))
        z = rng.uniform(0, 1) * math.sqrt(x * y)
        out.append(ConeTriple(float(x), float(y), float(z)))
    return out


def test_criterion_1_p2_identity():
    start = time.monotonic()
    rng = substreams(101, 1)[0]
    worst = 0.0
    for _ in range(10_000):
        f, g = random_pair(rng, 2.0)
        t = triple_of_pair(f, g, 2.0)
        actual = sum_norm(f, g, 2.0)
        scale = max(1.0, abs(actual))
        worst = max(worst, abs(actual - (t.x + t.y + 2 * t.z)) / scale)
    grid_worst = 0.0
    for p_val in (1.0, 2.0):
        p = classify(p_val)
        for t in omega_grid(50, seed=2):
            up, lo = upper_envelope(p, t), lower_envelope(p, t)
            grid_worst = max(grid_worst, abs(up - lo) / max(1.0, abs(up)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and grid_worst <= 1e-12 and elapsed < 5.0
    report(1, "p=2 identity", ok,
           "pair_err=%.2e grid_err=%.2e t=%.1fs" % (worst, grid_worst, elapsed))


def test_criterion_2_sandwich():
    start = time.monotonic()
    violations, worst = suites.pair_sweep(202, 100_000)
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    report(2, "theorem sandwich", ok,
           "violations=%d worst=%.2e t=%.1fs" % (violations, worst, elapsed))


def test_criterion_3_carlen_refinement():
    p_values = np.concatenate((np.linspace(-5.0, -0.05, 40),
                               np.linspace(0.05, 5.0, 60)))
    gammas = np.linspace(0.0, 1.0, 100)
    worst = 0.0
    bad = 0
    for p_val in p_values:
        p = classify(float(p_val))
        for gamma in gammas:
            t = ConeTriple(1.0, 1.0, float(gamma))
            f_val = eval_F(p, t)
            c_val = carlen_bound(p, t)
            slack = 1e-12 * max(1.0, abs(f_val), abs(c_val))
            if p.f_is_concave and f_val - c_val > slack:
                bad += 1
                worst = max(worst, f_val - c_val)
            if (p_val < 0 or 1.0 <= p_val <= 2.0) and c_val - f_val > slack:
                bad += 1
                worst = max(worst, c_val - f_val)
    report(3, "carlen refinement grid", bad == 0,
           "grid=%dx%d bad=%d worst=%.2e" % (len(p_values), len(gammas), bad, worst))


def _draw_regime_p(rng, concave_f):
    if concave_f:
        return float(rng.choice([rng.uniform(0.05, 1.0), rng.uniform(2.0, 5.0)]))
    return float(rng.choice([rng.uniform(1.001, 1.999), rng.uniform(-3.0, -0.05)]))


def test_criterion_4_extremal_attainment():
    rng = np.random.default_rng(404)
    worst_triple = 0.0
    worst_attain = 0.0
    for concave_f in (True, False):
        for _ in range(1000):
            p = classify(_draw_regime_p(rng, concave_f))
            x, y = np.exp(rng.uniform(-2, 2, 2))
            zfrac = rng.uniform(0.01, 0.99) if p.p < 0 else rng.uniform(0, 1)
            t = ConeTriple(float(x), float(y), float(zfrac * math.sqrt(x * y)))
            scale = max(1.0, t.x, t.y, t.z)
            for ctor, env in ((extremal_F, eval_F), (extremal_G, eval_G)):
                f, g = ctor(p, t)
                got = triple_of_pair(f, g, p.p)
                worst_triple = max(
                    worst_triple,
                    abs(got.x - t.x) / scale,
                    abs(got.y - t.y) / scale,
                    abs(got.z - t.z) / scale,
                )
                target = env(p, t)
                achieved = sum_norm(f, g, p.p)
                worst_attain = max(
                    worst_attain,
                    abs(achieved - target) / max(1.0, abs(target)),
                )
    ok = worst_triple <= 1e-12 and worst_attain <= 1e-9
    report(4, "extremal attainment", ok,
           "triple_err=%.2e attain_err=%.2e" % (worst_triple, worst_attain))


def _worst_per_p(rows):
    rows = list(rows)
    return {p: max(err for q, _, err in rows if q == p) for p in P_GRID}


def test_criterion_5_oracle_agreement():
    start = time.monotonic()
    e128 = _worst_per_p(suites.oracle_errors(128))
    e512 = _worst_per_p(suites.oracle_errors(512))
    ok = all(e512[p] <= 2e-2 and e512[p] <= e128[p] + 1e-3 for p in P_GRID)
    detail = ["p=%g:%.1e" % (p, e512[p]) for p in P_GRID]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(5, "oracle agreement", ok, " ".join(detail) + " t=%.1fs" % elapsed)


def test_criterion_6_sign_tables():
    issues = []
    for p_val, v_ok, g_ok, h_ok in suites.sign_tables():
        p = classify(p_val)
        if not v_ok:
            issues.append("v@%g" % p_val)
        if abs(analysis.v_fn(1.0, p)) > 1e-12:
            issues.append("v(1)@%g" % p_val)
        if p_val > 0:
            if not g_ok:
                issues.append("g@%g" % p_val)
            if analysis.g_fn(0.0, p) != 0.0:
                issues.append("g(0)@%g" % p_val)
        if not h_ok:
            issues.append(("h''@%g" if p_val > 0 else "ht''@%g") % p_val)
    # closed-form second derivatives against 50-digit derivatives of h and h~
    d2_worst = 0.0
    cases = [(analysis.h_fn_d2, ref_h, p_val) for p_val in (0.5, 1.3, 2.5)]
    cases += [(analysis.h_tilde_fn_d2, ref_h_tilde, p_val) for p_val in (-2.0, -1.0)]
    for fn, ref, p_val in cases:
        p = classify(p_val)
        for t in (0.2, 0.5, 0.9):
            d2 = float(ref_diff(lambda u: ref(p_val, u), t, 2))
            d2_worst = max(d2_worst, abs(fn(t, p) - d2) / max(1.0, abs(d2)))
    ok = not issues and d2_worst <= 1e-6
    report(6, "sign tables", ok,
           "issues=%s d2_err=%.2e" % (",".join(issues) or "none", d2_worst))


def _step_function(rng, p):
    """Criterion 7's own draw: 1 to 4 blocks with values exp(U[-2, 2])."""
    k = int(rng.integers(1, 5))
    bps = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, k - 1)), [1.0])) \
        if k > 1 else np.array([0.0, 1.0])
    return StepFunction(np.unique(bps), np.exp(rng.uniform(-2, 2, len(np.unique(bps)) - 1)))


def _step_functions(rng, p, count):
    """``count`` of criterion 7's draws, as the columns many_sweep takes."""
    return columns([(list(f.breakpoints), list(f.values))
                    for f in (_step_function(rng, p) for _ in range(count))])


def test_criterion_7_many_functions():
    rng = np.random.default_rng(707)
    cases = [(p_val, upper, rng) for p_val, upper in (
        (1.0, True), (1.5, True), (2.0, True),
        (0.5, False), (1.0, False), (2.0, False), (3.0, False))]
    violations, _ = suites.many_sweep(cases, 60, _step_functions)
    # the p = -1 counterexample with three unit constants, exactly
    lhs, rhs = suites.p_neg_counterexample()
    counterexample = (lhs == pytest.approx(1.0 / 3.0, abs=0) and rhs == -1.5
                      and lhs > rhs)
    ok = violations == 0 and counterexample
    report(7, "many-function bound", ok,
           "violations=%d counterexample_reproduced=%s" % (violations, counterexample))


def test_criterion_8_torsion():
    checks = list(suites.torsion_checks(grid=256))
    ok = all(good for _, _, good in checks)
    details = ["p=%g:%d@%.1e" % (p_val, rep.count, rep.location)
               for p_val, rep, _ in checks]
    report(8, "torsion single sign change", ok, " ".join(details))


def test_criterion_9_structure():
    rng = np.random.default_rng(909)
    homo_worst = 0.0
    boundary_worst = 0.0
    symmetric = True
    for p_val in P_GRID:
        p = classify(p_val)
        for t in omega_grid(40, seed=int(abs(p_val) * 10) + 3):
            lam = float(rng.uniform(1e-3, 10.0))
            ts = ConeTriple(lam * t.x, lam * t.y, lam * t.z)
            tswap = ConeTriple(t.y, t.x, t.z)
            for H in (eval_F, eval_G):
                base = H(p, t)
                homo_worst = max(
                    homo_worst,
                    abs(H(p, ts) - lam * base) / max(1.0, abs(lam * base)))
                if H(p, tswap) != base:
                    symmetric = False
        for _ in range(40):
            x, y = np.exp(rng.uniform(-2, 2, 2))
            tb = ConeTriple(float(x), float(y), math.sqrt(x * y))
            phi = xpow(xpow(x, 1 / p_val) + xpow(y, 1 / p_val), p_val)
            for H in (eval_F, eval_G):
                boundary_worst = max(
                    boundary_worst,
                    abs(H(p, tb) - phi) / max(1.0, abs(phi)))
    ok = homo_worst <= 1e-12 and symmetric and boundary_worst <= 1e-10
    report(9, "homogeneity/symmetry/boundary", ok,
           "homo=%.2e sym=%s boundary=%.2e" % (homo_worst, symmetric, boundary_worst))
