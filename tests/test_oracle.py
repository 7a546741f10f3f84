import ast
import math
import os
import pathlib
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lpenv
from lpenv import oracle, suites
from lpenv.cli import main
from lpenv.envelopes import ConeTriple, classify, lower_envelope, upper_envelope
from lpenv.oracle import BoundaryCurve, EnvelopeOracle, boundary_value
from lpenv.suites import P_GRID, interior_grid, oracle_comparison

from empirical import empirical_B


def _planes(oc):
    return oc._planes.result()[oc.kind]


@pytest.fixture(autouse=True)
def drained_builder():
    """No background build left by an earlier test runs during this one
    (some tests count or replace qhull calls)."""
    if oracle._BUILDER:
        oracle._BUILDER[0].submit(int).result(timeout=60)


def _scan(kind, planes, ss, zs):
    """The plane scan one point at a time: min (concave) or max (convex)
    over the planes a*s + b*z + c."""
    a, b, c = planes
    pick = np.min if kind == "concave" else np.max
    return np.array([pick(a * s + b * z + c) for s, z in zip(ss, zs)])


def _reference(oc, ss, zs):
    """The scan over the oracle's own facet planes."""
    return _scan(oc.kind, _planes(oc), ss, zs)


class TestBoundaryCurve:
    def test_node_counts(self):
        c = BoundaryCurve(classify(3), 64)
        assert len(c.values) == 64 + 2 + 16

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            BoundaryCurve(classify(3), 8)

    def test_semicircle_values(self):
        p = classify(3)
        c = BoundaryCurve(p, 32)
        s, z = c.nodes[0]
        assert z == pytest.approx(math.sqrt(1 - s * s), rel=1e-12)
        assert c.values[0] == pytest.approx(
            ((1 + s) ** (1 / 3) + (1 - s) ** (1 / 3)) ** 3, rel=1e-12)

    def test_diameter_values(self):
        assert BoundaryCurve(classify(3), 32).values[-1] == 2.0
        assert BoundaryCurve(classify(-1), 32).values[-1] == 0.0

    def test_negative_p_endpoint_value(self):
        # the conventions make phi_p vanish at (+-1, 0) when p < 0
        assert boundary_value(classify(-1), 1.0) == 0.0

    @pytest.mark.parametrize("p_val", P_GRID + (-0.05, 0.05, 7.5, -4.0))
    @pytest.mark.parametrize("n", [16, 511, 2048, 8192])
    def test_semicircle_values_match_node_loop(self, p_val, n):
        """The array call gives boundary_value's floats node by node."""
        p = classify(p_val)
        c = BoundaryCurve(p, n)
        semi_s = c.nodes[:n, 0]
        loop = np.array([boundary_value(p, s) for s in semi_s])
        assert np.array_equal(c.values[:n].view(np.uint64), loop.view(np.uint64))


class TestOracleEnvelope:
    def test_boundary_node_coincidence(self):
        p = classify(3)
        oc = EnvelopeOracle(p, "concave", 128)
        s, z = oc.curve.nodes[10]
        val = float(oc.evaluate(np.array(s), np.array(z)))
        assert val == pytest.approx(oc.curve.values[10], rel=1e-9)

    def test_p2_identity(self):
        val = EnvelopeOracle(classify(2), "concave", 512).evaluate(0.0, 0.5)
        assert val == pytest.approx(3.0, abs=0.02)

    def test_convex_matches_closed_form(self):
        p = classify(1.5)
        val = EnvelopeOracle(p, "convex", 512).evaluate(0.0, 0.3)
        closed = lower_envelope(p, ConeTriple(1.0, 1.0, 0.3))
        assert val == pytest.approx(closed, abs=1e-4)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            EnvelopeOracle(classify(3), "concave", 64).evaluate(0.9, 0.9)
        with pytest.raises(ValueError):
            EnvelopeOracle(classify(3), "sideways", 64).evaluate(0.0, 0.5)

    @pytest.mark.parametrize("s, z", [
        (math.nan, 0.5), (0.0, math.nan),
        (np.array([0.0, math.nan, 0.2]), 0.3), (0.1, np.array([0.2, math.nan]))])
    def test_rejects_nan(self, s, z):
        """A NaN coordinate, alone or inside an array, is outside D."""
        oc = EnvelopeOracle(classify(3), "concave", 64)
        with pytest.raises(ValueError, match="^query outside the closed half-disc D$"):
            oc.evaluate(s, z)

    @pytest.mark.parametrize("p_val", P_GRID)
    def test_one_sided(self, p_val):
        p = classify(p_val)
        pts = interior_grid(10)
        for kind, closed in (("concave", upper_envelope), ("convex", lower_envelope)):
            oc = EnvelopeOracle(p, kind, 128)
            for s, z in pts:
                ov = float(oc.evaluate(np.array(s), np.array(z)))
                cf = closed(p, ConeTriple(1 + s, 1 - s, z))
                if kind == "concave":
                    assert ov <= cf + 1e-12, (p_val, s, z)
                else:
                    assert ov >= cf - 1e-12, (p_val, s, z)

    @pytest.mark.parametrize("p_val", P_GRID)
    def test_convergence(self, p_val):
        p = classify(p_val)
        pts = interior_grid(20)
        errors = {}
        for n in (128, 256, 512):
            worst = 0.0
            for kind, closed in (("concave", upper_envelope),
                                 ("convex", lower_envelope)):
                oc = EnvelopeOracle(p, kind, n)
                ss = np.array([q[0] for q in pts])
                zs = np.array([q[1] for q in pts])
                ovs = oc.evaluate(ss, zs)
                cfs = np.array([closed(p, ConeTriple(1 + s, 1 - s, z))
                                for s, z in pts])
                rel = np.max(np.abs(ovs - cfs) / np.maximum(1.0, np.abs(cfs)))
                worst = max(worst, float(rel))
            errors[n] = worst
        assert errors[512] <= 2e-2
        assert errors[256] <= errors[128] + 1e-3
        assert errors[512] <= errors[256] + 1e-3


class TestBatchedQuery:
    @pytest.mark.parametrize("p_val", P_GRID)
    @pytest.mark.parametrize("kind", ("concave", "convex"))
    def test_matches_point_loop(self, p_val, kind):
        oc = EnvelopeOracle(classify(p_val), kind, 128)
        # the interior grid, then every node of the curve
        ss, zs = np.concatenate((interior_grid(20), oc.curve.nodes)).T
        ref = _reference(oc, ss, zs)
        assert np.array_equal(oc.evaluate(ss, zs), ref)
        assert np.array_equal(
            [oc.evaluate(s, z) for s, z in zip(ss, zs)], ref)

    def test_partial_last_block(self):
        oc = EnvelopeOracle(classify(3), "concave", 128)
        rows = oracle._BLOCK_ELEMENTS // len(_planes(oc)[0])
        rng = np.random.default_rng(5)
        r = np.sqrt(rng.uniform(0.0, 1.0, 2 * rows + 3))
        theta = rng.uniform(0.0, np.pi, r.size)
        ss, zs = r * np.cos(theta), r * np.sin(theta)
        assert np.array_equal(oc.evaluate(ss, zs), _reference(oc, ss, zs))

    def test_broadcasting(self):
        oc = EnvelopeOracle(classify(1.5), "convex", 128)
        ss = np.linspace(-0.9, 0.9, 7)
        got = oc.evaluate(ss, 0.3)
        assert got.shape == ss.shape
        assert np.array_equal(got, _reference(oc, ss, np.full(7, 0.3)))
        got = oc.evaluate(0.2, ss[3:] / 2)
        assert np.array_equal(got, _reference(oc, np.full(4, 0.2), ss[3:] / 2))
        grid = oc.evaluate(ss.reshape(7, 1), np.array([0.0, 0.1, 0.4]))
        assert grid.shape == (7, 3)
        assert np.array_equal(grid[:, 1], oc.evaluate(ss, 0.1))
        assert isinstance(oc.evaluate(0.0, 0.5), float)

    def test_empty_query(self):
        oc = EnvelopeOracle(classify(3), "concave", 128)
        got = oc.evaluate(np.empty(0), np.empty(0))
        assert got.shape == (0,)

    @pytest.mark.parametrize("p_val", (-1.0, 1.0, 1.5, 2.0, 3.0))
    def test_opposite_shares_the_hull(self, p_val, monkeypatch):
        p = classify(p_val)
        builds = []
        hull = oracle.ConvexHull

        def counting_hull(pts):
            builds.append(len(pts))
            return hull(pts)

        monkeypatch.setattr(oracle, "ConvexHull", counting_hull)
        for kind in ("concave", "convex"):
            oc = EnvelopeOracle(p, kind, 128)
            _planes(oc)  # the background build is done before opposite() is counted
            before = len(builds)
            other = oc.opposite()
            assert len(builds) == before
            assert (oc.kind, other.kind) == (kind, oracle._OPPOSITE[kind])
            assert other.curve is oc.curve
            fresh = EnvelopeOracle(p, other.kind, 128)
            for mine, theirs in zip(_planes(other), _planes(fresh)):
                assert np.array_equal(mine, theirs)
        # p = 1 and 2 are coplanar and never reach qhull
        assert len(builds) == (0 if p.p in (1.0, 2.0) else 4)


def _hull_planes(oc, hull):
    """(a, b, c) of every facet of ``hull`` of the oracle's kind, unfiltered
    and in qhull's order: the rows the oracle keeps one of each run of."""
    eqs = hull(np.column_stack((oc.curve.nodes, oc.curve.values))).equations
    sign = 1.0 if oc.kind == "concave" else -1.0
    keep = eqs[sign * eqs[:, 2] > 1e-12]
    return -keep[:, 0] / keep[:, 2], -keep[:, 1] / keep[:, 2], -keep[:, 3] / keep[:, 2]


# p = 1 and 2 take the coplanar plane and never reach qhull
_HULL_P = tuple(p for p in P_GRID if p not in (1.0, 2.0))


class TestFurthestHull:
    """The hull is built with qhull's Qf; each facet plane is kept once."""

    @staticmethod
    def _default_build_gap(p_val, kind, n, m):
        from scipy.spatial import ConvexHull
        oc = EnvelopeOracle(classify(p_val), kind, n)
        ss, zs = interior_grid(m).T
        ref = _scan(kind, _hull_planes(oc, ConvexHull), ss, zs)
        return np.max(np.abs(oc.evaluate(ss, zs) - ref) / np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("p_val", _HULL_P)
    @pytest.mark.parametrize("kind", ("concave", "convex"))
    @pytest.mark.parametrize("n", (128, 512, 2048))
    def test_within_1e12_of_default_build(self, p_val, kind, n):
        """Every value within 1e-12 max(1, |v|) of scipy's default-option hull."""
        assert self._default_build_gap(p_val, kind, n, 20) <= 1e-12

    @pytest.mark.parametrize("p_val, kind", [
        (3.0, "concave"), (-1.0, "convex"), (1.5, "concave")])
    def test_within_1e12_of_default_build_fine(self, p_val, kind):
        assert self._default_build_gap(p_val, kind, 8192, 60) <= 1e-12

    @pytest.mark.parametrize("p_val", _HULL_P)
    @pytest.mark.parametrize("kind", ("concave", "convex"))
    @pytest.mark.parametrize("n", (128, 512))
    def test_equals_scan_over_every_facet(self, p_val, kind, n):
        """Dropping repeated planes leaves every value's bits unchanged."""
        oc = EnvelopeOracle(classify(p_val), kind, n)
        ss, zs = np.concatenate((interior_grid(20), oc.curve.nodes)).T
        every = _hull_planes(oc, oracle.ConvexHull)
        full = _scan(kind, every, ss, zs)
        assert np.array_equal(oc.evaluate(ss, zs).view(np.uint64), full.view(np.uint64))
        assert len(_planes(oc)[0]) <= len(every[0])

    @pytest.mark.parametrize("p_val, kind", [(3.0, "concave"), (-1.0, "convex")])
    def test_strip_planes_kept_once(self, p_val, kind):
        """The kind that is F_p is made of two-triangle strips: about n/2
        distinct planes of n facets."""
        oc = EnvelopeOracle(classify(p_val), kind, 512)
        assert len(_planes(oc)[0]) < 0.6 * 512

    def test_runs_compared_by_bits(self, monkeypatch):
        """Only consecutive rows with equal bits collapse: a repeat after
        another plane stays, and so do -0.0 and 0.0."""
        eqs = np.array([[1.0, 2.0, 1.0, 3.0], [1.0, 2.0, 1.0, 3.0],
                        [0.0, 1.0, 1.0, 1.0], [-0.0, 1.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0, 3.0], [1.0, 0.0, -1.0, 0.0]])

        class Hull:
            equations = eqs

        monkeypatch.setattr(oracle, "ConvexHull", lambda pts: Hull)
        a, b, c = EnvelopeOracle(classify(3), "concave", 16)._planes.result()["concave"]
        assert a.tolist() == [-1.0, -0.0, 0.0, -1.0]
        assert np.signbit(a).tolist() == [True, True, False, True]
        assert (b.tolist(), c.tolist()) == ([-2.0, -1.0, -1.0, -2.0], [-3.0, -1.0, -1.0, -3.0])
        assert all(col.flags.c_contiguous for col in (a, b, c))

    @pytest.mark.parametrize("p_val, n", [(50.0, 64), (50.0, 2048), (45.0, 512)])
    def test_qhull_failure_is_value_error(self, p_val, n):
        """qhull's flat-simplex error becomes a ValueError naming p and n
        (above the ceiling, so the hull is built without EnvelopeOracle)."""
        with pytest.raises(ValueError, match=r"p = %r, n = %d" % (p_val, n)):
            EnvelopeOracle._facet_planes(BoundaryCurve(classify(p_val), n))

    def test_no_facet_of_a_kind_is_value_error(self):
        """At p = 40 qhull builds, but no facet's normal clears the 1e-12
        filter, so neither kind has a plane to take a min or max over."""
        with pytest.raises(ValueError, match=r"no concave facet at p = 40.0, n = 64"):
            EnvelopeOracle._facet_planes(BoundaryCurve(classify(40), 64))


class TestCeiling:
    """Above p = 26.5 qhull's precision (about 2^-52 of the largest lifted
    value, 2^p) stops the error falling as n doubles: at p = 26.6 it reads
    5.9e-6 at n = 4096 and 1.8e-5 at 8192."""

    @pytest.mark.parametrize("p_val", [26.6, 30.0, 39.5, 44.0])
    def test_above_is_value_error(self, p_val):
        with pytest.raises(ValueError) as err:
            EnvelopeOracle(classify(p_val), "concave", 64)
        assert str(err.value) == "the oracle converges only for p <= 26.5, got p = %r" % p_val

    def test_error_falls_with_n_at_ceiling(self):
        errs = []
        for n in (512, 2048, 8192):
            concave = EnvelopeOracle(classify(26.5), "concave", n)
            errs.append(max(np.max(np.abs(ov - cf) / np.maximum(1.0, np.abs(cf)))
                            for _, _, cf, ov in map(oracle_comparison,
                                                    (concave, concave.opposite()))))
        assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-5, errs


def _grid_loop(m, margin=0.02):
    """interior_grid's points, one at a time."""
    pts = []
    for s in np.linspace(-1.0 + margin, 1.0 - margin, m):
        zmax = math.sqrt(1.0 - s * s)
        for z in np.linspace(margin, zmax - margin, m):
            if z > 0.0 and s * s + z * z < (1.0 - margin) ** 2:
                pts.append((float(s), float(z)))
    return pts


class TestComparisonColumns:
    @pytest.mark.parametrize("m", [3, 4, 5, 10, 20, 60, 101])
    def test_interior_grid_matches_point_loop(self, m):
        assert repr([tuple(r) for r in interior_grid(m).tolist()]) == repr(
            _grid_loop(m))

    @pytest.mark.parametrize("p_val", P_GRID)
    @pytest.mark.parametrize("kind", ("concave", "convex"))
    def test_closed_column_matches_scalar_forms(self, p_val, kind):
        p = classify(p_val)
        oc = EnvelopeOracle(p, kind, 64)
        s, z, closed, ov = oracle_comparison(oc, 20)
        scalar = upper_envelope if kind == "concave" else lower_envelope
        assert repr(closed.tolist()) == repr(
            [scalar(p, ConeTriple(1.0 + a, 1.0 - a, b))
             for a, b in zip(s.tolist(), z.tolist())])
        assert np.array_equal(ov, oc.evaluate(s, z))


_NO_FACET = "qhull resolves no concave facet at p = 40.0, n = 64"


def _serial_oracle_errors(n):
    """oracle_errors as one loop over P_GRID: each exponent's hull built and
    waited for, then both kinds compared through oracle_comparison."""
    for p_val in P_GRID:
        concave = EnvelopeOracle(classify(p_val), "concave", n)
        _planes(concave)
        for oc in (concave, concave.opposite()):
            _, _, cf, ov = oracle_comparison(oc)
            yield p_val, oc.kind, float(np.max(np.abs(ov - cf) / np.maximum(1.0, np.abs(cf))))


class TestBackgroundBuild:
    """Each hull is built on one background thread; the caller waits for it
    where the planes are first read."""

    @pytest.fixture
    def failing_build(self, monkeypatch):
        """A _facet_planes that raises p = 40's error, whatever the curve."""
        with pytest.raises(ValueError) as real:
            EnvelopeOracle._facet_planes(BoundaryCurve(classify(40), 64))
        assert str(real.value) == _NO_FACET

        def fail(curve):
            raise ValueError(_NO_FACET)

        monkeypatch.setattr(EnvelopeOracle, "_facet_planes", staticmethod(fail))

    def test_build_error_on_first_evaluate(self, failing_build):
        oc = EnvelopeOracle(classify(3), "concave", 64)  # submitting does not raise
        for other in (oc, oc.opposite(), oc):
            with pytest.raises(ValueError) as err:
                other.evaluate(0.0, 0.5)
            assert type(err.value) is ValueError and str(err.value) == _NO_FACET

    def test_build_error_through_cli(self, failing_build, capsys):
        assert main(["verify", "oracle", "--n", "64"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: %s\n" % _NO_FACET)

    def test_only_the_build_leaves_the_main_thread(self, monkeypatch):
        on_main = {}

        def record(name, fn):
            def wrapper(*args, **kwargs):
                on_main.setdefault(name, set()).add(
                    threading.current_thread() is threading.main_thread())
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "boundary_value", record("curve", oracle.boundary_value))
        monkeypatch.setattr(EnvelopeOracle, "evaluate",
                            record("evaluate", EnvelopeOracle.evaluate))
        monkeypatch.setattr(suites, "envelope_arrays",
                            record("closed form", suites.envelope_arrays))
        monkeypatch.setattr(EnvelopeOracle, "_facet_planes", staticmethod(
            record("build", EnvelopeOracle._facet_planes)))
        assert len(list(suites.oracle_errors(64))) == 2 * len(P_GRID)
        assert on_main == {"curve": {True}, "evaluate": {True},
                           "closed form": {True}, "build": {False}}

    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_serial_loop(self, n):
        assert repr(list(suites.oracle_errors(n))) == repr(list(_serial_oracle_errors(n)))

    def test_lookahead_is_one_exponent(self, monkeypatch):
        """At each submission and each yield, at most two exponents' builds
        are pending or held; the next exponent is submitted before this one
        is compared."""
        pool = ThreadPoolExecutor(max_workers=1)
        futures = []

        def live():
            return sum(ref() is not None for ref in futures)

        class Counting:
            def submit(self, fn, *args):
                future = pool.submit(fn, *args)
                futures.append(weakref.ref(future))
                assert live() <= 2
                return future

        monkeypatch.setattr(oracle, "_BUILDER", [Counting()])
        try:
            for i, (p_val, _, _) in enumerate(suites.oracle_errors(64)):
                assert p_val == P_GRID[i // 2]
                assert len(futures) == min(i // 2 + 2, len(P_GRID))
                assert live() <= 2
        finally:
            pool.shutdown()
        assert len(futures) == len(P_GRID)

    @pytest.mark.parametrize("stop", ["close", "raise"])
    def test_a_stopped_sweep_cancels_the_queued_build(self, stop, monkeypatch):
        """A sweep closed after its first row, or failing at its first
        evaluate, cancels the next exponent's build, queued behind a task
        that holds the worker."""
        pool, release, futures = ThreadPoolExecutor(max_workers=1), threading.Event(), []
        facet_planes = EnvelopeOracle._facet_planes

        def build(curve):
            if stop == "raise":
                raise ValueError(_NO_FACET)
            return facet_planes(curve)

        class Holding:
            def submit(self, fn, *args):
                if futures:  # the worker waits, so this build stays queued
                    pool.submit(release.wait, 60)
                futures.append(pool.submit(fn, *args))
                return futures[-1]

        monkeypatch.setattr(oracle, "_BUILDER", [Holding()])
        monkeypatch.setattr(EnvelopeOracle, "_facet_planes", staticmethod(build))
        sweep = suites.oracle_errors(64)
        try:
            if stop == "close":
                assert next(sweep)[:2] == (P_GRID[0], "concave")
                sweep.close()
            else:
                with pytest.raises(ValueError, match=_NO_FACET):
                    next(sweep)
            assert len(futures) == 2 and futures[1].cancelled()
        finally:
            release.set()
            pool.shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_builder(self):
        """The builder thread does not survive a fork; a child that builds
        after one starts its own instead of waiting forever (an alarm ends
        the child if it does wait)."""
        code = (
            "import os, signal\n"
            "from lpenv import EnvelopeOracle, classify\n"
            "value = lambda: EnvelopeOracle(classify(3), 'concave', 64).evaluate(0.0, 0.5)\n"
            "first = value()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    os._exit(0 if value() == first else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")
        src = os.path.dirname(os.path.dirname(lpenv.__file__))
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestIndependence:
    def test_imports_only_powers_from_the_package(self):
        # the oracle checks the closed forms, so it must not reach them
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                package.add(node.module)
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("lpenv")
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("lpenv") for a in node.names)
        assert package == {"powers"}


class TestEmpiricalB:
    def test_p2_any_direction(self):
        p = classify(2)
        t = ConeTriple(1, 1, 0.5)
        for direction in ("sup", "inf"):
            assert empirical_B(p, t, direction, budget=50) == pytest.approx(3.0, rel=1e-6)

    def test_p3_sup_attains_F(self):
        p = classify(3)
        t = ConeTriple(1, 1, 0.5)
        assert empirical_B(p, t, "sup", budget=50) == pytest.approx(
            5.2937350181684707, rel=1e-6)

    def test_p15_sup_attains_G(self):
        p = classify(1.5)
        t = ConeTriple(1, 1, 0.5)
        assert empirical_B(p, t, "sup", budget=50) == pytest.approx(
            2.414213562373095, rel=1e-6)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            empirical_B(classify(2), ConeTriple(1, 1, 0.5), "max")

    @pytest.mark.parametrize("p_val", (-1.5, 0.5, 1.5, 3.0))
    def test_attainment_and_sandwich(self, p_val):
        p = classify(p_val)
        rng = np.random.default_rng(21)
        for i in range(15):
            x, y = np.exp(rng.uniform(-1, 1, 2))
            z = rng.uniform(0.05, 0.95) * math.sqrt(x * y)
            t = ConeTriple(float(x), float(y), float(z))
            up, lo = upper_envelope(p, t), lower_envelope(p, t)
            sup = empirical_B(p, t, "sup", budget=100, seed=i)
            inf = empirical_B(p, t, "inf", budget=100, seed=i)
            assert sup == pytest.approx(up, rel=1e-6)
            assert inf == pytest.approx(lo, rel=1e-6)
            assert sup <= up + 1e-9 * max(1.0, abs(up))
            assert inf >= lo - 1e-9 * max(1.0, abs(lo))

    def test_midpoint_concavity_of_sup(self):
        p = classify(3)
        rng = np.random.default_rng(31)
        for i in range(10):
            s1, s2 = rng.uniform(-0.8, 0.8, 2)
            z1 = rng.uniform(0.1, 0.9) * math.sqrt(1 - s1 * s1)
            z2 = rng.uniform(0.1, 0.9) * math.sqrt(1 - s2 * s2)
            P = ConeTriple(1 + s1, 1 - s1, z1)
            Q = ConeTriple(1 + s2, 1 - s2, z2)
            M = ConeTriple(0.5 * (P.x + Q.x), 0.5 * (P.y + Q.y), 0.5 * (P.z + Q.z))
            bp = empirical_B(p, P, "sup", budget=100, seed=i)
            bq = empirical_B(p, Q, "sup", budget=100, seed=i)
            bm = empirical_B(p, M, "sup", budget=100, seed=i)
            assert bm >= 0.5 * (bp + bq) - 1e-6
