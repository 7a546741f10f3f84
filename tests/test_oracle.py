import ast
import copy
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lpenv
from lpenv import oracle, suites
from lpenv.cli import main
from lpenv.envelopes import (ConeTriple, classify, envelope_arrays, lower_envelope,
                             upper_envelope)
from lpenv.oracle import BoundaryCurve, EnvelopeOracle, boundary_value
from lpenv.suites import P_GRID, closed_columns, interior_grid

from empirical import empirical_B


def _planes(oc, kind):
    return oc._planes.result()[kind]


@pytest.fixture(autouse=True)
def drained_builder():
    """No background build left by an earlier test runs during this one
    (some tests count or replace qhull calls): two tasks that can only
    finish together, at a barrier, show that both workers are idle."""
    if oracle._BUILDER:
        both = threading.Barrier(2)
        for task in [oracle._BUILDER[0].submit(both.wait, 60) for _ in range(2)]:
            task.result(timeout=60)


def _scan(kind, planes, ss, zs):
    """The plane scan one point at a time: min (concave) or max (convex)
    over the planes a*s + b*z + c."""
    a, b, c = planes
    pick = np.min if kind == "concave" else np.max
    return np.array([pick(a * s + b * z + c) for s, z in zip(ss, zs)])


def _reference(oc, kind, ss, zs):
    """The scan over the oracle's own facet planes of that kind."""
    return _scan(kind, _planes(oc, kind), ss, zs)


def _max_rel_err(oc, kind):
    """The largest |oracle - closed form| / max(1, |closed form|) of one kind
    over interior_grid(), through closed_columns and evaluate."""
    s, z, cf = closed_columns(oc.curve.p, kind)
    return float(np.max(np.abs(oc.evaluate(s, z, kind) - cf) / np.maximum(1.0, np.abs(cf))))


def _wrong_side(oc, eps=0.0):
    """{kind: the largest sign * (oracle - closed form) over interior_grid()},
    sign 1 for the concave kind, which the oracle never exceeds inside the
    nodes' hull, and -1 for the convex kind, which it never falls below. Each
    kind is one array evaluate against envelope_arrays' column; ``eps`` shifts
    that column by eps (p-1)(p-2)(sqrt(xy) - z) z / (x+y), which vanishes at
    p = 1 and 2 and on the boundary."""
    s, z = interior_grid().T
    _, _, upper, lower, _ = envelope_arrays(oc.curve.p, 1.0 + s, 1.0 - s, z)
    p = oc.curve.p.p
    shift = eps * (p - 1.0) * (p - 2.0) * (np.sqrt(1.0 - s * s) - z) * z / 2.0
    return {kind: float(np.max(sign * (oc.evaluate(s, z, kind) - cf - shift)))
            for kind, sign, cf in (("concave", 1.0, upper), ("convex", -1.0, lower))}


class TestBoundaryCurve:
    def test_node_counts(self):
        c = BoundaryCurve(classify(3), 64)
        assert len(c.values) == len(c.nodes) == 64 + 2
        assert c.nodes[64:].tolist() == [[-1.0, 0.0], [1.0, 0.0]]

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


def _with_interior_diameter(curve):
    """A copy of ``curve`` with the n//4 interior diameter nodes the curve
    once carried after its endpoints, valued as the endpoints are."""
    s = np.linspace(-1.0, 1.0, curve.n // 4 + 2)[1:-1]
    wide = copy.copy(curve)
    wide.nodes = np.concatenate((curve.nodes, np.column_stack((s, np.zeros_like(s)))))
    wide.values = np.concatenate((curve.values, np.full_like(s, curve.values[-1])))
    return wide


def _sorted_rows(planes):
    """The plane rows (a, b, c) as int64 bits, sorted lexicographically."""
    rows = np.column_stack(planes).view(np.int64)
    return rows[np.lexsort(rows.T[::-1])]


class TestEndpointDiameter:
    """Interior diameter nodes are collinear, with the endpoints' value, so
    they lie on a hull edge and are never vertices: without them every
    curved exponent's planes are the same bits, and the flat fit moves in
    its last bits only."""

    @pytest.mark.parametrize("p_val", tuple(p for p in P_GRID if p not in (1.0, 2.0))
                             + (-4.0, -0.05, 0.05, 7.5, 10.0, 26.0))
    @pytest.mark.parametrize("n", (64, 512, 2048))
    def test_same_planes(self, p_val, n):
        curve = BoundaryCurve(classify(p_val), n)
        mine = EnvelopeOracle._facet_planes(curve)
        wide = EnvelopeOracle._facet_planes(_with_interior_diameter(curve))
        for kind in ("concave", "convex"):
            assert np.array_equal(_sorted_rows(mine[kind]), _sorted_rows(wide[kind]))

    @pytest.mark.parametrize("p_val", (1.0, 2.0))
    @pytest.mark.parametrize("n", (64, 512, 2048))
    def test_flat_plane_within_1e15(self, p_val, n):
        curve = BoundaryCurve(classify(p_val), n)
        s, z = interior_grid(20).T
        (a, b, c), (wa, wb, wc) = (
            EnvelopeOracle._facet_planes(cv)["concave"]
            for cv in (curve, _with_interior_diameter(curve)))
        mine, wide = a * s + b * z + c, wa * s + wb * z + wc
        assert np.max(np.abs(mine - wide) / np.abs(wide)) <= 1e-15


class TestOracleEnvelope:
    def test_boundary_node_coincidence(self):
        p = classify(3)
        oc = EnvelopeOracle(p, 128)
        s, z = oc.curve.nodes[10]
        val = float(oc.evaluate(np.array(s), np.array(z), "concave"))
        assert val == pytest.approx(oc.curve.values[10], rel=1e-9)

    def test_p2_identity(self):
        val = EnvelopeOracle(classify(2), 512).evaluate(0.0, 0.5, "concave")
        assert val == pytest.approx(3.0, abs=0.02)

    def test_convex_matches_closed_form(self):
        p = classify(1.5)
        val = EnvelopeOracle(p, 512).evaluate(0.0, 0.3, "convex")
        closed = lower_envelope(p, ConeTriple(1.0, 1.0, 0.3))
        assert val == pytest.approx(closed, abs=1e-4)

    def test_rejects_outside_domain(self):
        """A point outside D or a kind other than the two is a ValueError; the
        kind is checked first."""
        oc = EnvelopeOracle(classify(3), 64)
        with pytest.raises(ValueError, match="^query outside the closed half-disc D$"):
            oc.evaluate(0.9, 0.9, "concave")
        for s, z in ((0.0, 0.5), (0.9, 0.9)):
            with pytest.raises(ValueError, match="^kind must be 'concave' or 'convex'$"):
                oc.evaluate(s, z, "sideways")

    @pytest.mark.parametrize("s, z", [
        (math.nan, 0.5), (0.0, math.nan),
        (np.array([0.0, math.nan, 0.2]), 0.3), (0.1, np.array([0.2, math.nan]))])
    def test_rejects_nan(self, s, z):
        """A NaN coordinate, alone or inside an array, is outside D."""
        oc = EnvelopeOracle(classify(3), 64)
        with pytest.raises(ValueError, match="^query outside the closed half-disc D$"):
            oc.evaluate(s, z, "concave")

    @pytest.mark.parametrize("p_val", P_GRID)
    def test_one_sided(self, p_val):
        """oracle <= closed form for the concave kind and >= for the convex
        kind, over interior_grid() at N = 128 and 512, within an absolute
        1e-12 (measured: 2.2e-15 at most, at either N)."""
        for n in (128, 512):
            excess = _wrong_side(EnvelopeOracle(classify(p_val), n))
            assert max(excess.values()) <= 1e-12, (n, excess)

    @pytest.mark.parametrize("eps", [1e-2, -1e-2])
    def test_one_sided_flags_a_shifted_closed_form(self, eps):
        """test_one_sided's bound at N = 512 flags the closed column shifted by
        eps (p-1)(p-2)(sqrt(xy) - z) z / (x+y), for either sign of eps, at
        every exponent but 1 and 2, in the kind the shift crosses: the convex
        one where it raises the column, the concave one where it lowers it
        (measured: excess 2.6e-4 at least, at p = 1.3 and 1.7)."""
        flagged = []
        for p_val in P_GRID:
            excess = _wrong_side(EnvelopeOracle(classify(p_val), 512), eps)
            flagged += [(p_val, kind) for kind, e in excess.items() if e > 1e-12]
        assert flagged == [(p, "convex" if eps * (p - 1.0) * (p - 2.0) > 0 else "concave")
                           for p in P_GRID if p not in (1.0, 2.0)]

    @pytest.mark.parametrize("p_val", P_GRID)
    def test_convergence(self, p_val):
        p = classify(p_val)
        pts = interior_grid(20)
        errors = {}
        for n in (128, 256, 512):
            worst = 0.0
            oc = EnvelopeOracle(p, n)
            for kind, closed in (("concave", upper_envelope),
                                 ("convex", lower_envelope)):
                ss = np.array([q[0] for q in pts])
                zs = np.array([q[1] for q in pts])
                ovs = oc.evaluate(ss, zs, kind)
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
        oc = EnvelopeOracle(classify(p_val), 128)
        # the interior grid, then every node of the curve
        ss, zs = np.concatenate((interior_grid(20), oc.curve.nodes)).T
        ref = _reference(oc, kind, ss, zs)
        assert np.array_equal(oc.evaluate(ss, zs, kind), ref)
        assert np.array_equal(
            [oc.evaluate(s, z, kind) for s, z in zip(ss, zs)], ref)

    def test_partial_last_block(self):
        oc = EnvelopeOracle(classify(3), 128)
        rows = oracle._BLOCK_ELEMENTS // len(_planes(oc, "concave")[0])
        rng = np.random.default_rng(5)
        r = np.sqrt(rng.uniform(0.0, 1.0, 2 * rows + 3))
        theta = rng.uniform(0.0, np.pi, r.size)
        ss, zs = r * np.cos(theta), r * np.sin(theta)
        assert np.array_equal(oc.evaluate(ss, zs, "concave"),
                              _reference(oc, "concave", ss, zs))

    def test_broadcasting(self):
        oc, kind = EnvelopeOracle(classify(1.5), 128), "convex"
        ss = np.linspace(-0.9, 0.9, 7)
        got = oc.evaluate(ss, 0.3, kind)
        assert got.shape == ss.shape
        assert np.array_equal(got, _reference(oc, kind, ss, np.full(7, 0.3)))
        got = oc.evaluate(0.2, ss[3:] / 2, kind)
        assert np.array_equal(got, _reference(oc, kind, np.full(4, 0.2), ss[3:] / 2))
        grid = oc.evaluate(ss.reshape(7, 1), np.array([0.0, 0.1, 0.4]), kind)
        assert grid.shape == (7, 3)
        assert np.array_equal(grid[:, 1], oc.evaluate(ss, 0.1, kind))
        assert isinstance(oc.evaluate(0.0, 0.5, kind), float)

    def test_empty_query(self):
        oc = EnvelopeOracle(classify(3), 128)
        got = oc.evaluate(np.empty(0), np.empty(0), "concave")
        assert got.shape == (0,)

    @pytest.mark.parametrize("p_val", (-1.0, 1.0, 1.5, 2.0, 3.0))
    def test_opposite_shares_the_hull(self, p_val, monkeypatch):
        """One oracle answers each kind and its opposite from one qhull build:
        queries of both kinds build nothing more, the concave values are at
        least the convex ones, and each kind's planes are a second oracle's."""
        p = classify(p_val)
        builds = []
        hull = oracle.ConvexHull

        def counting_hull(pts):
            builds.append(len(pts))
            return hull(pts)

        monkeypatch.setattr(oracle, "ConvexHull", counting_hull)
        oc = EnvelopeOracle(p, 128)
        ss, zs = interior_grid(20).T
        upper, lower = (oc.evaluate(ss, zs, kind) for kind in oracle.KINDS)
        # p = 1 and 2 are coplanar and never reach qhull
        assert len(builds) == (0 if p.p in (1.0, 2.0) else 1)
        assert np.all(upper >= lower)
        fresh = EnvelopeOracle(p, 128)
        for kind in oracle.KINDS:
            for mine, theirs in zip(_planes(oc, kind), _planes(fresh, kind)):
                assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))
        assert len(builds) == (0 if p.p in (1.0, 2.0) else 2)


def _peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSplitScan:
    """A scan of two blocks or more is halved: the second half is handed to
    the workers, and the caller scans it too when no worker has started it."""

    @staticmethod
    def _query(oc, kind, blocks):
        """An odd number of random points of D spanning about ``blocks`` blocks of ``kind``."""
        rows = oracle._BLOCK_ELEMENTS // len(_planes(oc, kind)[0])
        rng = np.random.default_rng(17)
        r = np.sqrt(rng.uniform(0.0, 1.0, blocks * rows + 3))
        theta = rng.uniform(0.0, np.pi, r.size)
        return r * np.cos(theta), r * np.sin(theta)

    @staticmethod
    def _pool(monkeypatch, wait_start):
        """A two-worker pool in place of the builder; each task it is handed
        is listed with the thread that ran it, and with ``wait_start`` submit
        returns only once a worker has started the task."""
        pool, handed = ThreadPoolExecutor(max_workers=2), []

        class Recording:
            def submit(self, fn, *args):
                task, began = [None, None], threading.Event()  # the future, its thread

                def run():
                    task[1] = threading.current_thread()
                    began.set()
                    return fn(*args)

                task[0] = pool.submit(run)
                handed.append(task)
                assert not wait_start or began.wait(60)
                return task[0]

        monkeypatch.setattr(oracle, "_BUILDER", [Recording()])
        return pool, handed

    @pytest.mark.parametrize("kind", ("concave", "convex"))
    @pytest.mark.parametrize("blocks", (2, 5))
    def test_worker_free(self, kind, blocks, monkeypatch):
        oc = EnvelopeOracle(classify(3), 512)
        ss, zs = self._query(oc, kind, blocks)
        pool, handed = self._pool(monkeypatch, wait_start=True)
        try:
            got = oc.evaluate(ss, zs, kind)
        finally:
            pool.shutdown()
        assert np.array_equal(got.view(np.uint64), _reference(oc, kind, ss, zs).view(np.uint64))
        (future, thread), = handed
        assert future.done() and not future.cancelled()
        assert thread is not threading.main_thread()

    @pytest.mark.parametrize("kind", ("concave", "convex"))
    @pytest.mark.parametrize("blocks", (2, 5))
    def test_both_workers_busy(self, kind, blocks, monkeypatch):
        """With both workers held, the queued second half is cancelled and
        scanned by the caller, which returns while the workers still wait.
        Each half's two buffers are half-size: the caller's two halves, one
        after the other, peak one _BLOCK_ELEMENTS buffer below an unsplit
        scan, so two halves at once hold no more scratch than one scan."""
        oc = EnvelopeOracle(classify(3), 512)
        ss, zs = self._query(oc, kind, blocks)
        monkeypatch.setattr(oracle, "_BUILDER", [])  # no workers: one unsplit scan
        _, unsplit = _peak(oc.evaluate, ss, zs, kind)
        release, held = threading.Event(), threading.Barrier(3)
        pool, handed = self._pool(monkeypatch, wait_start=False)
        try:
            for _ in range(2):
                oracle._BUILDER[0].submit(lambda: held.wait(60) + release.wait(60))
            held.wait(60)
            got, peak = _peak(oc.evaluate, ss, zs, kind)
            assert not release.is_set()
        finally:
            release.set()
            pool.shutdown()
        assert np.array_equal(got.view(np.uint64), _reference(oc, kind, ss, zs).view(np.uint64))
        assert len(handed) == 3 and handed[2][0].cancelled() and handed[2][1] is None
        assert peak <= unsplit - 8 * oracle._BLOCK_ELEMENTS + 64 * ss.size

    def test_concurrent_callers(self):
        """Four callers at once, more than the cores, each splitting its scans
        over the real workers, with a short switch interval: every value
        still equals the reference's bits."""
        oc = EnvelopeOracle(classify(3), 512)
        ss, zs = self._query(oc, "convex", 5)
        ref = _reference(oc, "convex", ss, zs).view(np.uint64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                got = list(callers.map(lambda _: oc.evaluate(ss, zs, "convex"), range(16),
                                       timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g.view(np.uint64), ref) for g in got)

    def test_no_workers(self, monkeypatch):
        """A forked child has no workers until it builds: it scans both halves."""
        oc = EnvelopeOracle(classify(3), 512)
        ss, zs = self._query(oc, "concave", 5)
        monkeypatch.setattr(oracle, "_BUILDER", [])
        assert np.array_equal(oc.evaluate(ss, zs, "concave").view(np.uint64),
                              _reference(oc, "concave", ss, zs).view(np.uint64))


def _hull_planes(oc, kind, hull):
    """(a, b, c) of every ``kind`` facet of ``hull`` over the oracle's curve,
    unfiltered and in qhull's order: the rows the oracle keeps one of each run of."""
    eqs = hull(np.column_stack((oc.curve.nodes, oc.curve.values))).equations
    sign = 1.0 if kind == "concave" else -1.0
    keep = eqs[sign * eqs[:, 2] > 1e-12]
    return -keep[:, 0] / keep[:, 2], -keep[:, 1] / keep[:, 2], -keep[:, 3] / keep[:, 2]


# p = 1 and 2 take the coplanar plane and never reach qhull
_HULL_P = tuple(p for p in P_GRID if p not in (1.0, 2.0))


class TestFurthestHull:
    """The hull is built with qhull's Qf; each facet plane is kept once."""

    @staticmethod
    def _default_build_gap(p_val, kind, n, m):
        from scipy.spatial import ConvexHull
        oc = EnvelopeOracle(classify(p_val), n)
        ss, zs = interior_grid(m).T
        ref = _scan(kind, _hull_planes(oc, kind, ConvexHull), ss, zs)
        return np.max(np.abs(oc.evaluate(ss, zs, kind) - ref) / np.maximum(1.0, np.abs(ref)))

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
        oc = EnvelopeOracle(classify(p_val), n)
        ss, zs = np.concatenate((interior_grid(20), oc.curve.nodes)).T
        every = _hull_planes(oc, kind, oracle.ConvexHull)
        full = _scan(kind, every, ss, zs)
        assert np.array_equal(oc.evaluate(ss, zs, kind).view(np.uint64), full.view(np.uint64))
        assert len(_planes(oc, kind)[0]) <= len(every[0])

    @pytest.mark.parametrize("p_val, kind", [(3.0, "concave"), (-1.0, "convex")])
    def test_strip_planes_kept_once(self, p_val, kind):
        """The kind that is F_p is made of two-triangle strips: about n/2
        distinct planes of n facets."""
        oc = EnvelopeOracle(classify(p_val), 512)
        assert len(_planes(oc, kind)[0]) < 0.6 * 512

    def test_runs_compared_by_bits(self, monkeypatch):
        """Only consecutive rows with equal bits collapse: a repeat after
        another plane stays, and so do -0.0 and 0.0."""
        eqs = np.array([[1.0, 2.0, 1.0, 3.0], [1.0, 2.0, 1.0, 3.0],
                        [0.0, 1.0, 1.0, 1.0], [-0.0, 1.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0, 3.0], [1.0, 0.0, -1.0, 0.0]])

        class Hull:
            equations = eqs

        monkeypatch.setattr(oracle, "ConvexHull", lambda pts: Hull)
        a, b, c = _planes(EnvelopeOracle(classify(3), 16), "concave")
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
            EnvelopeOracle(classify(p_val), 64)
        assert str(err.value) == (
            "the oracle converges only for -21 <= p <= 26.5, got p = %r" % p_val)

    def test_error_falls_with_n_at_ceiling(self):
        errs = []
        for n in (512, 2048, 8192):
            oc = EnvelopeOracle(classify(26.5), n)
            errs.append(max(_max_rel_err(oc, kind) for kind in oracle.KINDS))
        assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-5, errs


def _rel_errs(p_val, n):
    """|oracle - closed form| / |closed form| at its largest over
    interior_grid(), for the concave and the convex oracle at n nodes. Below
    p = 0 every value is under 1, so max(1, |closed form|) would read an
    absolute error."""
    oc = EnvelopeOracle(classify(p_val), n)
    errs = []
    for kind in oracle.KINDS:
        s, z, cf = closed_columns(oc.curve.p, kind)
        errs.append(float(np.max(np.abs(oc.evaluate(s, z, kind) - cf) / np.abs(cf))))
    return errs


class TestFloor:
    """Below p = -21 the boundary values (at most 2^p) are too small for
    qhull's precision: the error stops falling as n doubles (at p = -22 the
    concave error reads 2.6e-8 at n = 4096 and 2.7e-8 at 8192)."""

    @pytest.mark.parametrize("p_val", [math.nextafter(-21.0, -math.inf), -21.5, -25.0,
                                       -30.0, -100.0])
    def test_below_is_value_error(self, p_val):
        with pytest.raises(ValueError) as err:
            EnvelopeOracle(classify(p_val), 64)
        assert str(err.value) == (
            "the oracle converges only for -21 <= p <= 26.5, got p = %r" % p_val)

    def test_tiny_values_are_not_flat(self):
        """At p = -25 every node value is below 3e-8 and the least-squares
        residual is below 1e-9: the flatness test is relative to the
        largest value, so the curved data still gets its hull's planes."""
        planes = EnvelopeOracle._facet_planes(BoundaryCurve(classify(-25), 512))
        assert all(len(planes[kind][0]) > 1 for kind in ("concave", "convex"))

    def test_error_falls_with_n_at_floor(self):
        errs = [_rel_errs(-21.0, n) for n in (512, 2048, 8192)]
        for kind in zip(*errs):
            assert list(kind) == sorted(kind, reverse=True) and kind[-1] < 1e-5, errs


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
        s, z, closed = closed_columns(p, kind, 20)
        assert np.array_equal(np.column_stack((s, z)), interior_grid(20))
        scalar = upper_envelope if kind == "concave" else lower_envelope
        assert repr(closed.tolist()) == repr(
            [scalar(p, ConeTriple(1.0 + a, 1.0 - a, b))
             for a, b in zip(s.tolist(), z.tolist())])


_NO_FACET = "qhull resolves no concave facet at p = 40.0, n = 64"


def _serial_oracle_errors(n):
    """oracle_errors as one loop over P_GRID: each exponent's hull built and
    waited for, then both kinds compared by _max_rel_err."""
    for p_val in P_GRID:
        oc = EnvelopeOracle(classify(p_val), n)
        oc._planes.result()
        for kind in oracle.KINDS:
            yield p_val, kind, _max_rel_err(oc, kind)


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
        oc = EnvelopeOracle(classify(3), 64)  # submitting does not raise
        for kind in oracle.KINDS + oracle.KINDS:
            with pytest.raises(ValueError) as err:
                oc.evaluate(0.0, 0.5, kind)
            assert type(err.value) is ValueError and str(err.value) == _NO_FACET

    def test_build_error_through_cli(self, failing_build, capsys):
        assert main(["verify", "oracle", "--n", "64"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: %s\n" % _NO_FACET)

    def test_only_the_build_leaves_the_main_thread(self, monkeypatch):
        """Builds run on the workers and the rest of the sweep on the main
        thread, but for the second half of a scan of two blocks or more
        (one kind per curved exponent at N = 512): it is handed to the pool
        and runs on a worker, or on the main thread once cancelled there."""
        on_main, handed = {}, []

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
        pool = ThreadPoolExecutor(max_workers=2)

        class Recording:
            def submit(self, fn, *args):
                handed.append(fn.__qualname__)
                if fn.__qualname__ == "EnvelopeOracle.evaluate.<locals>.scan":
                    fn = record("second half", fn)
                return pool.submit(fn, *args)

        monkeypatch.setattr(oracle, "_BUILDER", [Recording()])
        try:
            assert len(list(suites.oracle_errors(512))) == 2 * len(P_GRID)
        finally:
            pool.shutdown()
        assert on_main.pop("second half", {False}) == {False}
        assert on_main == {"curve": {True}, "evaluate": {True},
                           "closed form": {True}, "build": {False}}
        scans = [name for name in handed if name.endswith("<locals>.scan")]
        assert len(handed) - len(scans) == len(P_GRID) and len(scans) == 9

    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_serial_loop(self, n):
        assert repr(list(suites.oracle_errors(n))) == repr(list(_serial_oracle_errors(n)))

    def test_every_build_is_queued_before_the_first_row(self, monkeypatch):
        """All of P_GRID's builds are submitted, in P_GRID order, before the
        sweep yields its first row, and no other build after it."""
        pool, submitted = ThreadPoolExecutor(max_workers=2), []

        class Recording:
            def submit(self, fn, *args):
                submitted.append(args[0].p.p if fn is EnvelopeOracle._facet_planes else fn)
                return pool.submit(fn, *args)

        monkeypatch.setattr(oracle, "_BUILDER", [Recording()])
        try:
            sweep = suites.oracle_errors(64)
            assert next(sweep)[:2] == (P_GRID[0], "concave")
            assert submitted == list(P_GRID)
            rows = list(sweep)
        finally:
            pool.shutdown()
        assert submitted == list(P_GRID)
        assert [row[0] for row in rows] == [p for p in P_GRID for _ in range(2)][1:]

    @pytest.mark.parametrize("stop", ["close", "raise"])
    def test_a_stopped_sweep_cancels_the_queued_build(self, stop, monkeypatch):
        """A sweep closed after its first row, or failing at its first
        evaluate, cancels every build not yet started: every exponent's but
        the first, each queued behind a task that holds the worker."""
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
            assert len(futures) == len(P_GRID) and all(f.cancelled() for f in futures[1:])
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
            "value = lambda: EnvelopeOracle(classify(3), 64).evaluate(0.0, 0.5, 'concave')\n"
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
