"""One benchmark workload in one process; run by ``run.py``.

Usage (normally through run.py, which sets PYTHONPATH and the thread
limits): ``python3 bench/workloads.py --workload NAME --seed N --seconds T
--trace 0|1 --out-dir DIR``. Prints one JSON object as its last stdout line.

A run repeats *rounds* of fixed work until ``--seconds`` have passed; every
round uses the same inputs, derived from the seed alone. With ``--trace 1``
rounds come in pairs, the first untraced and the second traced, so the
tracing overhead is measured inside one process.

Why each workload exists, and what is deliberately left out, is in
WORKLOADS.md next to this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import numpy as np
import scipy

import lpenv
from lpenv import cli, envelopes, extremal, stepfun

from tracing import Tracer

P_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.3, 1.5, 1.7, 2.0, 3.0, 5.0)

# Acceptance tolerances (tests/test_acceptance.py), unchanged.
MARGIN_TOL = 1e-9
TRIPLE_TOL = 1e-12
ATTAIN_TOL = 1e-9
ORACLE_TOL = 2e-2

PAIR_SAMPLES = 2750   # verify pair --samples per round: 250 per exponent
TABLE_GRID = 32       # table --grid per round: 11 * 32^2 = 11264 rows
EXTREMAL_OPS = 5000   # round trips per round
ORACLE_N = 2048       # verify oracle --n
COMPARE_N = 8192      # oracle-compare --n
COMPARE_GRID = 60     # oracle-compare --grid
COMPARE_CASES = (("3", "concave"), ("-1", "convex"), ("1.5", "concave"))
VERIFY_ORACLE_GRID = 20  # the grid verify oracle uses for each of 22 oracles

MAX_NOTES = 5


def f_is_concave(p):
    """Regime of the paper: F_p is the upper envelope on (0,1] u [2,inf)."""
    return 0.0 < p <= 1.0 or p >= 2.0


def interior_grid_size(m, margin=0.02):
    """Number of points of the CLI's interior half-disc grid of side m."""
    count = 0
    for s in np.linspace(-1.0 + margin, 1.0 - margin, m):
        zmax = math.sqrt(1.0 - s * s)
        for z in np.linspace(margin, zmax - margin, m):
            if z > 0.0 and s * s + z * z < (1.0 - margin) ** 2:
                count += 1
    return count


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Round:
    """What one round did: timings, outcomes and output digests."""

    def __init__(self, items):
        self.items = items
        self.parts = {}  # part of the fixed work -> its time in this round
        self.op_times = []
        self.failed = 0
        self.failures = []
        self.wrongs = 0
        self.wrong = []
        self.out_bytes = 0
        self.digests = {}
        self.extra = {}

    def fail(self, msg):
        self.failed += 1
        if len(self.failures) < MAX_NOTES:
            self.failures.append(msg)

    def bad(self, msg):
        self.wrongs += 1
        if len(self.wrong) < MAX_NOTES:
            self.wrong.append(msg)


class Runner:
    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.csv_path = os.path.join(out_dir, "%s_%d.csv" % (workload, os.getpid()))
        # every round repeats the same inputs, derived from the seed alone
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.inputs = getattr(self, "inputs_" + workload)()

    # -- CLI invocation -------------------------------------------------------

    def invoke(self, rnd, label, argv, csv=False):
        """Run ``lpenv argv`` in-process; returns (stdout, csv text), or
        (None, None) when the invocation failed."""
        if csv:
            argv = argv + ["--out", self.csv_path]
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the run goes on
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = perf_counter() - start
        rnd.parts[label] = elapsed
        rnd.op_times.append(elapsed)
        out = buf.getvalue().encode()
        text = b""
        if csv and os.path.exists(self.csv_path):
            with open(self.csv_path, "rb") as fh:
                text = fh.read()
            os.remove(self.csv_path)
        rnd.out_bytes += len(out) + len(text)
        rnd.digests[" ".join(argv[:argv.index("--out")] if csv else argv)] = {
            "stdout_sha256": sha256(out),
            **({"csv_sha256": sha256(text)} if csv else {}),
        }
        if code == 1:
            rnd.bad("%s: exit 1 (bound violated): %s"
                    % (label, out.decode().strip().splitlines()[-1:]))
        elif code != 0:
            rnd.fail("%s: %s" % (label, code))
            return None, None
        return out.decode(), text.decode()

    def check_verify(self, rnd, label, out, worst_floor=None):
        last = out.strip().splitlines()[-1] if out.strip() else ""
        fields = dict(kv.split("=", 1) for kv in last.split() if "=" in kv)
        try:
            violations = int(fields["violations"])
            worst = float(fields["worst_margin"])
        except (KeyError, ValueError):
            rnd.bad("%s: no summary line in %r" % (label, last))
            return
        if violations != 0:
            rnd.bad("%s: violations=%d" % (label, violations))
        if worst_floor is not None and not worst >= worst_floor:
            rnd.bad("%s: worst_margin=%r below %g" % (label, worst, worst_floor))

    # -- workloads ------------------------------------------------------------

    def inputs_verify_pair(self):
        return self.rng.getrandbits(32)

    def round_verify_pair(self):
        cli_seed = self.inputs
        rnd = Round(items=(PAIR_SAMPLES // len(P_GRID)) * len(P_GRID))
        argv = ["verify", "pair", "--seed", str(cli_seed),
                "--samples", str(PAIR_SAMPLES)]
        out, _ = self.invoke(rnd, "verify pair", argv)
        if out is not None:
            self.check_verify(rnd, "verify pair seed %d" % cli_seed, out,
                              worst_floor=-MARGIN_TOL)
        return rnd

    def inputs_table(self):
        ps = list(P_GRID)
        self.rng.shuffle(ps)
        return ps

    def round_table(self):
        ps = self.inputs
        p_list = ",".join(format(p, "g") for p in ps)
        g = TABLE_GRID
        rnd = Round(items=len(ps) * g * g)
        _, text = self.invoke(
            rnd, "table", ["table", "--p-list=" + p_list, "--grid", str(g)],
            csv=True)
        if text is not None:
            self.check_table(rnd, text, ps, g)
        return rnd

    def check_table(self, rnd, text, ps, g):
        lines = text.splitlines()
        if not lines or lines[0] != "p,s,z,F,G,upper,lower,carlen":
            rnd.bad("table: bad header %r" % (lines[:1],))
            return
        rows = lines[1:]
        if len(rows) != len(ps) * g * g:
            rnd.bad("table: %d rows, expected %d" % (len(rows), len(ps) * g * g))
        per_p = {}
        for n, row in enumerate(rows):
            vals = [float(v) for v in row.split(",")]
            if len(vals) != 8 or not all(math.isfinite(v) for v in vals):
                rnd.bad("table row %d not 8 finite values: %r" % (n, row))
                continue
            p, _, _, f, gv, upper, lower, _ = vals
            per_p[p] = per_p.get(p, 0) + 1
            want = (f, gv) if f_is_concave(p) else (gv, f)
            if (upper, lower) != want:
                rnd.bad("table row %d: upper/lower are not F/G for p=%r: %r"
                        % (n, p, row))
            if upper - lower < -MARGIN_TOL * max(1.0, abs(upper)):
                rnd.bad("table row %d: upper < lower: %r" % (n, row))
        if sorted(per_p) != sorted(ps) or set(per_p.values()) != {g * g}:
            rnd.bad("table: rows per p %r" % (per_p,))

    def inputs_extremal_roundtrip(self):
        """Criterion 4's draw: regime exponents with |p| >= 0.05, interior
        triples, F or G chosen per operation."""
        rng = np.random.default_rng(self.seed)
        ops = []
        for i in range(EXTREMAL_OPS):
            if i % 2 == 0:
                p = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(2.0, 5.0)])
            else:
                p = rng.choice([rng.uniform(1.001, 1.999),
                                rng.uniform(-3.0, -0.05)])
            p = envelopes.classify(float(p))
            x, y = np.exp(rng.uniform(-2, 2, 2))
            zfrac = rng.uniform(0.01, 0.99) if p.p < 0 else rng.uniform(0, 1)
            t = envelopes.ConeTriple(float(x), float(y),
                                     float(zfrac * math.sqrt(x * y)))
            ops.append((p, t, rng.random() < 0.5))
        return ops

    def round_extremal_roundtrip(self):
        ops = self.inputs
        rnd = Round(items=len(ops))
        # resolved after the tracer is (un)installed, so spans see the calls
        ext_F, ext_G = extremal.extremal_F, extremal.extremal_G
        ev_F, ev_G = envelopes.eval_F, envelopes.eval_G
        triple_of_pair, sum_norm = stepfun.triple_of_pair, stepfun.sum_norm
        worst_triple = worst_attain = 0.0
        op_times = rnd.op_times
        for p, t, use_f in ops:
            start = perf_counter()
            try:
                if use_f:
                    f, g = ext_F(p, t)
                else:
                    f, g = ext_G(p, t)
                got = triple_of_pair(f, g, p.p)
                achieved = sum_norm(f, g, p.p)
                target = ev_F(p, t) if use_f else ev_G(p, t)
            except Exception as exc:  # counted, the run goes on
                op_times.append(perf_counter() - start)
                rnd.fail("%s p=%r t=%r: %s: %s" % (
                    "F" if use_f else "G", p.p, t, type(exc).__name__, exc))
                continue
            op_times.append(perf_counter() - start)
            if not all(math.isfinite(v) for v in
                       (got.x, got.y, got.z, achieved, target)):
                rnd.fail("%s p=%r t=%r: non-finite result" % (
                    "F" if use_f else "G", p.p, t))
                continue
            scale = max(1.0, t.x, t.y, t.z)
            terr = max(abs(got.x - t.x), abs(got.y - t.y), abs(got.z - t.z)) / scale
            aerr = abs(achieved - target) / max(1.0, abs(target))
            worst_triple = max(worst_triple, terr)
            worst_attain = max(worst_attain, aerr)
            if terr > TRIPLE_TOL or aerr > ATTAIN_TOL:
                rnd.bad("%s p=%r t=%r: triple_err=%.3g attain_err=%.3g" % (
                    "F" if use_f else "G", p.p, t, terr, aerr))
        rnd.parts["round trips"] = math.fsum(op_times)
        rnd.extra = {"worst_triple_err": worst_triple,
                     "worst_attain_err": worst_attain}
        return rnd

    def inputs_oracle_certify(self):
        cases = [["verify", "analysis"],
                 ["verify", "oracle", "--n", str(ORACLE_N)]]
        cases += [["oracle-compare", "-p", p, "--kind", kind, "--n",
                   str(COMPARE_N), "--grid", str(COMPARE_GRID)]
                  for p, kind in COMPARE_CASES]
        self.rng.shuffle(cases)
        return cases

    def round_oracle_certify(self):
        cases = self.inputs
        compare_rows = interior_grid_size(COMPARE_GRID)
        rnd = Round(items=2 * len(P_GRID) * interior_grid_size(VERIFY_ORACLE_GRID)
                    + len(COMPARE_CASES) * compare_rows)
        for argv in cases:
            label = " ".join(argv[:3] if argv[0] == "oracle-compare" else argv[:2])
            if argv[0] == "verify":
                out, _ = self.invoke(rnd, label, argv)
                if out is not None:
                    self.check_verify(rnd, label, out)
                continue
            _, text = self.invoke(rnd, label, argv, csv=True)
            if text is not None:
                self.check_compare(rnd, text, float(argv[2]), compare_rows)
        return rnd

    def check_compare(self, rnd, text, p, expect_rows):
        lines = text.splitlines()
        label = "oracle-compare p=%g" % p
        if not lines or lines[0] != "p,s,z,closed_form,oracle,abs_err,N":
            rnd.bad("%s: bad header %r" % (label, lines[:1]))
            return
        if len(lines) - 1 != expect_rows:
            rnd.bad("%s: %d rows, expected %d" % (label, len(lines) - 1,
                                                   expect_rows))
        for row in lines[1:]:
            vals = [float(v) for v in row.split(",")]
            if len(vals) != 7 or not all(math.isfinite(v) for v in vals):
                rnd.bad("%s: row not 7 finite values: %r" % (label, row))
                continue
            rp, _, _, cf, ov, err, n = vals
            tol = ORACLE_TOL * max(1.0, abs(cf))
            if rp != p or n != COMPARE_N or abs(ov - cf) > tol or err > tol:
                rnd.bad("%s: %r" % (label, row))


def percentile(values, q):
    """Linear-interpolated q-th percentile (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# Neighbours on a shared host slow this process by up to ~1.8x for stretches
# of seconds, often for a whole run. The fastest of the repeated rounds
# tracks the program's own cost through that; the median does not (see
# WORKLOADS.md).

def wall_estimate(rounds):
    """Time to finish one round's fixed work: the sum over the round's parts
    of each part's fastest time across rounds."""
    return math.fsum(min(r.parts[part] for r in rounds)
                     for part in rounds[0].parts)


def layer_metrics(summaries, items):
    """Per-layer metrics from the traced rounds' span summaries."""
    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def mean(fn):
        return statistics.fmean(fn(s) for s in summaries)

    def layer(s, name, key):
        return s["layers"].get(name, {}).get(key, 0)

    def named(s, name, key):
        return s["names"].get(name, {}).get(key, 0.0)

    total_items = sum(items)

    def per_op(key):
        return sum(s["counts"][key] for s in summaries) / total_items

    m = {}
    for name in ("sampling", "stepfun", "envelopes", "report", "extremal",
                 "analysis"):
        m[name + ".calls"] = (mean(lambda s: layer(s, name, "calls")), "count")
        m[name + ".self_s"] = (med(lambda s: layer(s, name, "self_s")), "s")
    m["stepfun.intervals_per_op"] = (per_op("intervals"), "count/op")
    m["stepfun.errors"] = (mean(lambda s: s["errors"].get("stepfun", 0)), "count")
    m["envelopes.evals_per_op"] = (per_op("evals"), "count/op")
    m["powers.xpow_per_op"] = (per_op("xpow"), "count/op")
    m["oracle.builds"] = (mean(lambda s: layer(s, "oracle.build", "calls")), "count")
    m["oracle.curve_s"] = (med(lambda s: named(s, "BoundaryCurve.__init__", "total_s")), "s")
    m["oracle.build_s"] = (med(lambda s: layer(s, "oracle.build", "self_s")), "s")
    queries = mean(lambda s: layer(s, "oracle.query", "calls"))
    m["oracle.queries"] = (queries, "count")
    m["oracle.query_s"] = (med(lambda s: named(s, "EnvelopeOracle.evaluate", "total_s")), "s")
    points = mean(lambda s: s["counts"]["oracle_points"])
    m["oracle.points_per_call"] = (points / queries if queries else 0.0, "count")
    m["analysis.torsion_s"] = (med(lambda s: named(
        s, "analysis.torsion_sign_changes", "total_s")), "s")
    m["cli.self_s"] = (med(lambda s: layer(s, "cli", "self_s")), "s")
    m["cli.out_bytes"] = (mean(lambda s: s["out_bytes"]), "B")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=(
        "verify_pair", "table", "extremal_roundtrip", "oracle_certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    runner = Runner(args.workload, args.seed, args.out_dir)
    do_round = getattr(runner, "round_" + args.workload)
    tracer = Tracer() if args.trace else None

    plain, traced, summaries = [], [], []
    # Every round runs the same operations in the same order; keep each
    # one's fastest time, so memory does not grow with the operation count.
    best_ops = None
    attempted = 0
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        rnd = do_round()
        best_ops = rnd.op_times if best_ops is None else list(
            map(min, best_ops, rnd.op_times))
        attempted += len(rnd.op_times)
        rnd.op_times = None
        plain.append(rnd)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rnd = do_round()
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            summary["out_bytes"] = rnd.out_bytes
            summaries.append(summary)
            if not traced:
                tracer.write(os.path.join(
                    args.out_dir, "spans_%s.csv.gz" % args.workload))
            attempted += len(rnd.op_times)
            rnd.op_times = None
            traced.append(rnd)

    rounds = plain + traced
    failed = sum(r.failed for r in rounds)
    wrong = [w for r in rounds for w in r.wrong]
    failures = [f for r in rounds for f in r.failures]
    wrongs = sum(r.wrongs for r in rounds)
    result = {
        "workload": args.workload,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "inputs": (runner.inputs if args.workload != "extremal_roundtrip"
                   else "%d round trips from default_rng(%d)"
                   % (len(runner.inputs), args.seed)),
        "items_per_round": plain[0].items,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrongs,
        "wrong_examples": wrong[:MAX_NOTES],
        "failure_examples": failures[:MAX_NOTES],
        "sha256_round0": plain[0].digests,
        "part_s_rounds": {part: [r.parts[part] for r in plain]
                          for part in plain[0].parts},
        "wall_s": wall_estimate(plain),
        "op_us_percentiles": {q: 1e6 * percentile(best_ops, q)
                              for q in (10, 50, 90, 99)},
        "op_us_p90": 1e6 * percentile(best_ops, 90),
        "out_bytes_round0": plain[0].out_bytes,
        "extra": {key: max(r.extra[key] for r in rounds)
                  for key in plain[0].extra},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "lpenv": lpenv.__version__},
    }
    if tracer is not None:
        untraced = wall_estimate(plain)
        traced_wall = wall_estimate(traced)
        layers = layer_metrics(summaries, [r.items for r in traced])
        layers["trace.overhead_s"] = (traced_wall - untraced, "s")
        layers["trace.overhead_ratio"] = ((traced_wall - untraced) / untraced,
                                          "ratio")
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        result["traced_wall_s"] = traced_wall
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
