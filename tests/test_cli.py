import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpenv
from lpenv import suites
from lpenv.cli import _texts, fmt, main
from lpenv.envelopes import (ConeTriple, carlen_bound, classify, eval_F,
                             eval_G, lower_envelope, upper_envelope)
from lpenv.oracle import EnvelopeOracle
from lpenv.stepfun import StepFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_triple_p2(self, capsys):
        code, out, _ = run(capsys, "bound", "-p", "2", "1", "1", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["upper"] == pytest.approx(3.0)
        assert obj["lower"] == pytest.approx(3.0)

    def test_triple_p15(self, capsys):
        code, out, _ = run(capsys, "bound", "-p", "1.5", "1", "1", "0.5")
        assert code == 0
        assert json.loads(out)["upper"] == pytest.approx(2.414213562373095)

    def test_p_zero_exit2(self, capsys):
        code, _, err = run(capsys, "bound", "-p", "0", "1", "1", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, power", [
        # the power sum overflows at p = -0.001: an error, not a violated bound
        (["-p", "-0.001", "1", "1", "0.01"], "** -1000.0 overflows"),
        # a value of 1e200 overflows its p-th power at p = 2
        (["-p", "2", "--files", "BIG", "ONE"], "1e+200 ** 2.0 overflows"),
    ], ids=["triple", "files"])
    def test_overflow_exit2(self, tmp_path, capsys, argv, power):
        files = {"BIG": StepFunction.constant(1e200),
                 "ONE": StepFunction.constant(1.0)}
        for name, f in files.items():
            (tmp_path / name).write_text(f.to_json())
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        code, _, err = run(capsys, "bound", *argv)
        assert code == 2
        assert err.startswith("error:")
        assert power in err

    def test_tiny_functions_overlap(self, tmp_path, capsys):
        """Two constants 1e-200 at p = 0.01: f * g underflows to 0, and the
        overlap is f^(p/2) g^(p/2) = 0.01, so no bound is violated (exit 0)."""
        fp = tmp_path / "t.json"
        fp.write_text('{"breakpoints": [0, 1], "values": [1e-200]}')
        code, out, _ = run(capsys, "bound", "-p", "0.01", "--files", str(fp), str(fp))
        assert code == 0
        assert json.loads(out)["triple"]["z"] == pytest.approx(0.01, rel=1e-12)

    def test_cauchy_schwarz_violation_exit2(self, capsys):
        code, _, _ = run(capsys, "bound", "-p", "2", "1", "1", "5")
        assert code == 2

    def test_cauchy_schwarz_violation_overflowing_product_exit2(self, capsys):
        # x*y overflows to inf; z = 10 sqrt(xy) is still outside the cone
        code, out, err = run(capsys, "bound", "-p", "3", "1e200", "1e200", "1e201")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Cauchy-Schwarz" in err

    def test_files(self, tmp_path, capsys):
        fp = tmp_path / "f.json"
        gp = tmp_path / "g.json"
        fp.write_text(StepFunction((0.0, 0.5, 1.0), (2.0, 0.0)).to_json())
        gp.write_text(StepFunction.constant(1.0).to_json())
        code, out, _ = run(capsys, "bound", "-p", "3", "--files", str(fp), str(gp))
        assert code == 0
        obj = json.loads(out)
        assert obj["actual"] == pytest.approx(14.0)
        assert all(m >= -1e-9 for m in obj["margins"].values())

    def test_triple_and_files_exit2(self, tmp_path, capsys):
        """A triple next to --files is rejected, not silently dropped."""
        fp = tmp_path / "one.json"
        fp.write_text(StepFunction.constant(1.0).to_json())
        code, out, err = run(capsys, "bound", "-p", "3", "5", "5", "1",
                             "--files", str(fp), str(fp))
        assert code == 2
        assert out == ""
        assert err == "error: give x y z or --files F G, not both\n"

    def test_short_triple_exit2(self, capsys):
        code, out, err = run(capsys, "bound", "-p", "3", "1", "1")
        assert code == 2
        assert out == ""
        assert err == "error: need x y z or --files F G\n"

    def test_infinite_norm_exit2(self, tmp_path, capsys):
        """f = (1, +inf) on [0, 1/2), [1/2, 1]: |f|_2^2 is +inf, and the
        message names the field that ConeTriple rejects."""
        fp = tmp_path / "f.json"
        gp = tmp_path / "g.json"
        fp.write_text(StepFunction((0.0, 0.5, 1.0), (1.0, math.inf)).to_json())
        gp.write_text(StepFunction.constant(2.0).to_json())
        code, out, err = run(capsys, "bound", "-p", "2", "--files", str(fp), str(gp))
        assert code == 2
        assert out == ""
        assert err == "error: x must be a finite nonnegative real, got inf\n"

    def test_malformed_json_exit2(self, tmp_path, capsys):
        fp = tmp_path / "f.json"
        fp.write_text("{not json")
        code, _, _ = run(capsys, "bound", "-p", "2", "--files", str(fp), str(fp))
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"breakpoints": [0, 1]}',
        '[0, 1]',
        '{"breakpoints": [0, 1], "values": [null]}',
        '{"breakpoints": null, "values": [1]}',
        '{"breakpoints": [0, 1], "values": 3}',
        '{"breakpoints": [0, NaN, 1], "values": [1, 2]}',
        '{"breakpoints": "01", "values": [true]}',
        '{"breakpoints": [0, 1], "values": ["2"]}',
    ], ids=["missing-values", "list", "null-value", "null-breakpoints",
            "number-values", "nan-breakpoint", "string-and-bool",
            "string-value"])
    def test_malformed_step_function_exit2(self, tmp_path, capsys, text):
        # paired with a valid g, so the error must come from f
        fp = tmp_path / "f.json"
        gp = tmp_path / "g.json"
        fp.write_text(text)
        gp.write_text(StepFunction.constant(1.0).to_json())
        code, _, err = run(capsys, "bound", "-p", "2", "--files", str(fp), str(gp))
        assert code == 2
        assert err.startswith("error:")


class TestExtremal:
    def test_f_pair(self, capsys):
        code, out, _ = run(capsys, "extremal", "-p", "2", "--which", "F",
                           "1", "1", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["achieved"] == pytest.approx(3.0, rel=1e-12)
        assert obj["target"] == pytest.approx(3.0, rel=1e-12)

    def test_g_pair_negative_p_serializes_inf(self, capsys):
        code, out, _ = run(capsys, "extremal", "-p", "-1", "--which", "G",
                           "1", "1", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert "inf" in obj["f"]["values"] or "inf" in obj["g"]["values"]
        assert obj["achieved"] == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("z", ["1e300", "1e299"])
    def test_f_pair_huge_triple(self, capsys, z):
        code, out, _ = run(capsys, "extremal", "-p", "3", "--which", "F",
                           "1e300", "1e300", z)
        assert code == 0
        obj = json.loads(out)
        assert obj["achieved"] == pytest.approx(obj["target"], rel=1e-9)


def p_neg_summary():
    lhs, rhs = suites.p_neg_counterexample()
    return (0 if lhs > rhs else 1), lhs - rhs


def analysis_summary():
    signs = sum(not (v and g and h) for _, v, g, h in suites.sign_tables())
    torsion = sum(not ok for _, _, ok in suites.torsion_checks())
    return signs + torsion, 0.0


def oracle_summary(n):
    # a NaN error is a violation and the worst error
    errs = [err for _, _, err in suites.oracle_errors(n)]
    return sum(not err <= suites.ORACLE_TOL for err in errs), np.max(errs)


ANALYSIS_STDOUT = """\
p=-2  v:ok g:ok h'':ok  pass
p=-0.5  v:ok g:ok h'':ok  pass
p=0.5  v:ok g:ok h'':ok  pass
p=0.90000000000000002  v:ok g:ok h'':ok  pass
p=1.3  v:ok g:ok h'':ok  pass
p=1.7  v:ok g:ok h'':ok  pass
p=2.5  v:ok g:ok h'':ok  pass
p=4  v:ok g:ok h'':ok  pass
torsion p=-1: count=1 location=* direction=plus_to_minus  pass
torsion p=0.5: count=1 location=* direction=minus_to_plus  pass
torsion p=1.5: count=1 location=* direction=plus_to_minus  pass
torsion p=3: count=1 location=* direction=minus_to_plus  pass
violations=0 worst_margin=0
"""


class TestVerify:
    @pytest.mark.parametrize("argv, expect", [
        (["pair", "--seed", "5", "--samples", "44"],
         lambda: suites.pair_sweep(5, 44)),
        (["sum", "--seed", "5", "--samples", "14"],
         lambda: suites.sum_sweep(5, 14)),
        (["sum", "--p-neg"], p_neg_summary),
        (["analysis"], analysis_summary),
        (["oracle", "--n", "64"], lambda: oracle_summary(64)),
    ], ids=["pair", "sum", "sum-p-neg", "analysis", "oracle"])
    def test_summary_line_from_suites(self, capsys, argv, expect):
        _, out, _ = run(capsys, "verify", *argv)
        violations, worst = expect()
        assert out.splitlines()[-1] == "violations=%d worst_margin=%s" % (
            violations, format(float(worst), ".17g"))

    def test_pair_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "pair", "--seed", "7",
                           "--samples", "1100")
        assert code == 0
        assert "violations=0" in out

    def test_pair_nan_margin_exit1(self, capsys, monkeypatch):
        """A NaN upper bound gives NaN margins: each one is a violation."""
        arrays = suites.envelope_arrays

        def nan_upper(p, x, y, z):
            F, G, upper, lower, C = arrays(p, x, y, z)
            return F, G, np.full_like(upper, np.nan), lower, C

        monkeypatch.setattr(suites, "envelope_arrays", nan_upper)
        code, out, _ = run(capsys, "verify", "pair", "--seed", "7",
                           "--samples", "110")
        assert code == 1
        assert out == "violations=110 worst_margin=nan\n"

    def test_oracle_nan_error_exit1(self, capsys, monkeypatch):
        """A NaN oracle value gives a NaN error: each one is a violation."""
        monkeypatch.setattr(suites.EnvelopeOracle, "evaluate",
                            lambda self, s, z, kind: np.full(np.shape(s), np.nan))
        code, out, _ = run(capsys, "verify", "oracle", "--n", "64")
        assert code == 1
        assert out.splitlines()[-1] == "violations=%d worst_margin=nan" % (
            2 * len(suites.P_GRID))

    def test_sum_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "sum", "--seed", "3",
                           "--samples", "70")
        assert code == 0

    def test_sum_p_neg_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "sum", "--p-neg")
        assert code == 0
        assert "lhs=0.33333333333333331" in out
        assert "bound=-1.5" in out

    def test_analysis_suite(self, capsys):
        """The sign tables and the summary byte for byte; the torsion lines'
        location digits are rounding values, so they are masked."""
        code, out, _ = run(capsys, "verify", "analysis")
        assert code == 0
        assert re.sub(r" location=\S+ ", " location=* ", out) == ANALYSIS_STDOUT

    def test_oracle_suite(self, capsys):
        # the 2e-2 accuracy target is calibrated for n = 512
        code, out, _ = run(capsys, "verify", "oracle", "--n", "512")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["pair", "--samples", "0"], ["pair", "--samples", "-5", "--seed", "3"],
        ["sum", "--samples", "0"], ["sum", "--samples", "-1"],
    ], ids=["pair-zero", "pair-negative", "sum-zero", "sum-negative"])
    def test_nonpositive_samples_exit2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "samples must be positive" in err

    @pytest.mark.parametrize("suite", ["pair", "sum"])
    def test_negative_seed_exit2(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "pair", "--seed", "42",
                         "--samples", "500")
        _, out2, _ = run(capsys, "verify", "pair", "--seed", "42",
                         "--samples", "500")
        assert out1 == out2


def each_text(columns):
    return [["%.17g" % v for v in c.tolist()] for c in columns]


# signed zeros, which a float key would merge, and values that repeat
TEXT_POOL = [0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, math.nan, -math.nan,
             math.inf, -math.inf, 5e-324, -5e-324, 1e-300, 1e308]


class TestTexts:
    def test_edge_values(self):
        columns = [np.array(c, dtype=float) for c in (
            [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300],
            [-0.0, 1e-300, 0.0, 5e-324, 1.5, 1.5],
            [],
            [math.nan, -math.inf, 0.0, -0.0],
        )]
        texts = _texts(*columns)
        assert texts == each_text(columns)
        assert texts[0][:2] == ["0", "-0"] and texts[1][:3] == ["-0", "1e-300", "0"]
        assert texts[1][3] == "4.9406564584124654e-324" and texts[2] == []

    @given(st.lists(st.lists(st.sampled_from(TEXT_POOL), max_size=40),
                    min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_matches_each_entry(self, values):
        columns = [np.array(c, dtype=float) for c in values]
        assert _texts(*columns) == each_text(columns)


def ref_table(p_list, grid):
    """The table CSV one point at a time through the scalar functions."""
    rows = ["p,s,z,F,G,upper,lower,carlen"]
    for p in [classify(float(v)) for v in p_list.split(",")]:
        for s in np.linspace(-1.0, 1.0, grid):
            zmax = math.sqrt(max(0.0, 1.0 - s * s))
            for frac in np.linspace(0.0, 1.0, grid):
                z = frac * zmax
                t = ConeTriple(1.0 + s, 1.0 - s, z)
                rows.append(",".join(fmt(v) for v in (
                    p.p, s, z, eval_F(p, t), eval_G(p, t),
                    upper_envelope(p, t), lower_envelope(p, t),
                    carlen_bound(p, t),
                )))
    return "\n".join(rows) + "\n"


P_GRID_LIST = ",".join(format(p, "g") for p in suites.P_GRID)


class TestTable:
    @pytest.mark.parametrize("grid", [2, 7, 32])
    @pytest.mark.parametrize("p_list", [
        "-0.05", "0.05", "1", "2", "-50", "50", P_GRID_LIST])
    def test_matches_scalar_table(self, capsys, p_list, grid):
        code, out, _ = run(capsys, "table", "--p-list=" + p_list,
                           "--grid", str(grid))
        assert code == 0
        assert out == ref_table(p_list, grid)

    def test_repeated_exponent(self, capsys):
        code, out, _ = run(capsys, "table", "--p-list=3,3", "--grid", "7")
        assert code == 0
        assert out == ref_table("3,3", 7)

    @pytest.mark.parametrize("grid", [2, 3])
    def test_mixed_regimes_edge_grids(self, capsys, grid):
        """Every row of grids 2 and 3 is an edge case: x = 0, y = 0, z = 0
        or z on the Cauchy-Schwarz bound."""
        p_list = "3,-1,1.5,0.5,-0.02,0.02,50,-50,1,2"
        code, out, _ = run(capsys, "table", "--p-list=" + p_list,
                           "--grid", str(grid))
        assert code == 0
        assert out == ref_table(p_list, grid)

    def test_out_file_bytes_equal_stdout(self, tmp_path, capsys):
        args = ("table", "--p-list=-1,1.5,3", "--grid", "9")
        _, out, _ = run(capsys, *args)
        code, printed, _ = run(capsys, *args, "--out", str(tmp_path / "t.csv"))
        assert code == 0 and printed == ""
        assert (tmp_path / "t.csv").read_bytes() == out.encode()

    def test_overflow_with_out_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--p-list=-0.001", "--grid", "7",
                           "--out", str(path))
        assert code == 2
        assert out == ""
        assert not path.exists()

    def test_overflow_exit2(self, capsys):
        code, out, err = run(capsys, "table", "--p-list=-0.001", "--grid", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "** -1000.0 overflows" in err

    def test_csv_columns_and_values(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(capsys, "table", "--p-list", "1.5,3", "--grid", "5",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p,s,z,F,G,upper,lower,carlen"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["p"]) == 1.5
        # s = -1 corner: x = 0, y = 2
        assert float(row["s"]) == -1.0
        assert float(row["F"]) == pytest.approx(2.0)

    def test_negative_exponent_in_equals_form(self, capsys):
        # the "=" form, which argparse reads without main's join
        code, out, _ = run(capsys, "table", "--p-list=-1,1.5,3", "--grid", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 3 * 3 * 3
        assert [float(line.split(",")[0]) for line in lines[1::9]] == [
            -1.0, 1.5, 3.0]

    def test_grid_too_small_exit2(self, capsys):
        code, _, _ = run(capsys, "table", "--p-list", "2", "--grid", "1")
        assert code == 2

    def test_unwritable_path_exit2(self, capsys):
        code, _, err = run(capsys, "table", "--p-list", "2", "--grid", "3",
                           "--out", "/nonexistent-dir/t.csv")
        assert code == 2
        assert err.startswith("error:")

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "table", "--p-list", "1.5", "--grid", "6")
        _, out2, _ = run(capsys, "table", "--p-list", "1.5", "--grid", "6")
        assert out1 == out2


def ref_oracle_compare(p_val, kind, n, grid):
    """The oracle-compare CSV row by row: each row's floats through fmt."""
    p = classify(p_val)
    ss, zs, closed = suites.closed_columns(p, kind, grid)
    cols = (ss, zs, closed, EnvelopeOracle(p, n).evaluate(ss, zs, kind))
    rows = ["p,s,z,closed_form,oracle,abs_err,N"]
    for s, z, cf, ov in zip(*(c.tolist() for c in cols)):
        rows.append(",".join(
            fmt(v) for v in (p.p, s, z, cf, ov, abs(ov - cf))) + ",%d" % n)
    return "\n".join(rows) + "\n"


class TestOracleCompare:
    @pytest.mark.parametrize("p, kind, n, grid", [
        ("3", "concave", 256, 20), ("-1", "convex", 256, 20),
        ("1.5", "concave", 256, 20), ("3", "concave", 64, 3),
        ("-2", "concave", 256, 13),
        ("1.5", "concave", 2048, 40),  # a split scan: 1468 points, 32 rows a block
    ])
    def test_matches_row_by_row(self, capsys, p, kind, n, grid):
        code, out, _ = run(capsys, "oracle-compare", "-p", p, "--kind", kind,
                           "--n", str(n), "--grid", str(grid))
        assert code == 0
        assert out == ref_oracle_compare(float(p), kind, n, grid)

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "-p", "3", "--n", "64",
                           "--grid", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,s,z,closed_form,oracle,abs_err,N"
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            assert fields[-1] == "64"
            assert float(fields[5]) < 0.5

    def test_unwritable_path_exit2(self, capsys):
        code, _, err = run(capsys, "oracle-compare", "-p", "3", "--n", "64",
                           "--grid", "4", "--out", "/nonexistent-dir/o.csv")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("grid", ["0", "-2", "1", "2"])
    def test_empty_grid_exit2(self, capsys, grid):
        """A grid with no interior point is invalid input, not an empty CSV."""
        code, out, err = run(capsys, "oracle-compare", "-p", "3", "--n", "64",
                             "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == "error: --grid must be at least 3, got %s\n" % grid

    @pytest.mark.parametrize("p, kind", [("50", "concave"), ("45", "convex"),
                                         ("40", "concave")])
    def test_hull_out_of_qhull_reach_exit2(self, capsys, p, kind):
        """Where qhull builds no hull, or one with no facet of a kind, p is
        above the oracle's ceiling: the exit is 2 with a message naming p
        and the ceiling, not a traceback's 1."""
        code, out, err = run(capsys, "oracle-compare", "-p", p, "--kind", kind,
                             "--n", "64", "--grid", "3")
        assert code == 2
        assert out == ""
        assert err == "error: the oracle converges only for -21 <= p <= 26.5, got p = %s.0\n" % p

    @pytest.mark.parametrize("p", ["-25", "-30", "-100"])
    def test_below_floor_exit2(self, capsys, p):
        """Below p = -21 the boundary values are too small for the hull to
        resolve: the exit is 2 with a message naming p and the range."""
        code, out, err = run(capsys, "oracle-compare", "-p", p, "--n", "64",
                             "--grid", "3")
        assert code == 2
        assert out == ""
        assert err == "error: the oracle converges only for -21 <= p <= 26.5, got p = %s.0\n" % p

    def test_smallest_grid(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "-p", "3", "--n", "64",
                           "--grid", "3")
        assert code == 0
        assert len(out.splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "oracle", "--n", "1000000000000000"],
    ["oracle-compare", "-p", "3", "--n", "1000000000000000"],
    ["verify", "pair", "--samples", "100000000000000000"],
    ["verify", "sum", "--samples", "100000000000000000"],
], ids=["verify-oracle", "oracle-compare", "verify-pair", "verify-sum"])
def test_impossible_allocation_exit2(capsys, argv):
    """A request whose first array exceeds 2^47 bytes, a 47-bit address
    space, is exit 2 with numpy's message, not a traceback's 1; the
    allocation fails at once, so no memory is touched. (verify sum's first
    array is a case's size words, one per sum.)"""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_import_leaves_out_scipy_spatial():
    """scipy.spatial, and concurrent.futures with the hull-building thread,
    are loaded by the first hull build, not by the CLI."""
    src = os.path.dirname(os.path.dirname(lpenv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, lpenv.cli; print(sorted(m for m in sys.modules"
             " if m in ('concurrent.futures', 'scipy.spatial')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, twin", [
    (["bound", "-p", "-1e-1", "1", "1", "0.5"], ["bound", "-p", "-0.1", "1", "1", "0.5"]),
    (["extremal", "-p", "-2e-1", "--which", "G", "1", "1", "0.5"],
     ["extremal", "-p", "-0.2", "--which", "G", "1", "1", "0.5"]),
    (["oracle-compare", "-p", "-1e0", "--n", "16", "--grid", "3"],
     ["oracle-compare", "-p", "-1", "--n", "16", "--grid", "3"]),
    (["table", "--p-list", "-1,3", "--grid", "2"], ["table", "--p-list=-1,3", "--grid", "2"]),
    (["table", "--p-lis", "-1,3", "--grid", "2"], ["table", "--p-list=-1,3", "--grid", "2"]),
    (["table", "--grid", "2", "--p", "-.5e0"], ["table", "--p-list=-0.5", "--grid", "2"]),
    (["verify", "sum", "--p-", "--seed", "3", "--samples", "70"], ["verify", "sum", "--p-neg"]),
    (["verify", "sum", "--p-n"], ["verify", "sum", "--p-neg"]),
], ids=["bound", "extremal", "oracle-compare", "table", "table-abbreviated", "table-p",
        "verify-p-", "verify-p-n"])
def test_negative_exponent_in_e_notation(capsys, argv, twin):
    """argparse reads "-1e-1" or "-1,3" after a flag as an option, not a value
    (its negative-number pattern has no exponent or list form); main joins it
    to the flag, or to an abbreviation of --p-list, so it prints its decimal
    twin's bytes. "--p-" also abbreviates verify's --p-neg, which takes no
    value, so an abbreviation is joined only before a number."""
    code, out, _ = run(capsys, *twin)
    given = list(argv)
    assert (main(given), capsys.readouterr().out) == (code, out)
    assert code == 0 and given == argv  # main leaves the caller's list as it was


def test_module_entry_point():
    """``python -m lpenv.cli`` exits with main's code: 0 with the bound's JSON,
    2 with an error line for a triple of two numbers."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lpenv.__file__)))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "lpenv.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    ok = cli("bound", "-p", "-1e-1", "1", "1", "0.5")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout) == {
        "p": -0.1, "triple": {"x": 1.0, "y": 1.0, "z": 0.5},
        "upper": 0.4665164957684037, "lower": 0.13397459621551258,
        "carlen": 4.768366579815393e-07}
    bad = cli("bound", "-p", "3", "1", "1")
    assert bad.returncode == 2
    assert (bad.stdout, bad.stderr) == ("", "error: need x y z or --files F G\n")
