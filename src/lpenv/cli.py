"""Command-line front end.

Subcommands: bound, extremal, verify, table, oracle-compare. All floating
output is printed with 17 significant digits; exit status is 0 on pass,
1 on an inequality/suite violation, 2 on invalid input, overflow or MemoryError.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import suites
from .envelopes import (ConeTriple, carlen_bound, classify, envelope_arrays,
                        eval_F, eval_G, lower_envelope, upper_envelope)
from .extremal import extremal_F, extremal_G
from .oracle import EnvelopeOracle
from .stepfun import StepFunction, sum_and_report, sum_norm


def fmt(v):
    return format(float(v), ".17g")


def _texts(*columns):
    """The "%.17g" text of each entry of the float64 arrays ``columns``, one list
    per column. Each distinct value is formatted once, keyed by its bits: float
    keys would take -0.0 for 0.0 and print 0 where -0 belongs."""
    keys, at = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    texts = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).split("\n")
    ends = np.cumsum([len(c) for c in columns])[:-1]
    return [[texts[i] for i in part.tolist()] for part in np.split(at, ends)]


def _dump(obj):
    print(json.dumps(obj, indent=2, default=lambda v: float(v)))


def cmd_bound(args):
    p = classify(args.p)
    if args.files and args.triple:
        raise ValueError("give x y z or --files F G, not both")
    if args.files:
        f, g = (StepFunction.from_json(Path(a).read_text()) for a in args.files)
        report = sum_and_report(f, g, p)
        _dump(report.to_dict())
        return 0 if report.ok() else 1
    if len(args.triple) != 3:
        raise ValueError("need x y z or --files F G")
    # with only a triple there is no actual norm; report the bounds there
    t = ConeTriple(*args.triple)
    _dump({
        "p": p.p,
        "triple": {"x": t.x, "y": t.y, "z": t.z},
        "upper": upper_envelope(p, t),
        "lower": lower_envelope(p, t),
        "carlen": carlen_bound(p, t),
    })
    return 0


def cmd_extremal(args):
    p = classify(args.p)
    t = ConeTriple(*args.triple)
    if args.which == "F":
        f, g = extremal_F(p, t)
        target = eval_F(p, t)
    else:
        f, g = extremal_G(p, t)
        target = eval_G(p, t)
    achieved = sum_norm(f, g, p.p)
    out = {
        "f": json.loads(f.to_json()),
        "g": json.loads(g.to_json()),
        "achieved": achieved,
        "target": target,
    }
    _dump(out)
    dev = abs(achieved - target) / max(1.0, abs(target))
    return 0 if dev <= 1e-9 else 1


def cmd_verify(args):
    violations, worst = 0, 0.0
    if args.suite in ("pair", "sum") and args.samples < 1:
        raise ValueError("--samples must be positive, got %d" % args.samples)
    if args.suite in ("pair", "sum") and args.seed < 0:
        raise ValueError("--seed must be non-negative, got %d" % args.seed)
    if args.suite == "pair":
        violations, worst = suites.pair_sweep(args.seed, args.samples)
    elif args.suite == "sum" and args.p_neg:
        lhs, rhs = suites.p_neg_counterexample()
        print("p=-1 three unit constants: lhs=%s bound=%s lhs<=bound: %s"
              % (fmt(lhs), fmt(rhs), lhs <= rhs))
        # the counterexample is reproduced when the bound FAILS
        violations, worst = (0 if lhs > rhs else 1), lhs - rhs
    elif args.suite == "sum":
        violations, worst = suites.sum_sweep(args.seed, args.samples)
    elif args.suite == "analysis":
        for p_val, v_ok, g_ok, h_ok in suites.sign_tables():
            ok = v_ok and g_ok and h_ok
            violations += not ok
            print("p=%s  v:%s g:%s h'':%s  %s"
                  % (fmt(p_val), "ok" if v_ok else "FAIL",
                     "ok" if g_ok else "FAIL", "ok" if h_ok else "FAIL",
                     "pass" if ok else "VIOLATION"))
        for p_val, rep, ok in suites.torsion_checks():
            violations += not ok
            print("torsion p=%s: count=%d location=%s direction=%s  %s"
                  % (fmt(p_val), rep.count, fmt(rep.location), rep.direction,
                     "pass" if ok else "VIOLATION"))
    else:  # oracle
        for p_val, kind, err in suites.oracle_errors(args.n):
            worst = np.maximum(worst, err)  # a NaN error stays worst
            violations += not err <= suites.ORACLE_TOL
            print("p=%s %s: max rel err %s" % (fmt(p_val), kind, fmt(err)))
    print("violations=%d worst_margin=%s" % (violations, fmt(worst)))
    return 1 if violations else 0


def _write_csv(rows, out):
    """Write the CSV lines to the file ``out``, or to stdout when unset."""
    text = "\n".join(rows) + "\n"
    if out:
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)
    return 0


def cmd_table(args):
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    ps = [classify(float(v)) for v in args.p_list.split(",")]
    rows = ["p,s,z,F,G,upper,lower,carlen"]
    s = np.repeat(np.linspace(-1.0, 1.0, args.grid), args.grid)
    zmax = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    z = np.tile(np.linspace(0.0, 1.0, args.grid), args.grid) * zmax
    # s and z are formatted once for every exponent, F and G again serve as the
    # upper and lower columns; one exponent's columns at a time bound the memory
    sz = list(map(",".join, zip(*_texts(s, z))))
    for p in ps:
        F, G, _, _, C = envelope_arrays(p, 1.0 + s, 1.0 - s, z)
        F, G, C = _texts(F, G, C)
        upper, lower = (F, G) if p.f_is_concave else (G, F)
        rows += map(",".join, zip([fmt(p.p)] * len(sz), sz, F, G, upper, lower, C))
    return _write_csv(rows, args.out)


def cmd_oracle_compare(args):
    if args.grid < 3:  # interior_grid holds no point below 3
        raise ValueError("--grid must be at least 3, got %d" % args.grid)
    oc = EnvelopeOracle(classify(args.p), args.n)
    s, z, cf = suites.closed_columns(oc.curve.p, args.kind, args.grid)  # formatted while it builds
    texts = _texts(s, z, cf)
    ov = oc.evaluate(s, z, args.kind)
    texts += _texts(ov, np.abs(ov - cf))
    rows = map(",".join, zip([fmt(oc.curve.p.p)] * len(s), *texts, ["%d" % args.n] * len(s)))
    return _write_csv(["p,s,z,closed_form,oracle,abs_err,N", *rows], args.out)


def build_parser():
    ap = argparse.ArgumentParser(prog="lpenv")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate the bounds at a triple or a pair of files")
    b.add_argument("-p", type=float, required=True)
    b.add_argument("triple", nargs="*", type=float)
    b.add_argument("--files", nargs=2, metavar=("F", "G"))
    b.set_defaults(func=cmd_bound)

    e = sub.add_parser("extremal", help="construct an equality-achieving pair")
    e.add_argument("-p", type=float, required=True)
    e.add_argument("triple", nargs=3, type=float)
    e.add_argument("--which", choices=("F", "G"), required=True)
    e.set_defaults(func=cmd_extremal)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=("pair", "sum", "analysis", "oracle"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--n", type=int, default=512)
    v.add_argument("--p-neg", action="store_true",
                   help="reproduce the p<0 many-function counterexample")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="sample the envelopes over a grid, CSV out")
    t.add_argument("--p-list", required=True)
    t.add_argument("--grid", type=int, default=16)
    t.add_argument("--out")
    t.set_defaults(func=cmd_table)

    o = sub.add_parser("oracle-compare", help="closed form vs numerical oracle, CSV out")
    o.add_argument("-p", type=float, required=True)
    o.add_argument("--kind", choices=("concave", "convex"), default="concave")
    o.add_argument("--n", type=int, default=512)
    o.add_argument("--grid", type=int, default=20)
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle_compare)
    return ap


def main(argv=None):
    words = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(words) - 1)):  # argparse reads "-1e-3" as an option
        flag, value = words[i], words[i + 1]  # --p-lis, --p, ...: --p-list, joined before a number
        if value.startswith("-") and (flag in ("-p", "--p-list") or re.match(r"-\.?\d", value)
                                       and flag.startswith("--p") and "--p-list".startswith(flag)):
            words[i:i + 2] = [flag + "=" + value]
    args = build_parser().parse_args(words)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
