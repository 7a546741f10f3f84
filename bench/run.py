"""The lpenv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Workloads: verify_pair, table,
extremal_roundtrip, oracle_certify (see WORKLOADS.md). The workload runs
in its own process (workloads.py) with the package imported from src/ and
every BLAS/OpenMP pool limited to one thread. With --trace 0 the run also
times fresh interpreters importing lpenv.cli (setup_s).

Prints each metric by name and unit, a ``record:`` line with the machine,
library versions, seeds and output digests, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The record is also
written to .bench_out/. Exit status 0 only when every output passed its
correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify_pair", "table", "extremal_roundtrip", "oracle_certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_TRIALS = 5
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
CRITERION2_PAIRS = 100_000
CRITERION2_GATE_S = 60.0


def bench_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_times(env):
    """Wall time of fresh interpreters importing lpenv.cli."""
    times = []
    for _ in range(SETUP_TRIALS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import lpenv.cli"],
                              env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("import lpenv.cli failed: %s"
                               % proc.stderr.decode().strip())
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lpenv", "__init__.py")):
        print("error: src/lpenv not found under %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = bench_env()
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in %d s" % CHILD_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("error: workload process exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0))},
        "versions": res.pop("versions"),
        "threads": {var: env[var] for var in THREAD_VARS},
        **res,
    }
    attempted, failed = res["attempted"], res["failed"]
    record["fail_rate"] = failed / attempted
    if args.trace:
        metrics = record.pop("per_layer")
    else:
        try:
            setup = setup_times(env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        record["setup_s_trials"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_us_p90": {"value": res["op_us_p90"], "unit": "us"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        if args.workload == "verify_pair":
            us_per_pair = 1e6 * res["wall_s"] / res["items_per_round"]
            record["criterion2"] = {
                "us_per_pair": us_per_pair,
                "projected_s": us_per_pair * CRITERION2_PAIRS / 1e6,
                "gate_s": CRITERION2_GATE_S,
            }
    correct = res["wrong"] == 0
    record["correct"] = correct
    record["metrics"] = metrics

    print("workload %s  seed %d  trace %d  rounds %d  %s"
          % (args.workload, args.seed, args.trace, res["rounds"],
             "correct" if correct else "WRONG"))
    for name, m in metrics.items():
        print("  %-26s %.6g %s" % (name, m["value"], m["unit"]))
    print("  %-26s %.6g ratio  (%d failed of %d attempted)"
          % ("fail_rate", record["fail_rate"], failed, attempted))
    if "criterion2" in record:
        c2 = record["criterion2"]
        print("  criterion 2: %.1f us/pair x 10^5 pairs = %.2f s (gate %.0f s)"
              % (c2["us_per_pair"], c2["projected_s"], c2["gate_s"]))
    for msg in res["wrong_examples"]:
        print("  wrong: %s" % msg)
    for msg in res["failure_examples"]:
        print("  failed: %s" % msg)
    with open(os.path.join(OUT_DIR, "%s_seed%d_trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
