"""Span recorder for the traced benchmark run.

The package is not instrumented. Instead, while a ``Tracer`` is installed,
every public function of each layer is replaced, in every ``lpenv`` module
namespace that binds it (``lpenv.cli.sum_and_report``,
``lpenv.stepfun.triple_of_pair``, ...), by a wrapper that records a span
when the call crosses into that layer from another one. Calls inside a
layer pass straight through and add no span, so a layer's self time is the
sum over its spans of duration minus the time covered by child spans.

A span is ``(name, layer, start, end, parent, status)``; ``parent`` is the
index of the enclosing span or -1. Spans stay in memory until ``reset``.
Counters (xpow calls, formula evaluations, refinement intervals, oracle
query points, ValueErrors) are kept alongside; ``xpow`` is counted only,
never timed, because it runs millions of times.
"""

import gzip
import sys
from time import perf_counter

OK, VALUE_ERROR, RAISED = "ok", "value_error", "raised"

# layer -> (module, public functions). Names missing from the module are
# skipped, so a later refactor that deletes one does not break the tracer.
FUNCTIONS = {
    "sampling": ("lpenv.sampling", (
        "substreams", "random_step_function", "random_pair", "random_triple")),
    "stepfun": ("lpenv.stepfun", (
        "refine", "pth_power_norm", "overlap_norm", "triple_of_pair",
        "sum_norm", "sum_and_report")),
    "envelopes": ("lpenv.envelopes", (
        "classify", "eval_F", "eval_G", "upper_envelope", "lower_envelope",
        "carlen_bound", "two_point", "scalar_three_term", "sum_bound")),
    "extremal": ("lpenv.extremal", (
        "extremal_F", "extremal_G", "extremal_G_pos", "extremal_G_neg")),
    "oracle": ("lpenv.oracle", (
        "boundary_value", "oracle_envelope", "empirical_B")),
    "analysis": ("lpenv.analysis", (
        "v_fn", "g_fn", "h_fn", "h_fn_d1", "h_fn_d2", "h_tilde_fn",
        "h_tilde_fn_d1", "h_tilde_fn_d2", "sign_of", "torsion_sign_changes")),
    "cli": ("lpenv.cli", ("main",)),
}

# (module, class, method, layer). The oracle's phases are layers of their
# own so that the curve, the hull build and the queries get separate spans.
METHODS = (
    ("lpenv.envelopes", "BoundReport", "at", "report"),
    ("lpenv.oracle", "BoundaryCurve", "__init__", "oracle.curve"),
    ("lpenv.oracle", "EnvelopeOracle", "__init__", "oracle.build"),
    ("lpenv.oracle", "EnvelopeOracle", "evaluate", "oracle.query"),
)

# Formula evaluations counted even when called from inside the layer.
EVALS = ("eval_F", "eval_G", "carlen_bound")


def _intervals(args):
    """Intervals of the common refinement of the step-function arguments."""
    bps = [a.breakpoints for a in args[:2] if hasattr(a, "breakpoints")]
    if not bps:
        return 0
    return len(set().union(*bps)) - 1


def _points(args):
    s = args[1]  # evaluate(self, s, z)
    return getattr(s, "size", 1)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {"xpow": 0, "evals": 0, "intervals": 0,
                       "oracle_points": 0}
        self.errors = {}
        self._stack = [-1]
        self._layers = [None]
        self._swaps = []  # (owner, attribute, original, replacement)
        self._build()

    def reset(self):
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0
        self.errors.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, layer, count=None, on_exit=None):
        spans, stack, layers = self.spans, self._stack, self._layers
        counts, errors = self.counts, self.errors

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            layers.append(layer)
            status = RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                status = OK
                return result
            except ValueError:
                status = VALUE_ERROR
                errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                layers.pop()
                spans[idx] = (name, layer, start, end, parent, status)
                if on_exit is not None:
                    on_exit(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self):
        counts = self.counts
        originals = {}  # id(original) -> (original, replacement)
        plan = []
        for layer, (modname, names) in FUNCTIONS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                on_exit = None
                if layer == "stepfun":
                    def on_exit(args):
                        counts["intervals"] += _intervals(args)
                count = "evals" if name in EVALS else None
                originals[id(fn)] = (fn, self._span(
                    fn, "%s.%s" % (layer, name), layer, count, on_exit))
        xpow = sys.modules["lpenv.powers"].xpow
        originals[id(xpow)] = (xpow, self._counter(xpow, "xpow"))
        # every lpenv module namespace that binds one of the originals
        for modname, mod in list(sys.modules.items()):
            if modname != "lpenv" and not modname.startswith("lpenv."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    plan.append((mod, attr, val, hit[1]))
        for modname, clsname, meth, layer in METHODS:
            cls = getattr(sys.modules[modname], clsname, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            on_exit = None
            if layer == "oracle.query":
                def on_exit(args):
                    counts["oracle_points"] += _points(args)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._span(
                    raw.__func__, "%s.%s" % (clsname, meth), layer))
            else:
                new = self._span(raw, "%s.%s" % (clsname, meth), layer,
                                 on_exit=on_exit)
            plan.append((cls, meth, raw, new))
        self._swaps = plan

    def install(self):
        for owner, attr, _, new in self._swaps:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in self._swaps:
            setattr(owner, attr, old)

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per-layer totals of the spans recorded since the last reset."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, layer, start, end, parent, status in spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {}
        by_name = {}
        for i, (name, layer, start, end, parent, status) in enumerate(spans):
            dur = end - start
            self_s = dur - covered[i]
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            named = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            named["calls"] += 1
            named["total_s"] += dur
            named["self_s"] += self_s
        return {"layers": layers, "names": by_name,
                "counts": dict(self.counts), "errors": dict(self.errors)}

    def write(self, path):
        """Write the recorded spans as gzip CSV, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,layer,start_s,end_s,parent,status\n")
            for i, (name, layer, start, end, parent, status) in enumerate(
                    self.spans):
                fh.write("%d,%s,%s,%.9f,%.9f,%d,%s\n" % (
                    i, name, layer, start - t0, end - t0, parent, status))
