"""Layer tracing applied from outside the g2trac package.

`Tracer.install()` replaces chosen functions and methods of the g2trac
modules with timing wrappers; `Tracer.uninstall()` puts every original
object back.  No file of the package is edited.

* A function is wrapped under every name that refers to it in any g2trac
  module or class, so names bound at import (`from .linalg import
  inverse_laurent` in `frames`, `matrix_signature` in `tensors`, the
  names `verify` takes from `geometry` and `tractor`) and class aliases
  (`__radd__ = __add__`, `__rmul__ = __mul__`) are traced too.
* Calls of public functions become spans (name, start, end, parent, item)
  kept in memory and written out by `write_spans` when the run ends.
* Arithmetic dunders of `QScalar` and `CoeffFn` run more than a million
  times per full battery, so they make no spans: each call adds to
  per-layer totals and to a counter on the enclosing span.
* Self time is a call's duration minus the time of the traced calls
  inside it, dunders included, so the self times of all layers partition
  the traced wall time.
* The wrappers themselves cost time: inside the interval a wrapper times
  (its hook and bookkeeping) and outside it (entering the wrapper), which
  lands in the caller's interval.  `calibrate()` measures both per call by
  wrapping a no-op (`wrapper_cost`), and every wrapper subtracts them: the
  inside cost from its own self time, the outside cost from its caller's.
  The machine's speed drifts, so the cost is measured again before an
  item once it is a second old (`calibrate_if_stale`).  Self times then
  estimate untraced time; `trace.residual_frac` reports how far their sum
  is from the untraced pass.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

# (module, attribute, layer key).  Several attributes may share a key.
SPAN_TARGETS = [
    ("verify", "verify", "verify"),
    ("qm_family", "build_qm", "qm_family.build_qm"),
    ("tractor", "d_tractor_3form", "tractor.d_tractor_3form"),
    ("tractor", "tractor_metric_from_phi", "tractor.metric"),
    ("tractor", "tractor_metric_hhdef", "tractor.metric"),
    ("frames", "FrameChart.cov_deriv", "frames.cov_deriv"),
    ("frames", "FrameChart.curvature", "frames.curvature"),
    ("frames", "FrameChart.ricci", "frames.curvature"),
    ("frames", "FrameChart.schouten", "frames.curvature"),
    ("frames", "FrameChart.weyl", "frames.curvature"),
    ("frames", "FrameChart.cotton", "frames.curvature"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "signature", "linalg.signature"),
    ("linalg", "inverse_laurent", "linalg.inverse_laurent"),
    ("linalg", "det_perm", "linalg.det_perm"),
    ("tensors", "AltTensor.pullback", "tensors.pullback"),
    ("tensors", "AltTensor.wedge", "tensors.wedge"),
    ("tensors", "wedge", "tensors.wedge"),
    ("tensors", "contract", "tensors.contract"),
    ("stable_forms", "classify6", "stable_forms.classify6"),
    ("stable_forms", "metric_from_3form7", "stable_forms.metric_from_3form7"),
    ("octonions", "null_filtration", "octonions.null_filtration"),
    ("octonions", "NullFiltration.kernel_isotropic", "octonions.null_filtration"),
    ("octonions", "NullFiltration.chain_ok", "octonions.null_filtration"),
    ("octonions", "NullFiltration.mapping_ok", "octonions.null_filtration"),
    ("geometry", "npk_extract", "geometry.npk"),
    ("geometry", "npk_verify", "geometry.npk"),
    ("geometry", "compactness_check", "geometry.compactness_check"),
    ("geometry", "stratify", "geometry.stratify"),
    ("boundary", "restrict_to_zero_locus", "boundary"),
    ("boundary", "j0_checks", "boundary"),
    ("boundary", "extract_distribution", "boundary"),
    ("boundary", "distribution_checks", "boundary"),
    ("boundary", "boundary_connection_checks", "boundary"),
    ("boundary", "bgg_round_trip_defect", "boundary"),
    ("boundary", "boundary_3form", "boundary"),
    ("boundary", "conformal_parallel_defect", "boundary"),
    ("symmetries", "symmetry_residuals", "symmetries.symmetry_residuals"),
    ("symmetries", "solve_frame_symmetry", "symmetries.solve_frame_symmetry"),
    ("symmetries", "frame_symmetry_kernel_dim", "symmetries.frame_symmetry_kernel_dim"),
    ("symmetries", "is_distribution_symmetry", "symmetries.is_distribution_symmetry"),
]

# Arithmetic of the two coefficient rings; aliases are found by identity.
OP_TARGETS = [
    ("scalars", "QScalar.__add__", "scalars.add"),
    ("scalars", "QScalar.__sub__", "scalars.sub"),
    ("scalars", "QScalar.__rsub__", "scalars.sub"),
    ("scalars", "QScalar.__mul__", "scalars.mul"),
    ("scalars", "QScalar.__neg__", "scalars.neg"),
    ("scalars", "QScalar.inverse", "scalars.inverse"),
    ("scalars", "QScalar.__truediv__", "scalars.div"),
    ("scalars", "QScalar.__rtruediv__", "scalars.div"),
    ("scalars", "QScalar.__pow__", "scalars.pow"),
    ("laurent", "CoeffFn.__add__", "laurent.add"),
    ("laurent", "CoeffFn.__sub__", "laurent.sub"),
    ("laurent", "CoeffFn.__rsub__", "laurent.sub"),
    ("laurent", "CoeffFn.__mul__", "laurent.mul"),
    ("laurent", "CoeffFn.__neg__", "laurent.neg"),
    ("laurent", "CoeffFn.inverse", "laurent.inverse"),
    ("laurent", "CoeffFn.__truediv__", "laurent.div"),
    ("laurent", "CoeffFn.divmod", "laurent.divmod"),
]

# FrameChart methods backed by the per-chart cache, with their cache keys.
FRAME_CACHE_KEYS = {"curvature": "R", "ricci": "Ric", "schouten": "P",
                    "weyl": "W", "cotton": "Cot"}

PACKAGE = "g2trac"
MODULES = ("scalars", "laurent", "linalg", "tensors", "frames", "tractor", "geometry",
           "qm_family", "stable_forms", "octonions", "boundary", "coordfields",
           "symmetries", "verify")


def _resolve(module: str, path: str):
    """(owner, attribute name, original object) for 'func' or 'Class.method'."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *head, name = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Tracer:
    """Spans and layer counters for g2trac calls made while installed."""

    def __init__(self):
        # [inside, outside] seconds per call of each wrapper kind, kept
        # current by calibrate(); the wrappers read these lists on every call
        self.cost = {kind: [0.0, 0.0] for kind in CALIBRATED}
        self.op_costs = []
        self._calibrated_at = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.item = None
        self._patches = []
        self._origin = time.perf_counter()
        # Time covered by traced calls inside the innermost open traced call.
        self._inner = [0.0]
        # Ids of the open spans, outermost first; 0 is the root.
        self._open = [0]
        self._ids = itertools.count(1)

    # -- wrappers ---------------------------------------------------------
    #
    # `cost` is [inside, outside]: the wrapper's own seconds per call inside
    # the interval it times, taken off its self time, and outside it, taken
    # off the caller's self time.

    def _span_wrapper(self, fn, key, hook, cost=(0.0, 0.0)):
        calls, selfs, inner, opened, spans = (self.calls, self.self_s, self._inner,
                                              self._open, self.spans)
        ids = self._ids
        pc = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t0 = pc()
            saved, inner[0] = inner[0], 0.0
            if hook is not None:
                hook(args)
            before = dict(calls)
            rec = {"id": next(ids), "parent": opened[-1], "name": key,
                   "item": tracer.item}
            opened.append(rec["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                opened.pop()
                t1 = pc()
                dt = t1 - t0
                own = dt - inner[0] - cost[0]
                selfs[key] += own
                inner[0] = saved + dt + cost[1]
                calls[key] += 1
                # calls made under this span, nested spans included
                rec["counts"] = {k: v - before.get(k, 0) for k, v in calls.items()
                                 if v != before.get(k, 0)}
                rec["start"] = t0 - tracer._origin
                rec["end"] = t1 - tracer._origin
                rec["self_s"] = own
                spans.append(rec)

        traced.__wrapped__ = fn
        traced.traced_layer = key
        return traced

    def _op_wrapper(self, fn, key, hook, cost=(0.0, 0.0)):
        calls, selfs, inner = self.calls, self.self_s, self._inner
        pc = time.perf_counter

        def traced(*args):
            t0 = pc()
            saved, inner[0] = inner[0], 0.0
            if hook is not None:
                hook(args)
            try:
                return fn(*args)
            finally:
                dt = pc() - t0
                selfs[key] += dt - inner[0] - cost[0]
                inner[0] = saved + dt + cost[1]
                calls[key] += 1

        traced.__wrapped__ = fn
        traced.traced_layer = key
        return traced

    # -- counters measured where the work happens ----------------------------

    def _hooks(self):
        from fractions import Fraction

        from g2trac.laurent import CoeffFn
        from g2trac.scalars import QScalar

        c = self.counters

        def rref_cells(args):
            A = args[0]
            c["linalg.rref.cells"] += len(A) * (len(A[0]) if A else 0)

        def scalar_mul(args):
            x, y = args
            if isinstance(y, QScalar):
                rational = not (x.b or x.c or x.d or y.b or y.c or y.d)
                zero = not (x.a or x.b or x.c or x.d) or not (y.a or y.b or y.c or y.d)
            elif isinstance(y, (int, Fraction)):
                rational = not (x.b or x.c or x.d)
                zero = y == 0 or not (x.a or x.b or x.c or x.d)
            else:
                return
            c["scalars.mul.rational"] += rational
            c["scalars.mul.zero"] += zero

        def laurent_mul(args):
            x, y = args
            yt = y.terms if isinstance(y, CoeffFn) else {0: y}
            c["laurent.mul.terms"] += len(x.terms) * len(yt)
            c["laurent.mul.const"] += x.terms.keys() <= {0} or yt.keys() <= {0}

        def frame_cache(method):
            cache_key = FRAME_CACHE_KEYS[method]

            def hook(args):
                c["frames.cache.lookups"] += 1
                c["frames.cache.hits"] += cache_key in args[0]._cache
            return hook

        hooks = {("linalg", "rref"): rref_cells,
                 ("scalars", "QScalar.__mul__"): scalar_mul,
                 ("laurent", "CoeffFn.__mul__"): laurent_mul}
        for method in FRAME_CACHE_KEYS:
            hooks[("frames", f"FrameChart.{method}")] = frame_cache(method)
        return hooks

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for m in MODULES:
            importlib.import_module(f"{PACKAGE}.{m}")
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        hooks = self._hooks()
        self.calibrate()
        try:
            for targets, kind in ((SPAN_TARGETS, "span"), (OP_TARGETS, "op")):
                make = self._span_wrapper if kind == "span" else self._op_wrapper
                for module, path, key in targets:
                    owner, name, orig = _resolve(module, path)
                    # spans are few, so their hooks are left uncalibrated
                    hook_kind = (kind, path if kind == "op" and (module, path) in hooks else None)
                    wrapper = make(orig, key, hooks.get((module, path)), self.cost[hook_kind])
                    # every binding of the same object: re-bound names and aliases
                    owners = modules if isinstance(owner, types.ModuleType) else [owner]
                    for o in owners:
                        for attr, value in list(vars(o).items()):
                            if value is orig:
                                setattr(o, attr, wrapper)
                                self._patches.append((o, attr, orig))
        except BaseException:
            self.uninstall()
            raise

    def calibrate(self):
        for kind, cost in self.cost.items():
            cost[:] = wrapper_cost(*kind)
        self.op_costs.append(sum(self.cost[("op", None)]))
        self._calibrated_at = time.perf_counter()

    def calibrate_if_stale(self):
        """Measure the wrapper costs again if the last measure is older than
        CALIBRATION_MAX_AGE_S.  Call it between items, outside timed intervals."""
        if (self._calibrated_at is None
                or time.perf_counter() - self._calibrated_at >= CALIBRATION_MAX_AGE_S):
            self.calibrate()

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def run_item(self, label, fn):
        """Run fn() as the root span of one benchmark item."""
        self.item = label
        try:
            return self._span_wrapper(fn, "bench.item", None, self.cost[("span", None)])()
        finally:
            self.item = None

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _noop(*args):
    return None


def _probe_args(hook_path):
    """Arguments like those the hooked operation mostly sees."""
    from fractions import Fraction

    from g2trac.laurent import CoeffFn
    from g2trac.scalars import QScalar

    if hook_path == "CoeffFn.__mul__":
        return CoeffFn.of(2), CoeffFn.of(3)
    return QScalar(Fraction(1, 2)), QScalar(Fraction(2, 3))


# The machine's speed drifts within seconds, so a measured cost is renewed
# between items once it is this old.
CALIBRATION_MAX_AGE_S = 1.0
CALIBRATION_REPEATS = 5

# Wrapper kinds whose cost is measured: (span or op, hooked op path or None).
CALIBRATED = (("span", None), ("op", None), ("op", "QScalar.__mul__"),
              ("op", "CoeffFn.__mul__"))


def wrapper_cost(kind, hook_path):
    """(inside, outside) seconds per call that a wrapper of `kind` adds
    inside the interval it times and outside it, measured by wrapping a
    no-op; the median of CALIBRATION_REPEATS measurements."""
    probe = Tracer()
    # the span wrapper copies the call table: give it its full size
    probe.calls.update(dict.fromkeys((key for _, _, key in SPAN_TARGETS + OP_TARGETS), 0))
    module = "laurent" if hook_path == "CoeffFn.__mul__" else "scalars"
    hook = probe._hooks().get((module, hook_path))
    make = probe._span_wrapper if kind == "span" else probe._op_wrapper
    wrapped = make(_noop, "probe", hook)
    args = _probe_args(hook_path)
    n = 200 if kind == "span" else 2000
    pc = time.perf_counter
    inside, outside = [], []
    for _ in range(CALIBRATION_REPEATS):
        probe.self_s["probe"] = 0.0
        t0 = pc()
        for _ in range(n):
            pass
        t1 = pc()
        for _ in range(n):
            _noop(*args)
        t2 = pc()
        for _ in range(n):
            wrapped(*args)
        t3 = pc()
        probe.spans.clear()
        call = (t2 - t1) - (t1 - t0)
        inside.append((probe.self_s["probe"] - call) / n)
        outside.append((t3 - t2 - (t2 - t1)) / n - inside[-1])
    return statistics.median(inside), statistics.median(outside)


# Layers reported as calls per pass and as self seconds per pass.
CALL_METRICS = ("scalars.mul", "scalars.add", "scalars.inverse", "laurent.mul", "laurent.add",
                "laurent.div", "linalg.rref", "linalg.nullspace", "linalg.inverse_laurent",
                "linalg.det_perm", "tensors.pullback", "frames.cov_deriv",
                "symmetries.symmetry_residuals")
SELF_METRICS = ("linalg.rref", "linalg.inverse", "linalg.signature", "linalg.inverse_laurent",
                "linalg.det_perm", "tensors.pullback", "tensors.wedge", "tensors.contract",
                "frames.cov_deriv", "frames.curvature", "tractor.d_tractor_3form",
                "tractor.metric", "qm_family.build_qm", "stable_forms.classify6",
                "stable_forms.metric_from_3form7", "octonions.null_filtration", "geometry.npk",
                "geometry.compactness_check", "geometry.stratify", "boundary",
                "symmetries.symmetry_residuals", "symmetries.solve_frame_symmetry",
                "symmetries.frame_symmetry_kernel_dim", "symmetries.is_distribution_symmetry",
                "verify")


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, untraced_pass_s: float,
                  overhead_frac: float) -> dict:
    """Per-layer metrics per traced pass: name -> (value, unit)."""
    calls, selfs, c = tr.calls, tr.self_s, tr.counters
    out = {f"{k}.calls": (calls.get(k, 0) / passes, "count") for k in CALL_METRICS}
    out.update({f"{k}.self_s": (selfs.get(k, 0.0) / passes, "s") for k in SELF_METRICS})
    for layer in ("scalars", "laurent"):
        out[f"{layer}.self_s"] = (sum(v for k, v in selfs.items()
                                      if k.startswith(layer + ".")) / passes, "s")
    smul, lmul = calls.get("scalars.mul", 0), calls.get("laurent.mul", 0)
    out.update({
        "scalars.mul.rational_frac": (_frac(c["scalars.mul.rational"], smul), "frac"),
        "scalars.mul.zero_frac": (_frac(c["scalars.mul.zero"], smul), "frac"),
        "laurent.mul.terms": (c["laurent.mul.terms"] / passes, "count"),
        "laurent.mul.const_frac": (_frac(c["laurent.mul.const"], lmul), "frac"),
        "linalg.rref.cells": (c["linalg.rref.cells"] / passes, "count"),
        "frames.cache.hit_frac": (_frac(c["frames.cache.hits"], c["frames.cache.lookups"]), "frac"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.residual_frac": (sum(selfs.values()) / passes / untraced_pass_s - 1, "frac"),
        "trace.op_cost_us": (statistics.median(tr.op_costs) * 1e6, "us"),
    })
    return out
