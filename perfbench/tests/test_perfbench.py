"""Tests of the benchmark itself: tracing changes no output and is fully
undone, inputs follow the seed, and the warm-up fills the lazy caches.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

import importlib
import os
import shutil
import signal
import subprocess
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from g2trac import octonions, tractor  # noqa: E402


def _bindings():
    """Every attribute of every g2trac module and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "g2trac" and not name.startswith("g2trac."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def _classification(label, out):
    kind = label.split(":")[0]
    if kind == "classify6":
        return out["class"], out["lambda"].as_strings(), out["kernel_dim"]
    if kind == "metric7":
        H, vol, cls = out
        return cls, [x.as_strings() for row in H.as_matrix() for x in row]
    return out


def test_traced_and_untraced_outputs_are_identical():
    quick = workloads.make_workload("quick_sweep", 1).items[0]
    plain = quick.run()
    with tracing.Tracer() as tr:
        traced = tr.run_item(quick.label, quick.run)
    assert tr.calls["verify"] == 1 and tr.calls["laurent.mul"] > 0
    assert plain.to_json() == traced.to_json()
    assert quick.check(plain) and quick.check(traced)

    items = workloads.make_workload("classify_orbits", 1).items
    sample = [next(i for i in items if i.label.startswith(k))
              for k in ("classify6:beta2", "metric7", "null")]
    plain = [_classification(i.label, i.run()) for i in sample]
    with tracing.Tracer() as tr:
        traced = [_classification(i.label, tr.run_item(i.label, i.run)) for i in sample]
    assert plain == traced
    assert tr.calls["stable_forms.classify6"] == 1
    assert tr.calls["octonions.null_filtration"] == 4


def test_tracer_patches_rebound_names_and_aliases_and_restores_them():
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.install()
    except RuntimeError:
        pass
    else:
        raise AssertionError("second install must be refused")
    before = None
    try:
        from g2trac import frames, laurent, linalg, scalars, tensors
        from g2trac import verify as battery
        wrapped = [frames.inverse_laurent, tensors.matrix_signature, linalg.signature,
                   battery.npk_extract, battery.npk_verify, battery.compactness_check,
                   battery.stratify, battery.d_tractor_3form, battery.tractor_metric_hhdef,
                   scalars.QScalar.__radd__, scalars.QScalar.__rmul__,
                   laurent.CoeffFn.__radd__, laurent.CoeffFn.__rmul__]
        assert all(hasattr(f, "traced_layer") for f in wrapped)
        assert scalars.QScalar.__rmul__ is scalars.QScalar.__mul__
    finally:
        tr.uninstall()
    before = _bindings()
    with tracing.Tracer():
        pass
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not [k for k, v in after.items() if hasattr(v, "traced_layer")]


def test_uninstall_happens_when_the_traced_code_raises():
    before = _bindings()
    try:
        with tracing.Tracer():
            importlib.import_module("g2trac.scalars").QScalar(1).inverse()
            raise KeyError("boom")
    except KeyError:
        pass
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_wrapper_costs_come_off_the_callee_inside_and_the_caller_outside():
    tr = tracing.Tracer()
    op_cost, span_cost = [1e-3, 2e-3], [5e-4, 0.0]
    op = tr._op_wrapper(lambda x, y: x * y, "probe.op", None, op_cost)
    root = tr._span_wrapper(lambda: [op(k, 2) for k in range(10)], "probe.span", None, span_cost)
    root()
    (rec,) = tr.spans
    dt = rec["end"] - rec["start"]
    assert tr.calls["probe.op"] == 10 and rec["counts"] == {"probe.op": 10, "probe.span": 1}
    # the costs are subtracted, so the self times no longer add up to the span
    assert abs(sum(tr.self_s.values()) - (dt - 10 * sum(op_cost) - span_cost[0])) < 1e-9
    assert tr.self_s["probe.op"] < 0 < tr.self_s["probe.op"] + 10 * op_cost[0]
    tr.calibrate()
    assert all(len(c) == 2 for c in tr.cost.values()) and len(tr.op_costs) == 1


def test_seeds_pick_different_inputs_with_the_same_counts():
    a, b, a2 = (workloads.classify_inputs(s) for s in (1, 2, 1))
    assert a == a2 and a != b
    for key in ("sl6", "sl7"):
        assert {k: len(v) for k, v in a[key].items()} == {k: len(v) for k, v in b[key].items()}
    assert len(a["null"]) == len(b["null"]) == workloads.NULL_VECTORS
    wa, wb = (workloads.make_workload("classify_orbits", s) for s in (1, 2))
    assert len(wa.items) == len(wb.items) == (6 * workloads.SL6_PER_FORM
                                              + 2 * workloads.SL7_PER_FORM
                                              + workloads.NULL_VECTORS)
    assert workloads.verify_samples(1) != workloads.verify_samples(2)
    assert all(s != 0 for seed in range(50) for s in workloads.verify_samples(seed))


def test_warmup_fills_every_module_cache_the_timed_items_use():
    caches = {"psr": tractor._psr_cache, "structure": octonions._STRUCTURE_CACHE,
              "sign": octonions._SIGN_CACHE}
    for name, used in (("classify_orbits", "structure"), ("verify_full", "psr")):
        for c in caches.values():
            c.clear()
        wl = workloads.make_workload(name, 3)
        for item in wl.warmup:
            assert item.check(item.run())
        sizes = {k: len(c) for k, c in caches.items()}
        assert sizes[used]
        timed = wl.items if name == "verify_full" else [
            next(i for i in wl.items if i.label.startswith(kind))
            for kind in ("classify6", "metric7", "null")]
        for item in timed:
            assert item.check(item.run())
        assert {k: len(c) for k, c in caches.items()} == sizes


def test_tail_is_the_highest_sample_with_ten_beyond_it_or_the_upper_median():
    xs = list(range(100))
    value, pct = run.tail(xs)
    assert value == 89 and len([x for x in xs if x > value]) == 10 and pct == 90.0
    # too few samples for a tail above the median: the upper median
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3)
    assert run.tail(list(range(21)))[0] == run.tail(list(range(20)))[0] == 10


def test_speed_probe_runs_while_entered_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
        t1 = time.perf_counter()
    n = len(probe.durations)
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.durations) == n >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < probe.ref_seconds(t0, t1)


def test_reference_seconds_drop_the_probes_and_scale_by_the_probe_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    probe.starts = [k / 10 for k in range(11)]
    probe.durations = [2 * ref] * 11
    # five probes start inside [0.05, 0.55]; the machine runs at half speed
    assert abs(probe.ref_seconds(0.05, 0.55) - (0.5 - 10 * ref) / 2) < 1e-12
    # an item shorter than the period is scaled by its neighbours
    assert abs(probe.ref_seconds(0.31, 0.32) - 0.005) < 1e-12
    try:
        probe.ref_seconds(5.0, 6.0)
    except ValueError:
        pass
    else:
        raise AssertionError("an interval with no probe nearby has no reference time")


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quick_sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_modules_named_by_the_tracer_exist():
    for module, path, _ in tracing.SPAN_TARGETS + tracing.OP_TARGETS:
        owner, name, orig = tracing._resolve(module, path)
        assert callable(orig) and isinstance(owner, (type, types.ModuleType))
