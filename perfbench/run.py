#!/usr/bin/env python3
"""The g2trac benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root):
    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 28 --trace 0

Workloads: verify_full, quick_sweep, classify_orbits (see workloads.py).

The run sets up (import of g2trac in a fresh interpreter, plus the seeded
input generation, repeated SETUP_REPEATS times), runs the untimed warm-up
items, then runs the items of the workload pass after pass, one at a time,
until --seconds have passed and at least one pass is complete.  Every
output is checked; an item that raises or fails a check counts as failed.

--trace 0 prints the end-to-end metrics, in reference seconds: wall time
corrected for the machine's changing speed by a probe timed every 50 ms
(see speed.py); the wall-clock figures go on a `#` line.  --trace 1 spends the first half
of the time untraced and the second half traced, in whole passes, and
prints the per-layer metrics per traced pass (see tracer.py), including
trace.overhead_frac = traced pass_s / untraced pass_s - 1; it writes the
spans to .bench_build/perfbench/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NoReturn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import g2trac.verify, g2trac.boundary, g2trac.symmetries, g2trac.stable_forms, "
    "g2trac.octonions\n"
    "print(time.perf_counter() - t)\n"
)


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import g2trac from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "g2trac", "__init__.py")):
        fail(f"no g2trac sources under {SRC}")
    sys.path.insert(0, SRC)
    import g2trac
    if os.path.dirname(os.path.dirname(os.path.abspath(g2trac.__file__))) != SRC:
        fail(f"g2trac was imported from {g2trac.__file__}, not from {SRC}")


def child_import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workloads, name: str, seed: int):
    """Set up SETUP_REPEATS times; the workload and, per repeat, the import
    seconds measured in the child, the wall time around the child and the
    (start, end) of the input generation."""
    repeats = []
    wl = None
    for _ in range(SETUP_REPEATS):
        t_spawn = time.perf_counter()
        t_import = child_import_seconds()
        t0 = time.perf_counter()
        wl = workloads.make_workload(name, seed)
        repeats.append((t_import, t_spawn, t0, time.perf_counter()))
    return wl, repeats


def setup_ref_seconds(repeats, probe) -> float:
    """Median set-up time over the repeats, in reference seconds: the child's
    import scaled by the probe speed while the child ran, plus the input
    generation's reference seconds."""
    return statistics.median(t_import * probe.scale(t_spawn, t0) + probe.ref_seconds(t0, t1)
                             for t_import, t_spawn, t0, t1 in repeats)


class Phase:
    """Item and pass timings of one stretch of passes."""

    def __init__(self):
        self.item_s = []
        self.spans = []          # (start, end) of each item, for reference seconds
        self.pass_s = []
        self.attempted = 0
        self.failed = 0


def run_item(item, tracer, phase: Phase):
    """Run and check one item; its (start, end) times."""
    phase.attempted += 1
    if tracer:
        tracer.calibrate_if_stale()
    t0 = time.perf_counter()
    try:
        out = tracer.run_item(item.label, item.run) if tracer else item.run()
    except Exception:
        t1 = time.perf_counter()
        phase.failed += 1
        print(f"perfbench: item {item.label} raised", file=sys.stderr)
        traceback.print_exc()
        return t0, t1
    t1 = time.perf_counter()
    try:
        ok = bool(item.check(out))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        phase.failed += 1
        print(f"perfbench: item {item.label} failed its check", file=sys.stderr)
    return t0, t1


def run_passes(items, seconds: float, tracer=None, whole_passes: bool = False) -> Phase:
    """Closed loop over the pass list until `seconds` have elapsed and at
    least one pass is complete; with whole_passes, stop only at a pass end."""
    ph = Phase()
    start = time.perf_counter()
    pass_time = 0.0
    k = 0
    while True:
        t0, t1 = run_item(items[k % len(items)], tracer, ph)
        ph.spans.append((t0, t1))
        ph.item_s.append(t1 - t0)
        pass_time += t1 - t0
        k += 1
        at_pass_end = k % len(items) == 0
        if at_pass_end:
            ph.pass_s.append(pass_time)
            pass_time = 0.0
        if (ph.pass_s and time.perf_counter() - start >= seconds
                and (at_pass_end or not whole_passes)):
            return ph


def tail(samples):
    """(value, percentile): the highest sample with at least ten beyond it.

    Below 21 samples that sample would lie under the median, so the upper
    median is taken instead; the value moves continuously with the count."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 11, n // 2)
    return xs[i], 100.0 * (i + 1) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    warm = Phase()
    # Untraced runs time the speed probe from the start of the set-up on.
    with contextlib.ExitStack() as stack:
        probe = None if args.trace else stack.enter_context(speed.SpeedProbe())
        wl, setup_repeats = set_up(workloads, args.workload, args.seed)
        t0 = time.perf_counter()
        for item in wl.warmup:
            run_item(item, None, warm)
        warmup_s = time.perf_counter() - t0
        if args.trace:
            import tracer as tracing
            plain = run_passes(wl.items, args.seconds / 2)
            tr = tracing.Tracer()
            with tr:
                traced = run_passes(wl.items, args.seconds / 2, tr, whole_passes=True)
        else:
            timed = run_passes(wl.items, args.seconds)

    if args.trace:
        untraced = statistics.median(plain.pass_s)
        overhead = statistics.median(traced.pass_s) / untraced - 1
        layers = tracing.layer_metrics(tr, len(traced.pass_s), untraced, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        path = os.path.join(ROOT, ".bench_build", "perfbench",
                            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tr.write_spans(path)
        phases = [warm, plain, traced]
        print(f"# spans: {len(tr.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        # Items of complete passes only: a trailing partial pass holds the
        # first items of the pass list, a mix that depends on the speed.
        n = len(timed.pass_s) * len(wl.items)
        item_ref = [probe.ref_seconds(a, b) for a, b in timed.spans[:n]]
        pass_ref = [sum(item_ref[i:i + len(wl.items)]) for i in range(0, n, len(wl.items))]
        tail_ref, tail_pct = tail(item_ref)
        metrics = {
            "setup_s": {"value": setup_ref_seconds(setup_repeats, probe), "unit": "s"},
            "pass_ref_s": {"value": statistics.median(pass_ref), "unit": "ref_s"},
            "item_ref_s.p50": {"value": statistics.median(item_ref), "unit": "ref_s"},
            "item_ref_s.tail": {"value": tail_ref, "unit": "ref_s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        phases = [warm, timed]
        item_s = timed.item_s[:n]
        print(f"# {args.workload} seed={args.seed}: {len(timed.pass_s)} passes, "
              f"{len(timed.item_s)} timed items; item_ref_s.tail is "
              f"p{tail_pct:.1f} of the n={n} items of complete passes")
        setup_s = statistics.median(t_import + t1 - t0 for t_import, _, t0, t1 in setup_repeats)
        print(f"# wall clock: setup_s = {setup_s} s, pass_s = {statistics.median(timed.pass_s)} s, "
              f"item_s.p50 = {statistics.median(item_s)} s, item_s.tail = {tail(item_s)[0]} s; "
              f"{len(probe.durations)} probes, median {statistics.median(probe.durations)} s")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"# warm-up {warmup_s:.3f} s; ops_failed_frac = {failed / attempted} "
          f"({failed} of {attempted} items)")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
