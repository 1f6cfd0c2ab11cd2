#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it into a baseline file.

Usage (from the repository root):
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
        [--workloads verify_full,quick_sweep] [--seconds 28]

For each workload: one untraced run per seed, then one traced run at the
first seed.  Per end-to-end metric it records the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median; per layer metric the traced value.  The output also
names the CPU count and the Python version it was measured with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    result = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "implementation": platform.python_implementation()},
              "seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = run_once(wl, seed, args.seconds, 0)
            runs.append(res)
            print(wl, seed, res["correct"], res["failed"], res["attempted"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {m["name"]: dict(unit=m["unit"], **summarize(
                [r["metrics"][m["name"]]["value"] for r in runs])) for m in bench["end_to_end"]},
        }
        traced = run_once(wl, seeds[0], args.seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["traced_correct"] = traced["correct"]
        result["workloads"][wl] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {wl} {name}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
