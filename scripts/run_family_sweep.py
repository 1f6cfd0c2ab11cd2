#!/usr/bin/env python3
"""Run the full verification battery over the regression parameter set.

Usage:
    python scripts/run_family_sweep.py [--depth quick|full] [--json DIR]

Each parameter gets a one-line summary; on request, per-parameter JSON
reports land in DIR.  Exit code 1 if anything fails, 2 on an invalid --m
or a DIR that cannot be written.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from g2trac.cli import _emit, _family_parameter, _join_signed_values
from g2trac.qm_family import REGRESSION_PARAMETERS, FamilyParams, build_qm
from g2trac.verify import verify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", choices=("quick", "full"), default="full")
    ap.add_argument("--json", help="directory for per-parameter JSON reports")
    ap.add_argument("--m", action="append",
                    help="extra rational parameters to include (repeatable)")
    args = ap.parse_args(_join_signed_values(sys.argv[1:]))

    params = list(REGRESSION_PARAMETERS)
    for extra in args.m or ():
        m = _family_parameter(extra)
        if m is None:
            return 2
        params.append(m)
    if args.json:
        try:
            os.makedirs(args.json, exist_ok=True)
        except OSError as exc:
            print(f"cannot write to --json: {exc}", file=sys.stderr)
            return 2
    failures = 0
    for m in params:
        t0 = time.time()
        pkg = build_qm(FamilyParams(m))
        rep = verify(pkg, depth=args.depth)
        n_pass = sum(1 for r in rep.records if r.status == "pass")
        n_skip = sum(1 for r in rep.records if r.status == "skipped")
        n_fail = sum(1 for r in rep.records if r.status == "fail")
        flat = "flat" if pkg.chart.is_projectively_flat() else "curved"
        _emit(f"m = {str(m):>5}  [{flat:>6}]  pass {n_pass:2d}  skip {n_skip}  "
              f"fail {n_fail}  ({time.time() - t0:5.1f}s)")
        if n_fail:
            failures += 1
            for r in rep.records:
                if r.status == "fail":
                    _emit(f"    FAIL {r.name}: {r.detail}")
        if args.json:
            path = os.path.join(args.json, f"report_m_{m.numerator}_{m.denominator}.json")
            try:
                with open(path, "w") as fh:
                    fh.write(rep.to_json() + "\n")
            except OSError as exc:
                print(f"cannot write to --json: {exc}", file=sys.stderr)
                return 2
    _emit("sweep: " + ("ALL PASS" if not failures else f"{failures} parameter(s) FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
