#!/usr/bin/env python3
"""Write perfbench/expected.json: the record list and the report digest of
every verify item at the reference seed.

Usage (from the repository root):
    python3 perfbench/make_expected.py

Run it only when a change is meant to alter the verify reports; the
benchmark checks every report against this file.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (EXPECTED_PATH, VERIFY, record_list, report_digest,  # noqa: E402
                       verify_item, verify_samples)

SEED = 1


def main() -> int:
    samples = verify_samples(SEED)
    out = {"seed": SEED}
    for name, (depth, params) in VERIFY.items():
        out[name] = {}
        for m in params:
            rep = verify_item(m, depth, samples, None, None).run()
            if not rep.all_ok():
                print(f"{name} m={m}: report has failures", file=sys.stderr)
                return 1
            out[name][str(m)] = {"records": record_list(rep), "sha256": report_digest(rep)}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
