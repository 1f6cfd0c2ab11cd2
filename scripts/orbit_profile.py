#!/usr/bin/env python3
"""Profile the curved-orbit structures along a transverse path.

Usage:
    python scripts/orbit_profile.py --m 1/2 [--points "-2,-1,0,1,2"]

Prints tau, the orbit label, and (off the zero locus) the Einstein
constant, scalar-curvature sign and the invariant energy of the
canonical structure, all from exact data (floats only in the display).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from g2trac.cli import _emit, _family_parameter, _join_signed_values
from g2trac.coordfields import parse_rational
from g2trac.geometry import npk_extract, npk_verify, orbit_label
from g2trac.qm_family import FamilyParams, build_qm
from g2trac.scalars import QScalar


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", required=True)
    ap.add_argument("--points", default="-2,-1,0,1,2",
                    help="signed collar coordinates s; the point has rho = s|s|")
    args = ap.parse_args(_join_signed_values(sys.argv[1:]))
    m = _family_parameter(args.m)
    if m is None:
        return 2
    try:
        points = [parse_rational(chunk) for chunk in args.points.split(",")]
    except ValueError as exc:
        print(f"invalid --points: {exc}", file=sys.stderr)
        return 2
    pkg = build_qm(FamilyParams(m))
    # tau at each point, checked to fit a float before anything is printed
    taus = [pkg.tau.eval(QScalar(s * abs(s))) for s in points]
    try:
        shown = [float(tau) for tau in taus]
    except OverflowError:
        print("invalid --points: tau at a point is beyond the float range of the display",
              file=sys.stderr)
        return 2
    cache = {}
    _emit(f"family parameter m = {m}; tau = {pkg.tau}")
    for s, tau, tau_float in zip(points, taus, shown):
        sign = tau.sign()
        line = f"  s = {str(s):>5}  tau = {tau_float:+9.4f}  {orbit_label(sign)}"
        if sign != 0:
            if sign not in cache:
                cache[sign] = npk_verify(npk_extract(pkg, sign))
            rep = cache[sign]
            kind = "nearly Kahler" if rep.eps == -1 else "nearly para-Kahler"
            line += (f"  {kind}: alpha = {rep.alpha}, Sc sign {rep.scalar_curvature_sign:+d},"
                     f" <dJ,dJ> = {rep.nabla_j_norm}")
        _emit(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
