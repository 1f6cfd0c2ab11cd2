"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; stated runtime bounds are asserted where the criterion carries
one.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from g2trac import linalg, stable_forms as sf
from g2trac.boundary import (bgg_round_trip_defect, distribution_checks,
                             extract_distribution, restrict_to_zero_locus)
from g2trac.frames import FrameChart
from g2trac.geometry import (compactness_check, jfield_identity_defects,
                             npk_extract, npk_verify)
from g2trac.laurent import PLAIN
from g2trac.octonions import ImaginaryVector, dot, null_filtration
from g2trac.qm_family import (FLAT_PARAMETERS, REGRESSION_PARAMETERS,
                              expected_tractor_metric)
from g2trac.scalars import QScalar
from g2trac.tensors import AltTensor
from g2trac.tractor import d_tractor_3form, ky_symmetrized_derivative
from support import _phi_norm_with, cross, ky_prolong, random_null_vector


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def reference_mult_table(xi):
    t = {}

    def put(a, b, c, s):
        t[(a, b)] = (c, s)
        t[(b, a)] = (c, -s)

    put(1, 2, 3, 1); put(1, 3, 2, -1); put(1, 4, 5, 1); put(1, 5, 4, -1)
    put(1, 6, 7, 1); put(1, 7, 6, -1)
    put(2, 3, 1, 1); put(2, 4, 6, 1); put(2, 5, 7, -1); put(2, 6, 4, -1)
    put(2, 7, 5, 1)
    put(3, 4, 7, -1); put(3, 5, 6, -1); put(3, 6, 5, 1); put(3, 7, 4, 1)
    put(4, 5, 1, xi); put(4, 6, 2, xi); put(4, 7, 3, -xi)
    put(5, 6, 3, -xi); put(5, 7, 2, -xi)
    put(6, 7, 1, xi)
    return t


def test_criterion_1_multiplication_table():
    t0 = time.monotonic()
    wrong = 0
    for xi in (1, -1):
        table = reference_mult_table(xi)
        assert len(table) == 42
        for (a, b), (c, s) in table.items():
            got = cross(ImaginaryVector.basis(a, xi), ImaginaryVector.basis(b, xi))
            want = [QScalar.zero()] * 7
            want[c - 1] = QScalar(s)
            wrong += got.comps != want
    dt = time.monotonic() - t0
    # the table verdict and the time verdict are reported apart
    report(1, wrong == 0 and dt < 1.0,
           f"42 entries per algebra; {wrong} wrong; {dt:.2f}s, bound 1s")


def test_criterion_2_cross_product_axioms():
    t0 = time.monotonic()
    rng = random.Random(2024)
    not_orthogonal = not_lagrange = 0
    for xi in (1, -1):
        for _ in range(500):
            x = ImaginaryVector([rng.randint(-6, 6) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-6, 6) for _ in range(7)], xi)
            c = cross(x, y)
            not_orthogonal += not dot(c, x).is_zero()
            lag = dot(c, c) - (dot(x, x) * dot(y, y) - dot(x, y) * dot(x, y))
            not_lagrange += not lag.is_zero()
    dt = time.monotonic() - t0
    # each identity's verdict and the time verdict are reported apart
    report(2, not_orthogonal == 0 and not_lagrange == 0 and dt < 5.0,
           f"500 pairs per algebra; orthogonality fails on {not_orthogonal}, "
           f"Lagrange on {not_lagrange}; {dt:.2f}s, bound 5s")


def _phi_xi(xi):
    t = AltTensor.form(7, 3)
    for idx, c in [((1, 2, 3), 1), ((1, 4, 5), xi), ((1, 6, 7), xi), ((2, 4, 6), xi),
                   ((2, 5, 7), -xi), ((3, 4, 7), -xi), ((3, 5, 6), -xi)]:
        t.set((), tuple(i - 1 for i in idx), QScalar(c))
    return t


def _random_sl(rng, n):
    A = linalg.eye(n, QScalar(1), QScalar.zero())
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = linalg.eye(n, QScalar(1), QScalar.zero())
        E[i][j] = QScalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        A = linalg.mat_mul(A, E)
    return A


def test_criterion_3_stable_form_dictionary():
    ok = True
    for xi in (1, -1):
        phi = _phi_xi(xi)
        H, vol, cls = sf.metric_from_3form7(phi)
        M = H.as_matrix()
        for i in range(7):
            for j in range(7):
                want = QScalar(1 if i < 3 else xi) if i == j else QScalar.zero()
                ok = ok and (M[i][j] - want).is_zero()
        hinv = linalg.inverse(M)
        ok = ok and _phi_norm_with(phi, hinv) == QScalar(42)
    normal_forms = {
        sf.B1: [((1, 2, 3), 1), ((4, 5, 6), 1)],
        sf.B2: [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)],
        sf.B3: [((1, 5, 6), 1), ((2, 6, 4), 1), ((3, 4, 5), 1)],
        sf.B4: [((1, 2, 5), 1), ((3, 4, 5), 1)],
        sf.B5: [((1, 2, 3), 1)],
        sf.B6: [],
    }
    rng = random.Random(3)
    for cls_name, entries in normal_forms.items():
        beta = AltTensor.form(6, 3)
        for idx, c in entries:
            beta.set((), tuple(i - 1 for i in idx), QScalar(c))
        ok = ok and sf.classify6(beta)["class"] == cls_name
        for _ in range(50):
            A = _random_sl(rng, 6)
            ok = ok and sf.classify6(beta.pullback(A))["class"] == cls_name
    report(3, ok, "metric = diag(1,1,1,xi,..), phi.phi = 42, six classes "
                  "GL-constant on 50 conjugates each")


def test_criterion_4_null_filtration():
    rng = random.Random(4)
    ok = True
    for _ in range(100):
        x = random_null_vector(rng)
        f = null_filtration(x)
        ok = ok and f.dims() == (1, 3, 4, 6)
        ok = ok and f.kernel_isotropic() and f.chain_ok() and f.mapping_ok()
    report(4, ok, "100 random null vectors: dims (1,3,4,6), isotropic kernel")


def test_criterion_5_family_exact_verification(family_package):
    ok = True
    worst = 0.0
    for m in REGRESSION_PARAMETERS:
        t0 = time.monotonic()
        pkg = family_package(m)
        for a in range(6):
            full = d_tractor_3form(pkg.chart, pkg.phi, a)
            count = sum(1 for idx in combinations(range(7), 3)
                        if not full.get((), idx).is_zero())
            ok = ok and count == 0
        ok = ok and (pkg.tau - pkg.chart.rho() * 2).is_zero()
        ok = ok and (pkg.H - expected_tractor_metric(m, pkg.chart)).is_zero()
        ok = ok and all(v.is_zero() for v in jfield_identity_defects(pkg))
        worst = max(worst, time.monotonic() - t0)
    report(5, ok and worst < 60.0,
           f"8 parameters, 6x35 slots each; worst {worst:.2f}s < 60s per parameter")


def test_criterion_6_npk_verification(family_package):
    ok = True
    for m in REGRESSION_PARAMETERS:
        pkg = family_package(m)
        for side in (1, -1):
            rep = npk_verify(npk_extract(pkg, side))
            ok = ok and rep.ky_residual_zero
            ok = ok and rep.einstein_zero and rep.scalar_curvature_sign == side
            ok = ok and rep.weyl_identity_zero
            ok = ok and rep.nabla_j_norm_constant
    report(6, ok, "KY, Einstein sign, curvature identity, constant energy; "
                  "both orbit sides, all parameters")


def test_criterion_7_boundary_geometry(family_package):
    ok = True
    for m in (Fraction(1, 2), Fraction(2), Fraction(-1)):
        pkg = family_package(m)
        bd = restrict_to_zero_locus(pkg)
        ok = ok and bd.conformal.g0.signature_at(QScalar.zero()) == (2, 3)
        dist = extract_distribution(bd)   # raises if the three ways disagree
        checks = distribution_checks(bd, dist)
        ok = ok and checks["perp_equals_bracket"]
        ok = ok and dist.growth == (2, 3, 5)
        ok = ok and bgg_round_trip_defect(bd).is_zero()
    report(7, ok, "signature (2,3); distribution three ways; "
                  "orthocomplement = derived; splitting round trip")


def test_criterion_8_projective_compactness(family_package):
    ok = True
    for m in REGRESSION_PARAMETERS:
        pkg = family_package(m)
        for side in (1, -1):
            ok = ok and compactness_check(pkg, side, Fraction(2)).regular
            ok = ok and not compactness_check(pkg, side, Fraction(1)).regular
    report(8, ok, "order 2 regular, order 1 leaves a pole; all parameters, both sides")


def test_criterion_9_flatness_discrimination(family_package):
    ok = True
    for m in REGRESSION_PARAMETERS:
        pkg = family_package(m)
        ok = ok and pkg.chart.is_projectively_flat() == (m in FLAT_PARAMETERS)
    report(9, ok, "curvature vanishes exactly on {-1, 1/3, 2/3, 2} and nowhere else")


def test_criterion_10_prolongation_oracle():
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    rng = random.Random(10)
    rho = chart.rho()
    ok = True
    for _ in range(50):
        omega = AltTensor.form(6, 2, chart.zero())
        for idx in combinations(range(6), 2):
            c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
            v = chart.lift(QScalar(c0)) + chart.lift(QScalar(c1)) * rho
            if not v.is_zero():
                omega.set((), idx, v)
        _, _, residual = ky_prolong(chart, omega)
        oracle = ky_symmetrized_derivative(chart, omega)
        ok = ok and (residual - oracle).is_zero()
    report(10, ok, "prolongation residual equals brute-force symmetrized "
                   "derivative on 50 random weight-3 2-forms")
