"""The frame-symmetry solver against the assembly it replaced.

The oracle keeps the residual formula written out directly, reads the
affine system off 26 evaluations of it (a base and 25 unit
perturbations of the group block) and solves it by one rref of all rows.
The sparse residual rows are read off 38 evaluations of the same formula
(a base and unit perturbations of the 36 entries of lam and of w).
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from g2trac import linalg
from g2trac.laurent import CoeffFn
from g2trac.qm_family import REGRESSION_PARAMETERS, build_model
from g2trac.scalars import SQRT2, QScalar
from g2trac.symmetries import (FrameSymmetry, _annihilates, _group_block_action,
                               _residual_terms, dilation_negative_control, frame_symmetry_system,
                               residual_rows, symmetry_residuals)
from g2trac.tractor import slots, tractor_3form


def _direct_residuals(pkg, sym):
    """L_xi of the brackets, the connection and the weight-3 slots, written out."""
    chart, n, lam, w = pkg.chart, pkg.chart.dim, sym.lam, sym.weight

    def xi(f):
        return f.d_drho() * CoeffFn.rho(f.param) * QScalar(w)

    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                acc = xi(chart.C[a][b][c])
                for e in range(n):
                    acc = acc + lam[a][e] * chart.C[e][b][c]
                    acc = acc + lam[b][e] * chart.C[a][e][c]
                    acc = acc - chart.C[a][b][e] * lam[e][c]
                out.append(acc)
    for a in range(n):
        for d in range(n):
            for b in range(n):
                acc = xi(chart.G[a][d][b])
                for e in range(n):
                    acc = acc + chart.G[a][d][e] * lam[e][b]
                    acc = acc - lam[a][e] * chart.G[e][d][b]
                    acc = acc - lam[d][e] * chart.G[a][e][b]
                out.append(acc)
    tr = QScalar.zero()
    for i in range(6):
        tr = tr + lam[i][i]
    wt = QScalar(Fraction(3, 7)) * tr
    sig, mu = slots(pkg.phi)
    for (b, c) in combinations(range(n), 2):
        acc = xi(sig.get((), (b, c))) + sig.get((), (b, c)) * wt
        for e in range(n):
            acc = acc - lam[b][e] * sig.get((), (e, c))
            acc = acc - lam[c][e] * sig.get((), (b, e))
        out.append(acc)
    for (b, c, d) in combinations(range(n), 3):
        acc = xi(mu.get((), (b, c, d))) + mu.get((), (b, c, d)) * wt
        for e in range(n):
            acc = acc - lam[b][e] * mu.get((), (e, c, d))
            acc = acc - lam[c][e] * mu.get((), (b, e, d))
            acc = acc - lam[d][e] * mu.get((), (b, c, e))
        out.append(acc)
    return out


def _oracle_system(pkg, weight):
    """26 evaluations give L and b; one rref of all rows of [L | -b] solves."""
    weight = Fraction(weight)
    z = QScalar.zero()
    base = _direct_residuals(pkg, _group_block_action([z] * 25, weight))
    cols = []
    for k in range(25):
        entries = [z] * 25
        entries[k] = QScalar.one()
        pert = _direct_residuals(pkg, _group_block_action(entries, weight))
        cols.append([p - b for p, b in zip(pert, base)])
    exps = sorted({e for col in cols + [base] for r in col for e in r.terms})
    rows = []
    for i, b in enumerate(base):
        for e in exps:
            row = [cols[k][i].coeff(e) for k in range(25)] + [-b.coeff(e)]
            if any(not v.is_zero() for v in row):
                rows.append(row)
    R, pivots = linalg.rref(rows)
    kernel_dim = 25 - len([c for c in pivots if c < 25])
    if 25 in pivots:
        return None, kernel_dim
    sol = [z] * 25
    for r, c in enumerate(pivots):
        sol[c] = R[r][25]
    sym = _group_block_action(sol, weight)
    if any(not r.is_zero() for r in _direct_residuals(pkg, sym)):
        return None, kernel_dim
    return sym, kernel_dim


def _view(result):
    sym, kernel_dim = result
    lam = None if sym is None else [[x.as_strings() for x in row] for row in sym.lam]
    return lam, kernel_dim


@pytest.mark.parametrize("m", list(REGRESSION_PARAMETERS) + ["definite"], ids=str)
def test_solver_matches_the_26_evaluation_oracle(family_package, m):
    # each family member has a unique action at weights 0 and 2; the
    # definite model has a 3-dimensional kernel and no weight-2 action
    if m == "definite":
        pkg, want = build_model(1), {0: (True, 3), 2: (False, 3)}
    else:
        pkg, want = family_package(m), {0: (True, 0), 2: (True, 0)}
    for w in (0, 2):
        got = frame_symmetry_system(pkg, Fraction(w))
        assert _view(got) == _view(_oracle_system(pkg, w))
        assert (got[0] is not None, got[1]) == want[w]


def test_substitution_rejects_a_full_rank_candidate(pkg_half, monkeypatch):
    # rho^3 added to sigma_12 keeps rank L = 25 but leaves no weight-2
    # action: the one solve stops at 25 pivots with a candidate, and the
    # substitution into all residuals rejects it
    rho = CoeffFn.rho(pkg_half.chart.param)
    sigma, mu = slots(pkg_half.phi)
    sigma.set((), (0, 1), sigma.get((), (0, 1)) + rho * rho * rho)
    pkg = replace(pkg_half, phi=tractor_3form(sigma, mu))
    solve, solved = linalg.solve_sparse, []

    def spy(rows, n):
        solved.append(solve(rows, n))
        return solved[-1]

    monkeypatch.setattr(linalg, "solve_sparse", spy)
    monkeypatch.setattr(linalg, "rref", None)
    for w, feasible in ((0, True), (2, False)):
        solved.clear()
        got = frame_symmetry_system(pkg, Fraction(w))
        assert [(x is not None, rank) for x, rank in solved] == [(True, 25)]
        assert (got[0] is not None, got[1]) == (feasible, 0)
    monkeypatch.undo()
    for w in (0, 2):
        assert _view(frame_symmetry_system(pkg, Fraction(w))) == _view(_oracle_system(pkg, w))


@pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(2)], ids=str)
def test_residual_terms_match_the_direct_formula(family_package, m):
    pkg = family_package(m)
    rng = random.Random(f"residuals-{m}")
    for w in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        lam = [[QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                * (SQRT2 if rng.random() < 0.3 else 1) for _ in range(6)] for _ in range(6)]
        sym = FrameSymmetry(lam, w)
        assert symmetry_residuals(pkg, sym) == _direct_residuals(pkg, sym)


def test_residual_terms_list_only_nonzero_coefficients(pkg_half):
    # 814 of the 6,258 (lam entry, coefficient) pairs of the formula are nonzero
    terms = list(_residual_terms(pkg_half))
    assert len(terms) == 341
    assert all(not k.is_zero() for _, pairs in terms for _, k in pairs)
    assert sum(len(pairs) for _, pairs in terms) == 814


def _oracle_rows(pkg):
    """The sparse rows, term by term and exponent by exponent, from 38
    evaluations of the direct formula: column 6a + b is lam[a][b], 36 is w."""
    z = QScalar.zero()
    base = _direct_residuals(pkg, FrameSymmetry([[z] * 6 for _ in range(6)], Fraction(0)))
    assert all(r.is_zero() for r in base)
    cols = []
    for k in range(37):
        lam = [[QScalar.one() if 6 * a + b == k else z for b in range(6)] for a in range(6)]
        cols.append(_direct_residuals(pkg, FrameSymmetry(lam, Fraction(int(k == 36)))))
    rows = []
    for i in range(len(base)):
        for e in sorted({e for col in cols for e in col[i].terms}):
            row = {k: col[i].coeff(e) for k, col in enumerate(cols)}
            rows.append({k: c for k, c in row.items() if not c.is_zero()})
    return rows


def _read(row, sym):
    x = [v for r in sym.lam for v in r] + [QScalar(sym.weight)]
    acc = QScalar.zero()
    for col, c in row.items():
        acc = acc + c * x[col]
    return acc


@pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(2)], ids=str)
def test_residual_rows_match_the_laurent_formula(family_package, m):
    pkg = family_package(m)
    rows = residual_rows(pkg)
    assert rows == _oracle_rows(pkg)
    # read at an action, the rows are the coefficients of the Laurent
    # residuals exponent by exponent: a row whose value is 0 is an exponent
    # that cancels
    rng = random.Random(f"residuals-{m}")
    syms = []
    for w in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        lam = [[QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                * (SQRT2 if rng.random() < 0.3 else 1) for _ in range(6)] for _ in range(6)]
        syms.append(FrameSymmetry(lam, w))
    sym2 = frame_symmetry_system(pkg, Fraction(2))[0]
    bare = FrameSymmetry([r[:5] + [QScalar.zero()] for r in sym2.lam], Fraction(0))
    syms += [sym2, frame_symmetry_system(pkg, Fraction(0))[0], bare]
    for sym in syms:
        residuals = symmetry_residuals(pkg, sym)
        values = [v for v in (_read(row, sym) for row in rows) if not v.is_zero()]
        assert values == [r.terms[e] for r in residuals for e in sorted(r.terms)]
        assert _annihilates(pkg, sym) == all(r.is_zero() for r in residuals)
    assert [_annihilates(pkg, sym) for sym in syms] == [False] * 3 + [True, True, False]
    assert residual_rows(pkg) is rows


def test_bare_sixth_control_fails_on_the_zero_action(pkg_half):
    # the weight-0 action is zero, and zero stripped of its dilation still
    # preserves everything; the weight-2 action stripped of it does not
    sym0 = frame_symmetry_system(pkg_half, Fraction(0))[0]
    sym2 = frame_symmetry_system(pkg_half, Fraction(2))[0]
    assert all(x.is_zero() for row in sym0.lam for x in row)
    assert dilation_negative_control(pkg_half, sym0) is False
    assert dilation_negative_control(pkg_half, sym2) is True
