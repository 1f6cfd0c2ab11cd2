"""Infinitesimal symmetries of the family geometries.

Two layers, matching what is exactly checkable:

* coordinate layer - the seven generating fields on the jet space are
  verified as infinitesimal symmetries of the underlying rank-2
  distribution (bracket membership, exact polynomial arithmetic);
* frame layer - a symmetry candidate acts on the collar package through
  a constant frame matrix lambda plus a dilation weight w on rho; the
  action that preserves the connection, the brackets and the parallel
  3-form (with its weight) is solved for exactly.  The dilation-corrected
  sixth generator admits a unique such action at weight 2; at weight 0
  only the zero action remains, and the weight-2 group block without its
  dilation fails to preserve the package (`dilation_negative_control`).

The residuals are linear in (lambda, w).  `_residual_terms` states them
once; `residual_rows` turns them into sparse QScalar rows, one per
residual and power of s, once per package.  The solve, its feasibility
check and the negative control all read those rows; `symmetry_residuals`
evaluates the same formula as Laurent functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import linalg
from .coordfields import CoordField, CoordPoly, monge_fields
from .geometry import GeometryPackage
from .laurent import CoeffFn
from .scalars import QScalar


def symmetry_fields(m: Fraction) -> Dict[str, Optional[CoordField]]:
    """The distribution symmetry generators on the jet coordinates.

    The last one involves an antiderivative with an undetermined constant
    (set to zero here) and degenerates at m = 1/2; it is stored for
    export but excluded from assertions.
    """
    m = Fraction(m)
    one = CoordPoly.const(1)
    x, y, p, q, z = (CoordPoly.var(v) for v in "xypqz")
    fields: Dict[str, Optional[CoordField]] = {
        "xi1": CoordField({"x": one}),
        "xi2": CoordField({"y": one}),
        "xi3": CoordField({"y": x, "p": one}),
        "xi4": CoordField({"y": y, "p": p, "q": q, "z": z * QScalar(m)}),
        "xi5": CoordField({"z": one}),
        "xi6": CoordField({"x": x, "y": y * 2, "p": p, "z": z}),
    }
    if m == Fraction(1, 2):
        fields["xi7"] = None
    else:
        qm1 = CoordPoly.var("q", m - 1)
        qm = CoordPoly.var("q", m)
        q2m1 = CoordPoly.var("q", 2 * m - 1)
        fields["xi7"] = CoordField({
            "x": qm1,
            "y": p * qm1 - z * QScalar(Fraction(1, 1) / m),
            "p": qm * QScalar(1 - Fraction(1, 1) / m),
            "z": q2m1 * QScalar(Fraction(m - 1, 1) / (2 * m - 1)),
        })
    return fields


def in_distribution(W: CoordField, F: CoordPoly) -> bool:
    """W lies in ker{dy - p dx, dp - q dx, dz - F dx}?"""
    p, q = CoordPoly.var("p"), CoordPoly.var("q")
    c1 = W.comp("y") - p * W.comp("x")
    c2 = W.comp("p") - q * W.comp("x")
    c3 = W.comp("z") - F * W.comp("x")
    return c1.is_zero() and c2.is_zero() and c3.is_zero()


def is_distribution_symmetry(xi: CoordField, m: Fraction) -> bool:
    F = CoordPoly.var("q", Fraction(m))
    Vq, T = monge_fields(F)
    return in_distribution(xi.bracket(Vq), F) and in_distribution(xi.bracket(T), F)


# -- frame-level symmetry action -----------------------------------------------


@dataclass
class FrameSymmetry:
    lam: List[List[QScalar]]   # 6x6 constant frame action [xi, E_a] = lam_a^b E_b
    weight: Fraction           # action on rho: xi . f = weight * rho * df/drho


def _euler(f: CoeffFn) -> CoeffFn:
    """rho df/drho: the dilation xi acts on f as weight times this."""
    return f.d_drho() * CoeffFn.rho(f.param)


def _residual_terms(pkg: GeometryPackage):
    """The residuals of L_xi applied to the brackets, the connection and the
    weight-3 slots of the parallel 3-form, each as (f, pairs): the residual
    is w rho df/drho + the sum of lam[a][b] K over the pairs ((a, b), K).
    Only pairs with K nonzero are listed.

    The formula is affine in lam; the Laurent evaluator and the sparse rows
    of `residual_rows` both read it from here."""
    chart = pkg.chart
    C, G = chart.C, chart.G
    E = range(chart.dim)
    # each negated coefficient is made once
    nC, nG = ([[[-x for x in r] for r in M] for M in T] for T in (C, G))
    # bracket derivation property
    for a, b in combinations(E, 2):
        for c in E:
            yield C[a][b][c], ([((a, e), K) for e in E if (K := C[e][b][c])]
                               + [((b, e), K) for e in E if (K := C[a][e][c])]
                               + [((e, c), K) for e in E if (K := nC[a][b][e])])
    # connection preservation
    for a in E:
        for d in E:
            for b in E:
                yield G[a][d][b], ([((e, b), K) for e in E if (K := G[a][d][e])]
                                   + [((a, e), K) for e in E if (K := nG[e][d][b])]
                                   + [((d, e), K) for e in E if (K := nG[a][e][b])])
    # weight-3 slots of the 3-form, sigma_{bc} = Phi_{bcX} and then mu_{bcd} =
    # Phi_{bcd}: the trace of lam enters with weight 3/7
    phi, nphi = pkg.phi, -pkg.phi
    for k, x in ((2, (chart.dim,)), (3, ())):
        for idx in combinations(E, k):
            f = phi.get((), idx + x)
            t = f * QScalar(Fraction(3, 7))
            pairs = [((e, e), t) for e in E] if t else []
            for s, b in enumerate(idx):
                pairs += [((b, e), K) for e in E
                          if (K := nphi.get((), idx[:s] + (e,) + idx[s + 1:] + x))]
            yield f, pairs


def symmetry_residuals(pkg: GeometryPackage, sym: FrameSymmetry) -> List[CoeffFn]:
    """All residual components of L_xi applied to brackets, connection and
    the (weight-3) slots of the parallel 3-form, as Laurent functions."""
    w = QScalar(sym.weight)
    out: List[CoeffFn] = []
    for f, pairs in _residual_terms(pkg):
        acc = _euler(f) * w
        for (a, b), k in pairs:
            acc = acc + k * sym.lam[a][b]
        out.append(acc)
    return out


def residual_rows(pkg: GeometryPackage) -> List[Dict[int, QScalar]]:
    """The residuals as sparse rows, one per (term, s-exponent), built once
    per package.

    A row maps the column n a + b of lam[a][b] (n = pkg.dim), and the
    column n^2 of the weight w, to its nonzero coefficient at that power
    of s; the coefficient of w is the term's rho df/drho.  A residual
    vanishes iff each of its rows, read at (lam, w), does: the rows of a
    term list every exponent in the support of its coefficients."""
    rows = pkg._residual_rows
    if rows is None:
        n = pkg.dim
        rows = pkg._residual_rows = []
        for f, pairs in _residual_terms(pkg):
            by_exp: Dict[int, Dict[int, QScalar]] = {e: {n * n: c}
                                                     for e, c in _euler(f).terms.items()}
            for (a, b), k in pairs:
                col = n * a + b
                for e, c in k.terms.items():
                    row = by_exp.setdefault(e, {})
                    row[col] = row[col] + c if col in row else c
            for e in sorted(by_exp):
                row = {col: c for col, c in by_exp[e].items() if c}
                if row:
                    rows.append(row)
    return rows


def _annihilates(pkg: GeometryPackage, sym: FrameSymmetry) -> bool:
    """Does sym preserve the package?  Every row of `residual_rows` is zero
    at (lam, w), exactly as every Laurent residual of
    `symmetry_residuals(pkg, sym)` is zero."""
    x = [v for row in sym.lam for v in row] + [QScalar(sym.weight)]
    for row in residual_rows(pkg):
        acc = None
        for col, c in row.items():
            if x[col]:
                acc = c * x[col] if acc is None else acc + c * x[col]
        if acc:
            return False
    return True


def _group_block_action(entries: List[QScalar], weight: Fraction) -> FrameSymmetry:
    """The frame action with the given 5x5 group block (row-major entries).

    The collar row/column is forced: [xi, E_a] stays horizontal for the
    group legs and [xi, d/drho] = -weight d/drho."""
    z = QScalar.zero()
    lam = [list(entries[5 * i:5 * i + 5]) + [z] for i in range(5)]
    return FrameSymmetry(lam + [[z] * 5 + [QScalar(-weight)]], weight)


def frame_symmetry_system(pkg: GeometryPackage,
                          weight: Fraction) -> Tuple[Optional[FrameSymmetry], int]:
    """The weight-`weight` frame action preserving the whole package (None
    if infeasible) and the dimension of the space of group-block actions
    annihilating everything (0: the action is unique in its class).

    The residuals are affine in the 25 block entries, L x + b: the forced
    collar entries (lam[5][5] = -weight, the rest 0) and the weight enter
    only b.  Each row of `residual_rows` gives one sparse row of [L | -b].
    One sparse solve gives rank L and a candidate (the only one when
    rank L = 25, kernel dimension 0 at every weight); the candidate is
    feasible when every row vanishes at it.
    """
    weight = Fraction(weight)
    n = pkg.dim
    block = {n * i + j: 5 * i + j for i in range(5) for j in range(5)}
    forced = {n * n - 1: QScalar(-weight), n * n: QScalar(weight)} if weight else {}
    rows = []
    for row in residual_rows(pkg):
        out, b = {}, None
        for col, c in row.items():
            if col in block:
                out[block[col]] = c
            elif col in forced:
                b = c * forced[col] if b is None else b + c * forced[col]
        if b:
            out[25] = -b
        if out:
            rows.append(out)
    sol, rank = linalg.solve_sparse(rows, 25)
    sym = None if sol is None else _group_block_action(sol, weight)
    if sym is not None and not _annihilates(pkg, sym):
        sym = None
    return sym, 25 - rank


def solve_frame_symmetry(pkg: GeometryPackage, weight: Fraction) -> Optional[FrameSymmetry]:
    """The constant frame action with this dilation weight; None if infeasible."""
    return frame_symmetry_system(pkg, weight)[0]


def frame_symmetry_kernel_dim(pkg: GeometryPackage, weight: Fraction = Fraction(0)) -> int:
    """Dimension of the space of frame actions annihilating everything."""
    return frame_symmetry_system(pkg, weight)[1]


def dilation_negative_control(pkg: GeometryPackage, sym2: Optional[FrameSymmetry]) -> bool:
    """True when the weight-2 symmetry's group action, stripped of its
    rho-dilation (lam[5][5] = 0, w = 0), fails to preserve the package: some
    row of `residual_rows` is nonzero there, so the uncorrected sixth
    generator is not a symmetry.  False when there is no weight-2
    symmetry (sym2 is None)."""
    if sym2 is None:
        return False
    lam0 = [row[:] for row in sym2.lam]
    lam0[5][5] = QScalar.zero()
    return not _annihilates(pkg, FrameSymmetry(lam0, Fraction(0)))
