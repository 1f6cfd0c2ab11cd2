"""Infinitesimal symmetries of the family geometries.

Two layers, matching what is exactly checkable:

* coordinate layer - the seven generating fields on the jet space are
  verified as infinitesimal symmetries of the underlying rank-2
  distribution (bracket membership, exact polynomial arithmetic);
* frame layer - a symmetry candidate acts on the collar package through
  a constant frame matrix lambda plus a dilation weight w on rho; the
  action that preserves the connection, the brackets and the parallel
  3-form (with its weight) is solved for exactly.  The dilation-corrected
  sixth generator admits such an action at weight 2; the uncorrected one
  admits none at weight 0 (the negative control).
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

    def trace(self) -> QScalar:
        t = QScalar.zero()
        for i in range(6):
            t = t + self.lam[i][i]
        return t


def _xi_deriv(f: CoeffFn, w: Fraction) -> CoeffFn:
    return f.d_drho() * CoeffFn.rho(f.param) * QScalar(w)


def symmetry_residuals(pkg: GeometryPackage, sym: FrameSymmetry) -> List[CoeffFn]:
    """All residual components of L_xi applied to brackets, connection and
    the (weight-3) slots of the parallel 3-form."""
    chart = pkg.chart
    n = chart.dim
    lam = sym.lam
    w = sym.weight
    out: List[CoeffFn] = []
    # bracket derivation property
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                acc = _xi_deriv(chart.C[a][b][c], w)
                for e in range(n):
                    acc = acc + lam[a][e] * chart.C[e][b][c]
                    acc = acc + lam[b][e] * chart.C[a][e][c]
                    acc = acc - chart.C[a][b][e] * lam[e][c]
                out.append(acc)
    # connection preservation
    for a in range(n):
        for d in range(n):
            for b in range(n):
                acc = _xi_deriv(chart.G[a][d][b], w)
                for e in range(n):
                    acc = acc + chart.G[a][d][e] * lam[e][b]
                    acc = acc - lam[a][e] * chart.G[e][d][b]
                    acc = acc - lam[d][e] * chart.G[a][e][b]
                out.append(acc)
    # weight-3 slots of the 3-form
    tr = sym.trace()
    wt = QScalar(Fraction(3, 7)) * tr
    sig = pkg.phi.sigma
    for (b, c) in combinations(range(n), 2):
        acc = _xi_deriv(sig.get((), (b, c)), w) + sig.get((), (b, c)) * wt
        for e in range(n):
            acc = acc - lam[b][e] * sig.get((), (e, c))
            acc = acc - lam[c][e] * sig.get((), (b, e))
        out.append(acc)
    mu = pkg.phi.mu
    for (b, c, d) in combinations(range(n), 3):
        acc = _xi_deriv(mu.get((), (b, c, d)), w) + mu.get((), (b, c, d)) * wt
        for e in range(n):
            acc = acc - lam[b][e] * mu.get((), (e, c, d))
            acc = acc - lam[c][e] * mu.get((), (b, e, d))
            acc = acc - lam[d][e] * mu.get((), (b, c, e))
        out.append(acc)
    return out


def _group_block_action(entries: List[QScalar], weight: Fraction) -> FrameSymmetry:
    """The frame action with the given 5x5 group block (row-major entries).

    The collar row/column is forced: [xi, E_a] stays horizontal for the
    group legs and [xi, d/drho] = -weight d/drho."""
    z = QScalar.zero()
    lam = [[z for _ in range(6)] for _ in range(6)]
    for i in range(5):
        for j in range(5):
            lam[i][j] = entries[5 * i + j]
    lam[5][5] = QScalar(-weight)
    return FrameSymmetry(lam, weight)


def frame_symmetry_system(pkg: GeometryPackage,
                          weight: Fraction) -> Tuple[Optional[FrameSymmetry], int]:
    """The weight-`weight` frame action preserving the whole package (None
    if infeasible) and the dimension of the space of group-block actions
    annihilating everything (0: the action is unique in its class).

    The residuals are affine in the 25 block entries, L x + b, and the
    weight enters only b.  One base evaluation and 25 unit perturbations
    give L and b exponent by exponent; one rref of [L | -b] yields the
    solution and rank L, so the kernel dimension 25 - rank L is the same
    at every weight.
    """
    weight = Fraction(weight)
    z = QScalar.zero()
    base = symmetry_residuals(pkg, _group_block_action([z] * 25, weight))
    cols = []
    for k in range(25):
        entries = [z] * 25
        entries[k] = QScalar.one()
        pert = symmetry_residuals(pkg, _group_block_action(entries, weight))
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
    if any(not r.is_zero() for r in symmetry_residuals(pkg, sym)):
        return None, kernel_dim
    return sym, kernel_dim


def solve_frame_symmetry(pkg: GeometryPackage, weight: Fraction) -> Optional[FrameSymmetry]:
    """The constant frame action with this dilation weight; None if infeasible."""
    return frame_symmetry_system(pkg, weight)[0]


def frame_symmetry_kernel_dim(pkg: GeometryPackage, weight: Fraction = Fraction(0)) -> int:
    """Dimension of the space of frame actions annihilating everything."""
    return frame_symmetry_system(pkg, weight)[1]


def dilation_negative_control(pkg: GeometryPackage,
                              sym2: Optional[FrameSymmetry] = None) -> bool:
    """True when the weight-2 symmetry's group action, stripped of its
    rho-dilation, fails to preserve the package (the uncorrected sixth
    generator is not a symmetry)."""
    if sym2 is None:
        sym2 = solve_frame_symmetry(pkg, Fraction(2))
    if sym2 is None:
        return False
    lam0 = [row[:] for row in sym2.lam]
    lam0[5][5] = QScalar.zero()
    bare = FrameSymmetry(lam0, Fraction(0))
    return any(not r.is_zero() for r in symmetry_residuals(pkg, bare))
