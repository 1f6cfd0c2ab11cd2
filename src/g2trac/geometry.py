"""Geometry packages: a chart with parallel tractor data and its curved orbits.

A GeometryPackage bundles a framed chart with the tractor 3-form it
carries, the induced tractor metric H, its inverse, the matrix htilde
that H normalises, the squared-length density tau, and the tractor
endomorphism Jt: V -> -X x V.  The operations here
implement the orbit stratification, the open-orbit metric/complex-structure
extraction in the exact square-root parameterization, the full nearly
(para-)Kahler verification battery, projective compactness order
checking, and the collar normal form test.  In the chart scale
g_- = -g_+ entry for entry, so both open orbits have one Levi-Civita
connection and one curvature: levi_civita_collar builds the chart of g_+
once, and the chart of g_- shares its brackets, connection and curvature
with g^-1 negated.  compactness_check reads these charts in rho,
npk_extract (J = g^-1 omega) and npk_verify in s, where the orbit chart's
curvature is the substitution rho = +-s^2 of the one curvature in rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import linalg
from .frames import FrameChart
from .laurent import PLAIN, RHO_MINUS, RHO_PLUS, CoeffFn
from .scalars import DegenerateError, QScalar
from .stable_forms import cross_matrix, htilde_matrix
from .tensors import SYM, AltTensor
from .tractor import ky_symmetrized_derivative, omega_weyl_cycle, slots, tractor_metric_from_phi


@dataclass
class GeometryPackage:
    """A framed chart with its parallel tractor 3-form phi and the data
    read off phi once: H, its inverse Hinv, tau = H_XX and Jt.  The matrix
    htilde of phi that H normalises is carried too (build_package keeps
    the one tractor_metric_from_phi makes); a package built by hand makes
    it from phi on first read of the htilde property."""
    chart: FrameChart
    phi: AltTensor  # the tractor 3-form on the legs 0..n (leg n = X)
    H: AltTensor
    tau: CoeffFn
    Jt: List[List[CoeffFn]]  # the (n+1)x(n+1) tractor endomorphism of jfield_full
    Hinv: List[List[CoeffFn]]  # the inverse matrix of H
    meta: Dict[str, object] = field(default_factory=dict)
    # phi's htilde, read through the htilde property
    _htilde: Optional[List[List[CoeffFn]]] = field(default=None, init=False, compare=False,
                                                   repr=False)
    # side -> Levi-Civita chart of g_side, filled by levi_civita_collar
    _collar: Dict[int, FrameChart] = field(default_factory=dict, init=False, compare=False,
                                           repr=False)
    # the frame-symmetry residuals as sparse rows, built once by
    # symmetries.residual_rows
    _residual_rows: Optional[List[Dict[int, QScalar]]] = field(default=None, init=False,
                                                               compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def htilde(self) -> List[List[CoeffFn]]:
        """htilde_matrix(phi), made on first read unless already carried."""
        if self._htilde is None:
            self._htilde = htilde_matrix(self.phi)
        return self._htilde


def build_package(chart: FrameChart, phi: AltTensor, meta=None) -> GeometryPackage:
    H, Hinv, ht = tractor_metric_from_phi(chart, phi)
    tau = H.as_matrix()[chart.dim][chart.dim]
    pkg = GeometryPackage(chart, phi, H, tau, jfield_full(chart, phi, Hinv), Hinv,
                          dict(meta or {}))
    pkg._htilde = ht
    return pkg


def jfield_full(chart: FrameChart, phi: AltTensor, Hinv):
    """The weighted endomorphism V -> -X x V in tractor components: with
    X = e_n, minus the cross-product matrix of e_n, given the inverse
    matrix Hinv of the tractor metric."""
    return [[-v for v in row] for row in cross_matrix(phi, Hinv, chart.dim)]


def jfield_identity_defects(pkg: GeometryPackage):
    """Defects of J X = 0 and J^2 = -tau id + X (x) X_flat, in components."""
    n = pkg.dim
    Hm = pkg.H.as_matrix()
    defects = []
    # column n is J X
    for A in range(n + 1):
        defects.append(pkg.Jt[A][n])
    J2 = linalg.mat_mul(pkg.Jt, pkg.Jt)
    for A in range(n + 1):
        for B in range(n + 1):
            want = pkg.chart.zero()
            if A == B:
                want = want - pkg.tau
            if A == n:
                want = want + Hm[B][n]
            defects.append(J2[A][B] - want)
    return defects


# -- stratification -------------------------------------------------------------


def orbit_label(sign: int) -> str:
    """The curved orbit of a point from the sign of tau there."""
    return "M+" if sign > 0 else ("M-" if sign < 0 else "M0")


@dataclass
class Stratification:
    tau: CoeffFn
    zero_locus_nonempty: bool
    dtau_nonzero_on_zero_locus: bool
    labels: Dict[str, str]


def stratify(pkg: GeometryPackage, samples: Optional[List[QScalar]] = None) -> Stratification:
    tau = pkg.tau
    if pkg.chart.param != PLAIN:
        raise ValueError("stratify expects the polynomial-in-rho chart")
    if tau.is_zero():
        raise DegenerateError("tau vanishes identically; H is degenerate on X")
    at0 = tau.eval(QScalar.zero())
    zero_nonempty = at0.is_zero()
    dtau = tau.d_drho()
    dtau_ok = not dtau.eval(QScalar.zero()).is_zero() if zero_nonempty else True
    labels = {}
    for s in samples or [QScalar.one(), -QScalar.one()]:
        labels[str(s)] = orbit_label(tau.eval(s).sign())
    return Stratification(tau, zero_nonempty, dtau_ok, labels)


def normal_form_check(pkg: GeometryPackage) -> Dict[str, bool]:
    """H in the chart scale against the collar block form (2rho, drho; drho, g_rho)."""
    n = pkg.dim
    Hm = pkg.H.as_matrix()
    rho = pkg.chart.rho()
    out = {}
    out["corner_is_2rho"] = (Hm[n][n] - rho * 2).is_zero()
    out["mixed_row_is_drho"] = all(
        (Hm[a][n] - (pkg.chart.one() if a == n - 1 else pkg.chart.zero())).is_zero()
        for a in range(n))
    out["g_rho_kills_ddrho"] = all(Hm[n - 1][b].is_zero() for b in range(n - 1))
    out["ok"] = all(out.values())
    return out


# -- open-orbit extraction --------------------------------------------------------


@dataclass
class OrbitStructure:
    side: int                      # +1 (tau > 0) or -1 (tau < 0)
    eps: int                       # +1 para, -1 complex
    chart: FrameChart              # Levi-Civita chart of g in the s-parameterization,
                                   # metric_inverse = g^-1
    g: AltTensor
    J: List[List[CoeffFn]]
    omega: AltTensor


def npk_extract(pkg: GeometryPackage, side: int) -> OrbitStructure:
    """(g, J, omega) on the open orbit where sign(tau) = side, in the exact
    parameterization rho = side * s^2."""
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    nf = normal_form_check(pkg)
    if not nf["ok"]:
        raise ValueError("package tractor metric is not in collar normal form")
    n = pkg.dim
    param = RHO_PLUS if side > 0 else RHO_MINUS
    chart_s = levi_civita_collar(pkg, side).substitute_param(param)
    g = collar_metric(pkg.H.as_matrix(), side, param)
    sigma_s = AltTensor.form(n, 2, chart_s.zero())
    for (_, idx), v in slots(pkg.phi)[0].comps.items():
        sigma_s.set((), idx, v.substitute_rho(param))
    # (+-tau)^(-3/2) = (2 s^2)^(-3/2) = (sqrt2/4) s^-3
    scale = CoeffFn.monomial(QScalar.sqrt2() * Fraction(1, 4), -3, param)
    omega = sigma_s.scale(scale)
    J = linalg.mat_mul(chart_s.metric_inverse, omega.as_matrix())
    eps = -side
    # J^2 = -side id exactly
    J2 = linalg.mat_mul(J, J)
    for a in range(n):
        for b in range(n):
            want = chart_s.lift(-side) if a == b else chart_s.zero()
            if J2[a][b] != want:
                raise RuntimeError("extracted J fails J^2 = -+ id")
    return OrbitStructure(side, eps, chart_s, g, J, omega)


# -- nearly (para-)Kahler verification ----------------------------------------------


@dataclass
class NPKReport:
    eps: int
    hermitian_ok: bool
    ky_residual_zero: bool
    alpha: Optional[QScalar]
    constant_type_ok: bool
    einstein_zero: bool
    scalar_curvature_sign: Optional[int]
    weyl_identity_zero: bool
    nijenhuis_ok: bool
    canonical_torsion_skew: bool
    nabla_j_norm: Optional[QScalar]
    nabla_j_norm_constant: bool
    failures: List[str] = field(default_factory=list)

    def all_ok(self) -> bool:
        return not self.failures


def _nijenhuis_ok(chart: FrameChart, J, JdJ, eps: int) -> bool:
    """The Nijenhuis tensor against 4 J (nabla_U J) V on frame pairs:
    N(E_b, E_c) = -eps [E_b, E_c] - [JE_b, JE_c] + J([JE_b, E_c] + [E_b, JE_c])
    is skew in b, c and [E_b, E_c] = C[b][c], so three brackets per b < c."""
    n = chart.dim
    E = [[chart.one() if i == b else chart.zero() for i in range(n)] for b in range(n)]
    JE = [[J[a][b] for a in range(n)] for b in range(n)]
    N = [[[chart.zero()] * n for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for c in range(b + 1, n):
            t2 = chart.bracket(JE[b], JE[c])
            t3 = chart.bracket(JE[b], E[c])
            t4 = chart.bracket(E[b], JE[c])
            Jt34 = linalg.mat_vec(J, [x + y for x, y in zip(t3, t4)])
            # z - eps x - y, with eps = +-1
            N[b][c] = [(z - x if eps > 0 else z + x) - y
                       for x, y, z in zip(chart.C[b][c], t2, Jt34)]
            N[c][b] = [-x for x in N[b][c]]
    return all(N[b][c][i] == v * 4
               for b in range(n) for c in range(n)
               for i, v in enumerate(row[c] for row in JdJ[b]))


def npk_verify(orbit: OrbitStructure) -> NPKReport:
    chart = orbit.chart
    n = chart.dim
    g, J, omega, eps = orbit.g, orbit.J, orbit.omega, orbit.eps
    failures: List[str] = []
    gm = g.as_matrix()

    # almost eps-Hermitian: g(J., J.) = -eps g
    herm = True
    GJ = linalg.congruence(J, gm)
    for a in range(n):
        for b in range(n):
            if not (GJ[a][b] + gm[a][b] * eps).is_zero():
                herm = False
    if not herm:
        failures.append("hermitian")

    # the orbit's chart is g's Levi-Civita chart if its g^-1 inverts g
    carried = chart.metric_inverse is not None and linalg.mat_mul(
        gm, chart.metric_inverse) == linalg.eye(n, chart.one(), chart.zero())
    lc = chart if carried else chart.levi_civita(g)
    Jt = AltTensor.from_matrix(J, n, 1, zero=chart.zero())
    dJ = [lc.cov_deriv(Jt, a).as_matrix() for a in range(n)]   # dJ[a][k][b] = (nabla_a J)^k_b
    JdJ = [linalg.mat_mul(J, d) for d in dJ]                   # J (nabla_a J)

    # Killing-Yano / nearly Kahler condition
    S = ky_symmetrized_derivative(lc, omega)
    ky_ok = S.is_zero()
    if not ky_ok:
        failures.append("killing-yano")

    # Einstein first: Ric = 5 alpha g pins alpha
    ric = lc.ricci()
    alpha = None
    ein_ok = True
    sc_sign = None
    for a in range(n):
        for b in range(n):
            if alpha is None and not gm[a][b].is_zero():
                q, r = ric.get((), (a, b)).divmod(gm[a][b])
                if r.is_zero() and q.is_constant():
                    alpha = q.constant_value() * Fraction(1, 5)
                else:
                    ein_ok = False
    if alpha is None:
        ein_ok = False
    else:
        for a in range(n):
            for b in range(n):
                if not (ric.get((), (a, b)) - gm[a][b] * (alpha * 5)).is_zero():
                    ein_ok = False
        sc_sign = (alpha * 30).sign()
    if not ein_ok:
        failures.append("einstein")

    # constant type: g((nabla_U J)V, (nabla_U J)V) proportional to the brace
    # {g(U,U)g(V,V) - g(U,V)^2 + eps g(JU,V)^2}; the factor is alpha up to
    # the recorded -eps reconciliation between the printed identity and the
    # Einstein normalization (they agree verbatim in the complex case).
    ct_ok = alpha is not None
    om = omega.as_matrix()
    if ct_ok:
        factor = alpha * QScalar.of(-eps)
        for a in range(n):
            for b in range(n):
                # g(V, V) for V = (nabla_a J) E_b, column b of dJ[a]
                v = [row[b] for row in dJ[a]]
                lhs = linalg.sum_prod(v, linalg.mat_vec(gm, v))
                brace = gm[a][a] * gm[b][b] - gm[a][b] * gm[a][b] \
                    + om[a][b] * om[a][b] * QScalar.of(eps)
                if not (lhs - brace * factor).is_zero():
                    ct_ok = False
    if not ct_ok:
        failures.append("constant-type")

    # projective Weyl identity omega_{k[b} W_{cd]}^k_a = 0
    W = lc.weyl()
    weyl_ok = all(omega_weyl_cycle(omega, W, a).is_zero() for a in range(n))
    if not weyl_ok:
        failures.append("weyl-identity")

    nij_ok = _nijenhuis_ok(chart, J, JdJ, eps)
    if not nij_ok:
        failures.append("nijenhuis")

    # canonical connection torsion eps J (nabla_U J) V, lowered: each
    # T_b = g J nabla_b J is skew, T_b + T_b^T = 0
    can_ok = True
    for b in range(n):
        T = linalg.mat_mul(gm, JdJ[b])
        if any(not (T[c][d] + T[d][c]).is_zero() for c in range(n) for d in range(c, n)):
            can_ok = False
    if not can_ok:
        failures.append("canonical-torsion")

    # <nabla J, nabla J> = sum g^{aa'} <dJ[a], g dJ[a'] g^-1> constant
    ginv = lc.metric_inverse
    lowered = [linalg.mat_mul(linalg.mat_mul(gm, d), ginv) for d in dJ]
    norm = chart.zero()
    for a in range(n):
        for ap in range(n):
            w = ginv[a][ap]
            if not w.is_zero():
                pair = linalg.sum_prod([x for row in dJ[a] for x in row],
                                       [y for row in lowered[ap] for y in row])
                norm = norm + w * pair
    norm_const = norm.is_constant()
    norm_val = norm.constant_value() if norm_const else None
    if not norm_const:
        failures.append("nabla-j-norm")

    return NPKReport(eps, herm, ky_ok, alpha, ct_ok, ein_ok, sc_sign, weyl_ok,
                     nij_ok, can_ok, norm_val, norm_const, failures)


# -- projective compactness --------------------------------------------------------


@dataclass
class CompactnessResult:
    order: Fraction
    regular: bool
    worst_pole: int
    modified_chart: FrameChart


def collar_metric(Hm, side: int, param: str) -> AltTensor:
    """g_side on the collar from the chart-scale tractor metric H (PLAIN):
    g_ab = H_ab side/(2 rho) on the group legs, g = -side/(4 rho^2) drho^2,
    written in the parameterization param."""
    n = len(Hm) - 1
    inv_rho = CoeffFn.rho(param).inverse()
    group = inv_rho * Fraction(side, 2)
    g = AltTensor(n, 0, 2, SYM, CoeffFn.zero(param))
    for a in range(n - 1):
        for b in range(a, n - 1):
            v = Hm[a][b].substitute_rho(param)
            if not v.is_zero():
                g.set((), (a, b), v * group)
    g.set((), (n - 1, n - 1), inv_rho * inv_rho * Fraction(-side, 4))
    return g


def levi_civita_collar(pkg: GeometryPackage, side: int) -> FrameChart:
    """Levi-Civita chart of g_side, with its g^-1, in the polynomial-in-rho
    parameterization, for compactness_check and (through substitute_param)
    npk_extract and npk_verify.  g_- = -g_+ entry for entry, so the chart
    of g_+ is built once per package and the chart of g_- is its
    negated_metric: the same brackets, connection and curvature, g^-1
    negated.  change_scale and substitute_param return new charts, so
    neither cached chart changes."""
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    lc = pkg._collar.get(side)
    if lc is None:
        if side > 0:
            chart = pkg.chart
            lc = chart.levi_civita(collar_metric(pkg.H.as_matrix(), 1, chart.param))
        else:
            lc = levi_civita_collar(pkg, 1).negated_metric()
        pkg._collar[side] = lc
    return lc


def compactness_check(pkg: GeometryPackage, side: int, order: Fraction) -> CompactnessResult:
    """Is nabla^{g_side} + drho/(order * rho) regular across rho = 0?"""
    lc = levi_civita_collar(pkg, side)
    n = lc.dim
    ups = [lc.zero() for _ in range(n)]
    ups[n - 1] = CoeffFn.monomial(Fraction(1, 1) / Fraction(order), -1, lc.param)
    hat = lc.change_scale(ups)
    worst = 0
    for a in range(n):
        for c in range(n):
            for b in range(n):
                v = hat.G[a][c][b]
                if not v.is_zero():
                    worst = min(worst, v.min_exp())
    return CompactnessResult(Fraction(order), worst >= 0, -worst, hat)
