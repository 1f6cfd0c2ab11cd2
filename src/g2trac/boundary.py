"""Zero-locus geometry: conformal restriction, the degenerate endomorphism,
the rank-2 distribution and its bracket growth, and the splitting operator
that rebuilds the parallel tractor 3-form from its boundary 2-form slot.

The boundary tractors have 7 slots: tangent Z_0..Z_4, then Y = 5 and
X = 6, the slots the collar leg 5 and the density leg 6 of the ambient
tractor bundle restrict to.  The boundary tractor 3-form is the ambient
Phi at s = 0 on these legs (BoundaryData.phi0), and bgg_split returns its
rebuild on the same legs.  The normal conformal tractor connection of
the boundary is built from g0 alone (conformal_tractor_connection).  The
ambient tractor connection at s = 0 is checked against it, entry for entry
(boundary_connection_checks), and the boundary tractor 3-form is
differentiated with it on the 5-dim chart (conformal_parallel_defect).

Each derived matrix is made once: the boundary data carry ker J0, which
the rank, kernel and kernel-span checks read; the boundary 2-form
omega0 = Phi_abX is read from phi0; and g0^-1 is the metric_inverse of
the Levi-Civita chart of g0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .frames import FrameChart
from .laurent import PLAIN, CoeffFn
from .octonions import NullFiltration
from .scalars import QScalar
from .tensors import ALT, NONE, SYM, AltTensor, _scatter, _tensor, sort_with_sign
from .geometry import GeometryPackage
from .tractor import tractor_connection


@dataclass
class ConformalChart:
    chart: FrameChart          # 5-dim Levi-Civita chart of g0 (chart.metric_inverse = g0^-1)
    g0: AltTensor              # representative metric (constant frame components)
    schouten: AltTensor        # conformal Schouten of g0

    @property
    def dim(self):
        return 5


@dataclass
class BoundaryData:
    conformal: ConformalChart
    phi0: AltTensor            # Phi at s = 0 on the slots Z_0..Z_4, Y = 5, X = 6
    J0: List[List[QScalar]]    # degenerate endomorphism of TM0
    kerJ0: List[List[QScalar]]  # nullspace basis of J0
    Jtr0: List[List[QScalar]]  # full 7x7 tractor endomorphism at s = 0
    H0: List[List[QScalar]]    # tractor metric at s = 0


def _eval0(f: CoeffFn) -> QScalar:
    return f.eval(QScalar.zero())


def _metric_trace(ginv, T: AltTensor, i: int, j: int) -> dict:
    """g^{kl} T_{..k..l..} over the covariant slots i < j of T, scattered
    from T's raw components: {the other indices of T: value}."""
    acc = {}
    for (_, idx), v in T.raw_items():
        w = ginv[idx[i]][idx[j]]
        if not w.is_zero():
            _scatter(acc, idx[:i] + idx[i + 1:j] + idx[j + 1:], w * v)
    return acc


def conformal_schouten(chart: FrameChart, g: AltTensor) -> AltTensor:
    """(1/(d-2)) (Ric - Sc/(2(d-1)) g) for the Levi-Civita chart of g."""
    d = chart.dim
    ric = chart.ricci()
    sc = _metric_trace(chart.metric_inverse, ric, 0, 1).get((), chart.zero())
    pref = chart.lift(Fraction(1, d - 2))
    trace_pref = chart.lift(Fraction(1, 2 * (d - 1)))
    acc = dict(ric.comps)
    if not sc.is_zero():
        for key, v in g.raw_items():
            _scatter(acc, key, v * sc * trace_pref, -1)
    return _tensor(d, 0, 2, NONE, chart.zero(), {k: v * pref for k, v in acc.items()})


def restrict_to_zero_locus(pkg: GeometryPackage) -> BoundaryData:
    """Conformal data induced on the zero locus s = 0."""
    n = pkg.dim
    if n != 6:
        raise ValueError("zero-locus restriction expects a 6-dimensional package")
    tau0 = pkg.tau.eval(QScalar.zero())
    if not tau0.is_zero():
        raise ValueError("empty zero locus: tau does not vanish at s = 0")
    Hm = [[_eval0(v) for v in row] for row in pkg.H.as_matrix()]
    # boundary chart: the group directions with their brackets, Levi-Civita of g0
    base = FrameChart(5, PLAIN, rho_directions=())
    for a in range(5):
        for b in range(a + 1, 5):
            comps = {}
            for c in range(6):
                v = pkg.chart.C[a][b][c]
                if not v.is_zero():
                    if c >= 5:
                        raise ValueError("boundary brackets leave the zero locus")
                    comps[c] = _eval0(v)
            if comps:
                base.set_bracket(a, b, comps)
    g0 = AltTensor.from_matrix([[base.lift(v) for v in row[:5]] for row in Hm[:5]],
                               5, 0, SYM, base.zero())
    lc = base.levi_civita(g0)
    P0 = conformal_schouten(lc, g0)
    conf = ConformalChart(lc, g0, P0)

    phi0 = _tensor(7, 0, 3, ALT, None, {key: _eval0(v) for key, v in pkg.phi.comps.items()})

    Jtr0 = [[_eval0(v) for v in row] for row in pkg.Jt]
    J0 = [[Jtr0[a][b] for b in range(5)] for a in range(5)]
    # the endomorphism must stabilize the boundary tangent space
    for b in range(5):
        if not Jtr0[5][b].is_zero():
            raise ValueError("J does not restrict tangentially to the zero locus")
    return BoundaryData(conf, phi0, J0, linalg.nullspace(J0), Jtr0, Hm)


# -- distribution extraction -------------------------------------------------


@dataclass
class Distribution235:
    d_basis: List[list]
    bracket_basis: List[list]
    growth: Tuple[int, int, int]


def distribution_from_J0(bd: BoundaryData) -> List[list]:
    """D = im J0 as row vectors in the boundary frame."""
    cols = linalg.transpose(bd.J0)
    return linalg.row_space(cols)


def distribution_from_omega(bd: BoundaryData) -> List[list]:
    """D = ker(omega restricted over M0) inside the full 6-dim tangent space;
    the kernel is tangent to the zero locus and returned in the 5-dim frame."""
    ker = linalg.nullspace([[bd.phi0.get((), (a, b, 6)) for a in range(6)] for b in range(6)])
    out = []
    for v in ker:
        if not v[5].is_zero():
            raise ValueError("kernel of the 2-form is not tangent to the zero locus")
        out.append(v[:5])
    return linalg.row_space(out)


def declared_distribution() -> List[list]:
    """The span of the last two frame directions, in reduced row echelon form."""
    z, o = QScalar.zero(), QScalar.one()
    return [[z, z, z, o, z], [z, z, z, z, o]]


def bracket_closure(chart: FrameChart, basis: List[list]) -> List[list]:
    """Span of basis together with pairwise brackets (constant components)."""
    fields = [[CoeffFn.of(v, chart.param) for v in vec] for vec in basis]
    rows = [list(vec) for vec in basis]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            br = chart.bracket(fields[i], fields[j])
            rows.append([b.constant_value() for b in br])
    return linalg.row_space(rows)


def extract_distribution(bd: BoundaryData) -> Distribution235:
    """The rank-2 distribution on the zero locus, computed three ways.

    im J0, ker omega|_{M0} and the declared span must agree exactly;
    disagreement raises an internal-consistency error.  Each way gives
    the span's reduced row echelon basis, which is unique, so equal
    subspaces are equal lists.
    """
    d1 = distribution_from_J0(bd)
    d2 = distribution_from_omega(bd)
    d3 = declared_distribution()
    if not d1 == d2 == d3:
        raise RuntimeError("distribution characterizations disagree (im J0 / ker omega / declared)")
    lc = bd.conformal.chart
    step2 = bracket_closure(lc, d1)
    step3 = bracket_closure(lc, step2)
    growth = (len(d1), len(step2), len(step3))
    return Distribution235(d1, step2, growth)


def _spans_ker_J0(bd: BoundaryData, B: List[list]) -> bool:
    """Do the rows of B span ker J0?  J0 kills them and their rank is its nullity."""
    return linalg.kills(bd.J0, B) and linalg.rank(B) == len(bd.kerJ0)


def distribution_checks(bd: BoundaryData, dist: Distribution235) -> Dict[str, bool]:
    out = {}
    out["growth_235"] = dist.growth == (2, 3, 5)
    # [D,D] = ker J0
    out["bracket_equals_ker_J0"] = _spans_ker_J0(bd, dist.bracket_basis)
    # [D,D] = ker(iota* omega)
    omega0 = [[bd.phi0.get((), (a, b, 6)) for a in range(5)] for b in range(5)]
    out["bracket_equals_ker_pullback"] = linalg.spans_kernel(dist.bracket_basis, omega0)
    # D-perp (w.r.t. g0) = [D,D]
    g0q = [[v.constant_value() for v in row] for row in bd.conformal.g0.as_matrix()]
    perp_rows = [linalg.mat_vec(g0q, v) for v in dist.d_basis]
    out["perp_equals_bracket"] = linalg.spans_kernel(dist.bracket_basis, perp_rows)
    # total nullity of D
    out["g0_kills_D_bracket_pairs"] = linalg.kills(perp_rows, dist.bracket_basis)
    # omega0 decomposable with bivector spanning D: rank of omega0 is 2
    out["omega0_rank_2"] = linalg.rank(omega0) == 2
    return out


def j0_checks(bd: BoundaryData) -> Dict[str, bool]:
    """Pointwise facts about the degenerate endomorphisms at the boundary."""
    out = {}
    J0 = bd.J0
    J0sq = linalg.mat_mul(J0, J0)
    out["J0_squared_zero"] = all(v.is_zero() for row in J0sq for v in row)
    # rank-nullity on the 5x5 J0
    out["J0_rank_2"] = 5 - len(bd.kerJ0) == 2
    out["J0_kernel_dim_3"] = len(bd.kerJ0) == 3
    Jt = bd.Jtr0
    H0 = bd.H0
    # Jtr^2 = X (x) X_flat (tau = 0 on the boundary)
    J2 = linalg.mat_mul(Jt, Jt)
    ok = True
    for A in range(7):
        for B in range(7):
            want = H0[B][6] if A == 6 else QScalar.zero()
            if not (J2[A][B] - want).is_zero():
                ok = False
    out["Jtractor_squared_is_XX"] = ok
    # the null filtration <X> < ker < ker-perp = im < X-perp, dims (1,3,4,6)
    X = [QScalar.zero()] * 6 + [QScalar.one()]
    filt = NullFiltration(Jt, H0, X)
    out["tractor_kernel_dim_3"] = len(filt.kernel) == 3
    out["tractor_image_dim_4"] = len(filt.image) == 4
    out["X_in_kernel"] = linalg.kills(Jt, [X])
    out["image_is_kernel_perp"] = linalg.spans_kernel(filt.image, filt.equations["kernel_perp"])
    out["filtration_dims"] = filt.dims() == (1, 3, 4, 6)
    out["filtration_chain"] = filt.chain_ok()
    # varpi projections: varpi(ker Jtr) = im J0, varpi(im Jtr) = ker J0
    out["varpi_ker_is_im_J0"] = linalg.same_subspace([v[:5] for v in filt.kernel],
                                                     linalg.transpose(J0))
    out["varpi_im_is_ker_J0"] = _spans_ker_J0(bd, [v[:5] for v in filt.image])
    return out


def conformal_tractor_connection(conf: ConformalChart) -> List[List[List[CoeffFn]]]:
    """The normal conformal tractor connection of g0: for each boundary
    direction a, the 7x7 connection matrix C of FrameChart.cov_deriv on
    the slots Z_0..Z_4, Y = 5, X = 6:
    C[b][c] = G^c_{ab}, C[b][Y] = -g0_ab, C[b][X] = -P0_ab,
    C[Y][c] = P0_a^c = P0_{ae} g0^{ec}, C[X][a] = 1, zero elsewhere."""
    lc = conf.chart
    z = lc.zero()
    g0, P = conf.g0.as_matrix(), conf.schouten.as_matrix()
    Pup = linalg.mat_mul(P, lc.metric_inverse)
    out = []
    for a in range(5):
        C = [list(lc.G[a][b]) + [-g0[a][b], -P[a][b]] for b in range(5)]
        C.append(Pup[a] + [z, z])
        C.append([lc.one() if c == a else z for c in range(5)] + [z, z])
        out.append(C)
    return out


def boundary_connection_checks(pkg: GeometryPackage, bd: BoundaryData) -> Dict[str, bool]:
    """The ambient tractor connection along each boundary direction is,
    at s = 0 and entry for entry, the conformal tractor connection of g0
    (in the collar normal form the collar leg 5 restricts to Y)."""
    C = conformal_tractor_connection(bd.conformal)
    return {"ambient_connection_is_conformal_tractor_connection": all(
        [[_eval0(v) for v in row] for row in tractor_connection(pkg.chart, a)]
        == [[v.constant_value() for v in row] for row in C[a]] for a in range(5))}


# -- BGG splitting -------------------------------------------------------------


def bgg_split(conf: ConformalChart, omega0: AltTensor) -> AltTensor:
    """Splitting operator on weight-3 boundary 2-forms: the tractor 3-form
    on the slots Z_0..Z_4, Y = 5, X = 6 with, in the scale of the
    representative metric,
      top     X Z Z: omega0
      middle  Z Z Z: alternation of nabla omega0  |  X Y Z: -(1/4) nabla^k omega0_{kc}
      bottom  Y Z Z: -(1/15) nabla^k nabla_k omega0_{bc}
              - (2/15) alt_{bc} nabla^k nabla_{c} omega0_{kb}
              - (1/10) alt_{bc} nabla_{c} nabla^k omega0_{kb}
              - (4/5) P^k_{[b} omega0_{c]k} - (1/5) P^k_k omega0_{bc}
    """
    lc = conf.chart
    n = 5
    z = lc.zero()
    ginv = lc.metric_inverse
    P = conf.schouten
    # t_{a bc} = nabla_a omega_{bc} and s_{a b cd} = nabla_a t_{b cd}
    t = _tensor(n, 0, 3, NONE, z, {((), (a,) + bc): v for a in range(n)
                                   for (_, bc), v in lc.cov_deriv(omega0, a).raw_items()})
    s = _tensor(n, 0, 4, NONE, z, {((), (a,) + idx): v for a in range(n)
                                   for (_, idx), v in lc.cov_deriv(t, a).comps.items()})
    psi = t.alternation()
    quarter = lc.lift(Fraction(-1, 4))
    nu = _tensor(n, 0, 1, ALT, z, {((), c): v * quarter
                                   for c, v in _metric_trace(ginv, t, 0, 1).items()})
    trP = _metric_trace(ginv, P, 0, 1).get((), z)
    acc = {}
    # -(1/15) laplacian
    for (b, c), v in _metric_trace(ginv, s, 0, 1).items():
        if b < c:
            _scatter(acc, ((), (b, c)), v * Fraction(-1, 15))
    # T_{xy} - T_{yx} sends T_{xy} to the sorted (x, y) against the sort's sign;
    # each coefficient includes the 1/2 of the alternation:
    # -(2/15) alt_{bc} nabla^k nabla_c omega_{kb}, -(1/10) alt_{bc} nabla_c nabla^k omega_{kb}
    # and -(4/5) P^k_{[b} omega_{c]k}, with M_{cb} = omega_{ck} P^k_b
    M = linalg.mat_mul(omega0.as_matrix(), linalg.mat_mul(ginv, P.as_matrix()))
    skew = [(_metric_trace(ginv, s, 0, 2), Fraction(-1, 15)),
            (_metric_trace(ginv, s, 1, 2), Fraction(-1, 20)),
            ({(x, y): v for x, row in enumerate(M) for y, v in enumerate(row)}, Fraction(-2, 5))]
    for terms, coeff in skew:
        for xy, v in terms.items():
            key, sign = sort_with_sign(xy)
            if sign:
                _scatter(acc, ((), key), v * coeff, -sign)
    # -(1/5) P^k_k omega_{bc}
    for key, v in omega0.comps.items():
        _scatter(acc, key, trP * v * Fraction(-1, 5))
    bottom = _tensor(n, 0, 2, ALT, z, acc)
    F = AltTensor.form(7, 3, z)
    for legs, slot in (((), psi), ((6,), omega0), ((5,), bottom), ((6, 5), nu)):
        for (_, idx), v in slot.comps.items():
            F.set((), legs + idx, v)
    return F


def boundary_3form(bd: BoundaryData) -> AltTensor:
    """phi0 with constant coefficient-function entries."""
    return _tensor(7, 0, 3, ALT, CoeffFn.zero(PLAIN),
                   {key: CoeffFn.of(v, PLAIN) for key, v in bd.phi0.comps.items()})


def bgg_round_trip_defect(bd: BoundaryData) -> AltTensor:
    """bgg_split of the boundary 2-form omega0_{bc} = Phi_{bcX}, minus the
    boundary tractor 3-form."""
    target = boundary_3form(bd)
    omega0 = _tensor(5, 0, 2, ALT, target.zero, {
        ((), K[:2]): v for (_, K), v in target.comps.items() if K[1] < 5 and K[2] == 6})
    return bgg_split(bd.conformal, omega0) - target


def conformal_parallel_defect(F: AltTensor, conf: ConformalChart) -> List[CoeffFn]:
    """Components of nabla_a F of a boundary tractor 3-form F (weight 3)
    along each boundary direction a, with the conformal tractor connection
    of g0 on the 5-dim chart."""
    lc = conf.chart
    return [v for a, C in enumerate(conformal_tractor_connection(conf))
            for v in lc.cov_deriv(F, a, 3, C).comps.values()]
