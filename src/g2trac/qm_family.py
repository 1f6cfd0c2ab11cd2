"""The one-parameter family of collar geometries and the flat/definite models.

All structure constants, connection coefficients and tensor displays
are embedded as exact tables parameterized by the rational family
parameter m (m not in {0, 1}).  A re-derivation checksum (the displayed
3-form slot against the exterior derivative of the displayed 2-form)
guards the transcription; see tests.

Index conventions: frame legs E1..E5 span the group directions, E6 is
the collar direction d/drho; 0-based indices everywhere in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .frames import FrameChart
from .laurent import PLAIN, CoeffFn
from .octonions import g2_form
from .scalars import QScalar, SQRT2, SQRT10
from .tensors import ALT, SYM, AltTensor, _tensor
from .tractor import slots, tractor_3form
from .geometry import GeometryPackage, build_package

FLAT_PARAMETERS = (Fraction(-1), Fraction(1, 3), Fraction(2, 3), Fraction(2))
REGRESSION_PARAMETERS = (Fraction(-1), Fraction(1, 3), Fraction(1, 2), Fraction(7, 12),
                         Fraction(2, 3), Fraction(5, 6), Fraction(2), Fraction(3))
# open-orbit sample points s of a family package and of a report that names none
DEFAULT_SAMPLES = (QScalar.one(), QScalar(Fraction(1, 2)), QScalar(2))


@dataclass
class FamilyParams:
    m: Fraction
    samples: Tuple[QScalar, ...] = ()

    def __post_init__(self):
        self.m = Fraction(self.m)
        if self.m in (Fraction(0), Fraction(1)):
            raise ValueError("the family parameter m must avoid 0 and 1")
        if not self.samples:
            self.samples = DEFAULT_SAMPLES
        for s in self.samples:
            if QScalar.of(s).is_zero():
                raise ValueError("open-orbit sample points must avoid s = 0")


def _m_tables(m: Fraction):
    m = QScalar(m)
    one = QScalar.one()
    k = (m + 1) * (m - 2)
    c_big = SQRT10 * Fraction(1, 6) * (m * m * 3 + m * 3 + 2) * (m + 1)
    c_76 = SQRT2 * Fraction(1, 4) * (m + 1) * (m * 7 + 6)
    c_314 = SQRT2 * Fraction(1, 4) * (m * 3 + 14) * (m + 1)
    c_m1sq = SQRT10 * Fraction(1, 3) * (m - 1) * (m - 1) * m.inverse()
    return m, one, k, c_big, c_76, c_314, c_m1sq


def family_brackets(m: Fraction) -> Dict[Tuple[int, int], Dict[int, QScalar]]:
    """Nonzero brackets [E_a, E_b] = sum over c, 1-based keys."""
    mq, one, k, c_big, c_76, c_314, c_m1sq = _m_tables(m)
    th = SQRT2 * Fraction(3, 2)
    return {
        (1, 3): {2: -c_76},
        (1, 4): {2: -SQRT10 * (mq + 1)},
        (1, 5): {1: SQRT10, 2: c_m1sq, 3: SQRT2 * k, 4: -c_big},
        (2, 5): {2: -SQRT10},
        (3, 4): {2: -th},
        (3, 5): {1: th, 4: -c_314},
        (4, 5): {3: SQRT2 * 2, 4: -SQRT10 * (mq + 2)},
    }


def family_connection(m: Fraction):
    """Entries (a, c, b) -> coefficient with nabla_{E_a} E_c having an E_b
    component; rho-linear entries are returned separately as (a, c, b) -> coeff."""
    mq, one, k, c_big, c_76, c_314, c_m1sq = _m_tables(m)
    const = {
        (1, 1, 2): c_big,
        (1, 5, 4): -c_big,
        (1, 4, 6): -one,
        (2, 5, 6): -one,
        (3, 5, 1): SQRT2 * Fraction(1, 2),
        (3, 1, 2): c_76,
        (3, 4, 2): -SQRT2 * Fraction(1, 2),
        (3, 5, 4): -c_76,
        (3, 3, 6): one,
        (4, 1, 2): SQRT10 * (mq + 1),
        (4, 3, 2): SQRT2,
        (4, 5, 3): SQRT2,
        (4, 5, 4): -SQRT10 * (mq + 1),
        (4, 1, 6): -one,
        (5, 1, 1): -SQRT10,
        (5, 3, 1): -SQRT2,
        (5, 1, 2): -c_m1sq,
        (5, 2, 2): SQRT10,
        (5, 6, 2): -k,
        (5, 1, 3): -SQRT2 * k,
        (5, 4, 3): -SQRT2,
        (5, 3, 4): -SQRT2 * k,
        (5, 4, 4): SQRT10,
        (5, 5, 4): c_m1sq,
        (5, 5, 5): -SQRT10,
        (5, 2, 6): -one,
        (6, 5, 2): -k,
    }
    rho_linear = {
        (5, 5, 2): -SQRT10 * 2 * k,
    }
    return const, rho_linear


def family_chart(m: Fraction) -> FrameChart:
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    for (a, b), comps in family_brackets(m).items():
        chart.set_bracket(a - 1, b - 1, {c - 1: v for c, v in comps.items()})
    const, rho_linear = family_connection(m)
    rho = chart.rho()
    merged: Dict[Tuple[int, int], Dict[int, CoeffFn]] = {}
    for (a, c, b), v in const.items():
        merged.setdefault((a - 1, c - 1), {})[b - 1] = chart.lift(v)
    for (a, c, b), v in rho_linear.items():
        d = merged.setdefault((a - 1, c - 1), {})
        d[b - 1] = d.get(b - 1, chart.zero()) + chart.lift(v) * rho
    for (a, c), comps in merged.items():
        chart.set_gamma(a, c, comps)
    return chart


def family_2form(m: Fraction, chart: FrameChart) -> AltTensor:
    """The displayed weight-3 2-form in the chart scale."""
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    rho = chart.rho()
    sigma = AltTensor.form(6, 2, chart.zero())
    sigma.set((), (0, 1), chart.lift(SQRT2))
    sigma.set((), (0, 4), chart.lift(-SQRT2 * k) * rho)
    sigma.set((), (3, 4), chart.lift(SQRT2) * rho)
    sigma.set((), (2, 5), chart.lift(-1))
    return sigma


def family_3form_slot(m: Fraction, chart: FrameChart) -> AltTensor:
    """The displayed third of the exterior derivative of the 2-form."""
    mu = AltTensor.form(6, 3, chart.zero())
    mu.set((), (0, 2, 3), chart.lift(-1))
    mu.set((), (1, 2, 4), chart.lift(-1))
    mu.set((), (3, 4, 5), chart.lift(SQRT2))
    return mu


def expected_tractor_metric(m: Fraction, chart: FrameChart) -> AltTensor:
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    rho = chart.rho()
    H = AltTensor(7, 0, 2, SYM, chart.zero())
    H.set((), (6, 6), rho * 2)
    H.set((), (5, 6), chart.one())
    H.set((), (0, 3), chart.one())
    H.set((), (1, 4), chart.one())
    H.set((), (2, 2), chart.lift(-1))
    H.set((), (4, 4), chart.lift(-2 * k) * rho)
    return H


def displayed_endomorphism(m: Fraction, chart: FrameChart):
    """The displayed (chi, J) pair of the weighted tractor endomorphism.

    The library computes -X x (.) from (Phi, H); the display equals its
    negative (a recorded overall sign slip in the source data)."""
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    rho = chart.rho()
    z = chart.zero()
    J = [[z for _ in range(6)] for _ in range(6)]
    J[2][5] = chart.lift(-1)
    J[3][1] = chart.lift(-SQRT2)
    J[4][0] = chart.lift(SQRT2)
    J[0][4] = chart.lift(-SQRT2) * rho
    J[1][0] = chart.lift(SQRT2 * k) * rho
    J[1][3] = chart.lift(SQRT2) * rho
    J[3][4] = chart.lift(SQRT2 * k) * rho
    J[5][2] = chart.lift(2) * rho
    chi = [z, z, chart.lift(-1), z, z, z]
    return chi, J


def displayed_orbit_metric(m: Fraction, side: int, param) -> AltTensor:
    """Closed form of g_side in the rho = side*s^2 parameterization."""
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    g = AltTensor(6, 0, 2, SYM, CoeffFn.zero(param))
    half = CoeffFn.monomial(Fraction(1, 2), -2, param)
    g.set((), (0, 3), half)
    g.set((), (1, 4), half)
    g.set((), (2, 2), -half)
    # -2 k rho / (2 (side * rho)) = -side * k
    g.set((), (4, 4), CoeffFn.of(-k * side, param))
    g.set((), (5, 5), CoeffFn.monomial(Fraction(-side, 4), -4, param))
    return g


def displayed_orbit_kahler_form(m: Fraction, side: int, param) -> AltTensor:
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    om = AltTensor.form(6, 2, CoeffFn.zero(param))
    om.set((), (0, 1), CoeffFn.monomial(Fraction(1, 2), -3, param))
    om.set((), (2, 5), CoeffFn.monomial(-SQRT2 * Fraction(1, 4), -3, param))
    om.set((), (0, 4), CoeffFn.monomial(k * Fraction(-side, 2), -1, param))
    om.set((), (3, 4), CoeffFn.monomial(QScalar(Fraction(side, 2)), -1, param))
    return om


def displayed_orbit_complex_structure(m: Fraction, side: int, param):
    k = (QScalar(m) + 1) * (QScalar(m) - 2)
    z = CoeffFn.zero(param)
    J = [[z for _ in range(6)] for _ in range(6)]

    def mono(c, e):
        return CoeffFn.monomial(c, e, param)

    sgn = QScalar.of(side)
    # side * s * [E1(x)e5 - k E2(x)e1 - E2(x)e4 - k E4(x)e5 - sqrt2 d/drho(x)e3]
    J[0][4] = mono(sgn, 1)
    J[1][0] = mono(-sgn * k, 1)
    J[1][3] = mono(-sgn, 1)
    J[3][4] = mono(-sgn * k, 1)
    J[5][2] = mono(-sgn * SQRT2, 1)
    # s^-1 * [(1/sqrt2) E3(x)drho + E4(x)e2 - E5(x)e1]
    J[2][5] = J[2][5] + mono(SQRT2 * Fraction(1, 2), -1)
    J[3][1] = J[3][1] + mono(QScalar.one(), -1)
    J[4][0] = J[4][0] + mono(QScalar(-1), -1)
    return J


def build_qm(params: FamilyParams) -> GeometryPackage:
    chart = family_chart(params.m)
    phi = tractor_3form(family_2form(params.m, chart), family_3form_slot(params.m, chart))
    pkg = build_package(chart, phi, meta={
        "kind": "qm", "m": params.m, "samples": params.samples,
        "flat_expected": params.m in FLAT_PARAMETERS,
    })
    return pkg


def dw_checksum_defect(pkg: GeometryPackage) -> AltTensor:
    """(1/3) d(sigma) minus the stored 3-form slot; transcription guard."""
    third = pkg.chart.lift(Fraction(1, 3))
    sigma, mu = slots(pkg.phi)
    return pkg.chart.d_exterior(sigma).scale(third) - mu


# -- models ------------------------------------------------------------------


def model_3form(xi: int, chart: FrameChart) -> AltTensor:
    """Constant algebraic 3-form of the homogeneous model over a flat chart:
    the octonions' g2_form, whose last leg is the distinguished unit/
    pseudo-unit direction X, lifted to the chart's coefficient ring."""
    return _tensor(7, 0, 3, ALT, chart.zero(),
                   {key: chart.lift(v) for key, v in g2_form(xi).comps.items()})


def build_model(xi: int, params: Optional[FamilyParams] = None) -> GeometryPackage:
    """Homogeneous model packages.

    xi=+1: the definite model as constant algebraic data over the flat
    affine chart (algebraic checks run exactly; the transverse-parallelism
    battery is reported as skipped for it since the honest parallel form
    leaves the one-variable coefficient ring).  xi=-1: the split model,
    reached as the locally flat member m = 2/3 of the family.
    """
    if xi == -1:
        return build_qm(params or FamilyParams(Fraction(2, 3)))
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    phi = model_3form(1, chart)
    return build_package(chart, phi, meta={"kind": "model", "xi": 1, "algebraic_only": True})
