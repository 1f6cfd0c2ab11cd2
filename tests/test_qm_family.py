from fractions import Fraction

import pytest

from g2trac.geometry import build_package, npk_extract, npk_verify
from g2trac.qm_family import (FLAT_PARAMETERS, REGRESSION_PARAMETERS, FamilyParams,
                              dw_checksum_defect, family_brackets, family_chart)
from g2trac.scalars import QScalar, SQRT2, SQRT10
from g2trac.tractor import d_tractor_3form, slots, tractor_3form


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(Fraction(0))
    with pytest.raises(ValueError):
        FamilyParams(Fraction(1))
    with pytest.raises(ValueError):
        FamilyParams(Fraction(1, 2), samples=(QScalar.zero(),))
    assert FamilyParams(Fraction(1, 2)).samples


def test_family_params_have_no_xi_knob():
    # the family is the split one; build_model(+1) is the definite route
    with pytest.raises(TypeError):
        FamilyParams(Fraction(1, 2), xi=1)


def test_bracket_spot_values():
    br = family_brackets(Fraction(1, 2))
    assert br[(2, 5)][2] == -SQRT10
    assert br[(4, 5)][3] == 2 * SQRT2
    # the corrected coefficient forced by the Jacobi identity
    assert br[(3, 5)][1] == QScalar(Fraction(3, 2)) * SQRT2


def test_jacobi_forces_corrected_bracket():
    chart = family_chart(Fraction(1, 2))
    assert chart.is_jacobi()
    bad = family_chart(Fraction(1, 2))
    bad.set_bracket(2, 4, {0: QScalar(Fraction(3, 4)) * SQRT2,
                           3: bad.C[2][4][3].constant_value()})
    assert not bad.is_jacobi()


def test_transcription_checksum(family_package):
    for m in (Fraction(1, 2), Fraction(3)):
        assert dw_checksum_defect(family_package(m)).is_zero()


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_parallel_3form_all_directions(family_package, m):
    pkg = family_package(m)
    for a in range(6):
        assert d_tractor_3form(pkg.chart, pkg.phi, a).is_zero()


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_flatness_discrimination(family_package, m):
    pkg = family_package(m)
    assert pkg.chart.is_projectively_flat() == (m in FLAT_PARAMETERS)


def test_einstein_fixtures(family_package):
    # alpha = +-1 and <nabla J, nabla J> = 24, independent of m: frozen
    # regression values computed by this library
    for m in (Fraction(1, 2), Fraction(3)):
        pkg = family_package(m)
        for side in (1, -1):
            rep = npk_verify(npk_extract(pkg, side))
            assert rep.all_ok()
            assert rep.alpha == QScalar(side)
            assert rep.nabla_j_norm == QScalar(24)


def test_perturbed_3form_fails_parallelism_but_not_algebra(pkg_half):
    # exact noise in one slot: transverse parallelism must fail while the
    # purely algebraic checks still pass
    chart = pkg_half.chart
    sigma, mu = slots(pkg_half.phi)
    sigma.set((), (0, 2), sigma.get((), (0, 2)) + chart.one())
    bad = build_package(chart, tractor_3form(sigma, mu))
    assert any(not d_tractor_3form(chart, bad.phi, a).is_zero() for a in range(6))
    # algebra-only checks still fine
    from g2trac.geometry import jfield_identity_defects
    from support import recompute_H_defect
    assert all(v.is_zero() for v in recompute_H_defect(bad))
    assert all(v.is_zero() for v in jfield_identity_defects(bad))
    assert chart.is_jacobi() and chart.is_torsion_free()
