from dataclasses import replace
from fractions import Fraction

import pytest

from g2trac import frames, geometry, linalg, stable_forms, symmetries, tractor
from g2trac import verify as battery
from g2trac.geometry import (NPKReport, collar_metric, compactness_check,
                             jfield_identity_defects, levi_civita_collar, normal_form_check,
                             npk_extract, npk_verify, stratify)
from g2trac.laurent import PLAIN, RHO_MINUS, RHO_PLUS, CoeffFn
from g2trac.qm_family import (REGRESSION_PARAMETERS, FamilyParams, build_model, build_qm,
                              displayed_endomorphism, displayed_orbit_complex_structure,
                              displayed_orbit_kahler_form, displayed_orbit_metric,
                              expected_tractor_metric)
from g2trac.scalars import QScalar
from g2trac.tensors import AltTensor
from g2trac.tractor import (phi_volume_ratio, scale_3form, tractor_metric_hhdef,
                            tractor_volume)
from support import exact_upsilon, recompute_H_defect


def copy_tensor(t: AltTensor) -> AltTensor:
    out = AltTensor(t.dim, t.n_up, t.n_down, t.sym, t.zero)
    out.comps = dict(t.comps)
    return out


def test_tractor_metric_matches_display(pkg_half):
    exp = expected_tractor_metric(Fraction(1, 2), pkg_half.chart)
    assert (pkg_half.H - exp).is_zero()
    assert (pkg_half.tau - pkg_half.chart.rho() * 2).is_zero()


def test_H_recomputed_from_phi_coincides(pkg_half):
    assert all(v.is_zero() for v in recompute_H_defect(pkg_half))


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_orientation_ratio_and_hhdef_cross_check(family_package, m):
    pkg = family_package(m)
    ratio = phi_volume_ratio(pkg.chart, pkg.phi, pkg.Hinv)
    assert ratio == CoeffFn.of(QScalar(Fraction(-1, 210)), pkg.chart.param)
    H2 = tractor_metric_hhdef(pkg.chart, pkg.phi, -1)
    assert (H2 - pkg.H).is_zero()
    assert (tractor_metric_hhdef(pkg.chart, pkg.phi, 1) + pkg.H).is_zero()


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_orientation_ratio_at_every_regression_parameter(family_package, m):
    pkg = family_package(m)
    ratio = phi_volume_ratio(pkg.chart, pkg.phi, pkg.Hinv)
    assert ratio == CoeffFn.of(QScalar(Fraction(-1, 210)), pkg.chart.param)


def _count_htilde(monkeypatch):
    # the normalisation calls stable_forms' name, the package property geometry's
    calls = []
    original = stable_forms.htilde_matrix

    def counted(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(stable_forms, "htilde_matrix", counted)
    monkeypatch.setattr(geometry, "htilde_matrix", counted, raising=False)
    return calls


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_package_carries_the_htilde_of_phi(family_package, m):
    pkg = family_package(m)
    assert pkg.htilde == stable_forms.htilde_matrix(pkg.phi)
    # the battery's ratio reads the carried htilde; phi_volume_with rebuilds it
    want = stable_forms.phi_volume_with(pkg.phi, pkg.Hinv)
    assert stable_forms.phi_volume_with(pkg.phi, pkg.Hinv, pkg.htilde) == want
    frame = tractor_volume(pkg.chart).get((), tuple(range(7)))
    assert battery.verify(pkg, depth="quick").meta["phi_volume_ratio"] == repr(want * frame)


def test_build_and_quick_battery_make_htilde_once(monkeypatch):
    calls = _count_htilde(monkeypatch)
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    assert battery.verify(pkg, depth="quick").all_ok()
    assert calls == [pkg.phi]


# A zero operand is the rings' job (tests/test_scalars.py and
# tests/test_laurent.py pin it); the battery's sums, products and
# negations no longer guard it, and its records stay all ok.


def test_build_and_quick_battery_skip_zero_operands():
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    assert battery.verify(pkg, depth="quick").all_ok()


def test_full_battery_skips_zero_operands_in_levi_civita_and_nijenhuis():
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    assert battery.verify(pkg, depth="full").all_ok()


def _collar_entries(pkg):
    """(name, coefficient) of every entry of the collar data: H, H^-1 and
    htilde, the brackets C, the connection G and the curvature R of the
    package chart, and g, J, omega and the Levi-Civita connection of both
    open orbits."""
    chart = pkg.chart
    out = []
    for name, M in (("H", pkg.H.as_matrix()), ("Hinv", pkg.Hinv), ("htilde", pkg.htilde)):
        out += [(f"{name}[{i}][{j}]", v) for i, row in enumerate(M) for j, v in enumerate(row)]
    for name, T in (("C", chart.C), ("G", chart.G)):
        out += [(f"{name}[{a}][{b}][{c}]", v) for a, Ta in enumerate(T)
                for b, row in enumerate(Ta) for c, v in enumerate(row)]
    out += [(f"R{key}", v) for key, v in chart.curvature().comps.items()]
    for side in (1, -1):
        orb = npk_extract(pkg, side)
        for name, M in (("g", orb.g.as_matrix()), ("J", orb.J), ("omega", orb.omega.as_matrix())):
            out += [(f"{name}{side:+d}[{i}][{j}]", v)
                    for i, row in enumerate(M) for j, v in enumerate(row)]
        out += [(f"lc.G{side:+d}[{a}][{b}][{c}]", v) for a, Ta in enumerate(orb.chart.G)
                for b, row in enumerate(Ta) for c, v in enumerate(row)]
    return out


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_collar_data_are_laurent_monomials(family_package, m):
    # the family is weighted homogeneous under the dilation, so each entry
    # has one weight: a single monomial c s^e, the fast path of CoeffFn's ops
    entries = _collar_entries(family_package(m))
    assert len(entries) > 1000
    not_monomial = [f"{name} = {v}" for name, v in entries if len(v.terms) > 1]
    assert not_monomial == [], f"not a Laurent monomial: {not_monomial[0]}"


def test_hand_built_package_makes_its_htilde_on_first_read(pkg_half, monkeypatch):
    calls = _count_htilde(monkeypatch)
    pkg = _off_normal_form(pkg_half)
    assert calls == []
    rep = battery.verify(pkg, depth="quick")
    assert calls == [pkg.phi]
    # read again from the cache, not rebuilt
    assert pkg.htilde == pkg_half.htilde and calls == [pkg.phi]
    assert [r.name for r in rep.records if r.status == "fail"] == [
        "tractor.metric-consistency", "orbits.collar-normal-form"]
    assert rep.meta["phi_volume_ratio"] == battery.verify(
        pkg_half, depth="quick").meta["phi_volume_ratio"]


def test_endomorphism_is_minus_the_display(pkg_half):
    # recorded global sign flip between the computed -X x (.) and the
    # displayed field; the identities hold either way
    chi_d, J_d = displayed_endomorphism(Fraction(1, 2), pkg_half.chart)
    for a in range(6):
        for b in range(6):
            assert (pkg_half.Jt[a][b] + J_d[a][b]).is_zero()
    for b in range(6):
        assert (pkg_half.Jt[6][b] + chi_d[b]).is_zero()


def test_j_identities(pkg_half):
    assert all(v.is_zero() for v in jfield_identity_defects(pkg_half))


def test_j_base_component_scale_invariant(pkg_half):
    # hat-W = W + X Upsilon leaves J^a_b unchanged because J X = 0
    from g2trac.geometry import build_package
    chart = pkg_half.chart
    f = CoeffFn({1: QScalar(3)}, chart.param)
    ups = exact_upsilon(chart, f)
    hat = chart.change_scale(ups)
    phi_hat = scale_3form(pkg_half.phi, ups)
    pkg_hat = build_package(hat, phi_hat)
    for a in range(6):
        for b in range(6):
            assert (pkg_hat.Jt[a][b] - pkg_half.Jt[a][b]).is_zero()
    # tau is unchanged as a trivialized component here, and in particular
    # its zero locus is scale-independent
    assert (pkg_hat.tau - pkg_half.tau).is_zero()


def test_stratification(pkg_half):
    st = stratify(pkg_half, samples=[QScalar(2), QScalar(Fraction(-1, 3))])
    assert st.zero_locus_nonempty and st.dtau_nonzero_on_zero_locus
    assert st.labels == {"2": "M+", "-1/3": "M-"}


def test_normal_form(pkg_half):
    assert normal_form_check(pkg_half)["ok"]


def _off_normal_form(pkg):
    from g2trac.geometry import GeometryPackage
    H = copy_tensor(pkg.H)
    H.set((), (4, 5), pkg.chart.one())   # g_rho(d/drho, .) != 0
    return GeometryPackage(pkg.chart, pkg.phi, H, pkg.tau, pkg.Jt, pkg.Hinv, dict(pkg.meta))


def test_normal_form_detects_perturbation(pkg_half):
    assert not normal_form_check(_off_normal_form(pkg_half))["ok"]


@pytest.mark.parametrize("side", [1, -1])
def test_npk_extract_matches_closed_forms(pkg_half, side):
    m = Fraction(1, 2)
    orb = npk_extract(pkg_half, side)
    param = RHO_PLUS if side > 0 else RHO_MINUS
    assert (orb.g - displayed_orbit_metric(m, side, param)).is_zero()
    assert (orb.omega - displayed_orbit_kahler_form(m, side, param)).is_zero()
    J_d = displayed_orbit_complex_structure(m, side, param)
    for a in range(6):
        for b in range(6):
            assert (orb.J[a][b] - J_d[a][b]).is_zero()
    # g+ coefficient of (e3)^2 is -1/(2 rho)
    assert orb.g.get((), (2, 2)) == CoeffFn.monomial(Fraction(-1, 2), -2, param)
    # Kahler form leading term carries the (-3/2) power of (side * rho)
    assert orb.omega.get((), (0, 1)).min_exp() == -3


@pytest.mark.parametrize("side", [1, -1])
def test_npk_verification_clean(pkg_half, side):
    rep = npk_verify(npk_extract(pkg_half, side))
    assert rep.all_ok(), rep.failures
    assert rep.eps == -side
    assert rep.alpha == QScalar(side)
    assert rep.scalar_curvature_sign == side
    assert rep.nabla_j_norm == QScalar(24)


def _bump_j01(orb):
    J = [row[:] for row in orb.J]
    J[0][1] = J[0][1] + orb.chart.one()
    return replace(orb, J=J)


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("perturb, failures, alpha, norm", [
    (_bump_j01, ["hermitian", "constant-type", "nijenhuis", "canonical-torsion"], 1, 24),
    (lambda orb: replace(orb, omega=orb.omega.scale(2)), ["constant-type"], 1, 24),
    (lambda orb: replace(orb, g=orb.g.scale(3)), ["constant-type"], Fraction(1, 3), 8)],
    ids=["J01+1", "2omega", "3g"])
def test_npk_verification_negative_controls(pkg_half, side, perturb, failures, alpha, norm):
    rep = npk_verify(perturb(npk_extract(pkg_half, side)))
    assert rep == NPKReport(
        eps=-side, hermitian_ok="hermitian" not in failures, ky_residual_zero=True,
        alpha=QScalar(alpha * side), constant_type_ok=False, einstein_zero=True,
        scalar_curvature_sign=side, weyl_identity_zero=True,
        nijenhuis_ok="nijenhuis" not in failures,
        canonical_torsion_skew="canonical-torsion" not in failures,
        nabla_j_norm=QScalar(norm), nabla_j_norm_constant=True, failures=failures)


def test_npk_extract_rejects_bad_side(pkg_half):
    with pytest.raises(ValueError):
        npk_extract(pkg_half, 0)


@pytest.mark.parametrize("side", [1, -1])
def test_projective_compactness_orders(pkg_half, side):
    assert compactness_check(pkg_half, side, Fraction(2)).regular
    r1 = compactness_check(pkg_half, side, Fraction(1))
    assert not r1.regular and r1.worst_pole >= 1


def _count_inverse_laurent(monkeypatch):
    calls = []
    original = linalg.inverse_laurent

    def counted(A):
        calls.append(len(A))
        return original(A)

    for module in (linalg, frames, tractor):
        monkeypatch.setattr(module, "inverse_laurent", counted)
    return calls


def test_build_qm_inverts_the_tractor_metric_once(monkeypatch):
    # the normalisation's inverse of htilde gives H^-1 as well
    calls = _count_inverse_laurent(monkeypatch)
    build_qm(FamilyParams(Fraction(1, 2)))
    assert calls == [7]


def _count_levi_civita(monkeypatch):
    calls = []
    original = frames.FrameChart.levi_civita

    def counted(chart, g):
        calls.append(chart.dim)
        return original(chart, g)

    monkeypatch.setattr(frames.FrameChart, "levi_civita", counted)
    return calls


def test_full_battery_builds_each_collar_chart_once(monkeypatch):
    # both sides share one Levi-Civita chart, that of g_+ = -g_-, with its
    # g^-1: both compactness orders read it in rho, npk_extract's J and
    # npk_verify in s; the package carries H^-1.  2 Laurent inverses and 2
    # Levi-Civita charts: the collar chart and the boundary chart of g0
    calls = _count_inverse_laurent(monkeypatch)
    charts = _count_levi_civita(monkeypatch)
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    del calls[:]
    assert battery.verify(pkg, depth="full").all_ok()
    assert calls == [6, 5] and charts == [6, 5]
    compactness_check(pkg, 1, Fraction(3))
    assert calls == [6, 5] and charts == [6, 5]


def test_full_battery_walks_the_symmetry_residuals_once(monkeypatch):
    # the solve, its feasibility check and the bare-sixth control read one
    # set of sparse rows: no Laurent residual is evaluated
    walks, evaluations = [], []
    terms, residuals = symmetries._residual_terms, symmetries.symmetry_residuals

    def walked(pkg):
        walks.append(pkg)
        return terms(pkg)

    def evaluated(pkg, sym):
        evaluations.append(sym)
        return residuals(pkg, sym)

    monkeypatch.setattr(symmetries, "_residual_terms", walked)
    monkeypatch.setattr(symmetries, "symmetry_residuals", evaluated)
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    assert battery.verify(pkg, depth="full").all_ok()
    assert len(walks) == 1 and walks[0] is pkg and evaluations == []


@pytest.mark.parametrize("side", [1, -1])
def test_one_open_orbit_inverts_its_metric_once(monkeypatch, side):
    calls = _count_inverse_laurent(monkeypatch)
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    del calls[:]
    assert npk_verify(npk_extract(pkg, side)).all_ok()
    assert calls == [6]


def test_both_open_orbits_compute_one_curvature(monkeypatch):
    # the orbit charts of both sides substitute the one curvature in rho
    params = []
    original = frames._connection_curvature

    def counted(M, C, rho_directions):
        params.append(M[0][0][0].param)
        return original(M, C, rho_directions)

    monkeypatch.setattr(frames, "_connection_curvature", counted)
    pkg = build_qm(FamilyParams(Fraction(1, 2)))
    for side in (1, -1):
        assert npk_verify(npk_extract(pkg, side)).all_ok()
    assert params == [PLAIN]


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_orbit_chart_is_the_levi_civita_chart_of_its_metric(family_package, m, side):
    # the old route, a chart built from the orbit's g and J = inverse(g) omega,
    # is the oracle of the carried chart
    orb = npk_extract(family_package(m), side)
    lc = orb.chart.levi_civita(orb.g)
    assert orb.chart.C == lc.C and orb.chart.G == lc.G
    assert orb.chart.metric_inverse == lc.metric_inverse
    assert orb.J == linalg.mat_mul(linalg.inverse_laurent(orb.g.as_matrix()),
                                   orb.omega.as_matrix())


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_both_sides_share_one_levi_civita_connection(family_package, m, side):
    # g_- = -g_+: a chart built afresh from g_side has the shared connection
    # and the inverse the side's chart carries
    pkg = family_package(m)
    lc = levi_civita_collar(pkg, side)
    fresh = pkg.chart.levi_civita(collar_metric(pkg.H.as_matrix(), side, PLAIN))
    assert lc.G is levi_civita_collar(pkg, -side).G
    assert fresh.G == lc.G and fresh.C == lc.C
    assert fresh.metric_inverse == lc.metric_inverse


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_orbit_chart_curvature_is_the_substituted_curvature(family_package, m, side):
    # the orbit chart's curvature is the one curvature in rho substituted;
    # a chart built afresh in s computes its own
    orb = npk_extract(family_package(m), side)
    lc = orb.chart.levi_civita(orb.g)
    assert orb.chart.curvature().comps == lc.curvature().comps
    assert orb.chart.ricci().comps == lc.ricci().comps
    assert orb.chart.weyl().comps == lc.weyl().comps


def test_off_normal_form_package_skips_the_open_orbits(pkg_half):
    # no traceback: the orbit records are skipped with a reason and the
    # rest of the battery runs
    rep = battery.verify(_off_normal_form(pkg_half), depth="full")
    good = battery.verify(pkg_half, depth="full")
    assert [r.name for r in rep.records] == [r.name for r in good.records]
    assert [r.name for r in rep.records if r.status == "fail"] == [
        "tractor.metric-consistency", "orbits.collar-normal-form"]
    skipped = {r.name: r.detail for r in rep.records if r.status == "skipped"}
    orbit = [r.name for r in good.records if r.name.startswith(("orbits.M+.", "orbits.M-."))]
    assert len(orbit) == 22 and all(skipped[name] for name in orbit)
    assert set(skipped) == set(orbit) | {"symmetry.xi7"}


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS)
def test_package_inverse_is_the_inverse_of_H(family_package, m):
    pkg = family_package(m)
    Hm = pkg.H.as_matrix()
    assert pkg.Hinv == linalg.inverse_laurent(Hm)
    one, zero = pkg.chart.one(), pkg.chart.zero()
    assert linalg.mat_mul(Hm, pkg.Hinv) == linalg.eye(7, one, zero)


def test_package_inverse_of_a_rescaled_3form(pkg_half):
    # Phi -> 8 s^3 Phi rescales H by (8 s^3)^(2/3) = 4 s^2, so the cube-root
    # factor c of H = c htilde is no longer +-1
    from g2trac.geometry import build_package
    chart = pkg_half.chart
    lam = CoeffFn.monomial(8, 3, chart.param)
    pkg = build_package(chart, pkg_half.phi.scale(lam))
    four_s2 = CoeffFn.monomial(4, 2, chart.param)
    assert (pkg.H - pkg_half.H.scale(four_s2)).is_zero()
    assert pkg.Hinv == linalg.inverse_laurent(pkg.H.as_matrix())
    assert pkg.Hinv == [[x * four_s2.inverse() for x in row] for row in pkg_half.Hinv]


def test_compactness_returns_modified_connection(pkg_half):
    res = compactness_check(pkg_half, 1, Fraction(2))
    assert res.modified_chart.dim == 6
    # the modification is concentrated in the collar direction
    lc = res.modified_chart
    assert not lc.G[5][5][5].is_zero() or lc.G[5][5][5].is_zero()


def test_definite_model_package():
    pkg = build_model(1)
    assert pkg.H.signature_at(QScalar(1)) == (7, 0)
    assert pkg.tau == pkg.chart.one()
    st = stratify(pkg)
    assert not st.zero_locus_nonempty
    assert set(st.labels.values()) == {"M+"}
    assert all(v.is_zero() for v in jfield_identity_defects(pkg))
    # H = diag in the tau-scale; the induced metric block is positive definite
    Hm = pkg.H.as_matrix()
    block = [[Hm[a][b].constant_value() for b in range(6)] for a in range(6)]
    assert linalg.signature(block) == (6, 0)


def test_split_model_is_flat_family_member():
    pkg = build_model(-1)
    assert pkg.meta["m"] == Fraction(2, 3)
    assert pkg.chart.is_projectively_flat()
    assert pkg.H.signature_at(QScalar(1)) == (3, 4)
    st = stratify(pkg)
    assert st.zero_locus_nonempty and st.dtau_nonzero_on_zero_locus
