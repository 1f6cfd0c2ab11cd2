from fractions import Fraction
from itertools import combinations

import pytest

from g2trac import boundary, linalg, symmetries
from g2trac.boundary import (ConformalChart, bgg_round_trip_defect, bgg_split, boundary_3form,
                             boundary_connection_checks, conformal_parallel_defect,
                             conformal_schouten, conformal_tractor_connection,
                             distribution_checks, extract_distribution, j0_checks,
                             restrict_to_zero_locus)
from g2trac.coordfields import monge_check, parse_monge_polynomial
from g2trac.frames import FrameChart, _connection_curvature
from g2trac.geometry import npk_extract
from g2trac.laurent import PLAIN, CoeffFn
from g2trac.octonions import NullFiltration
from g2trac.qm_family import FLAT_PARAMETERS, REGRESSION_PARAMETERS
from g2trac.scalars import QScalar
from g2trac.symmetries import (dilation_negative_control, is_distribution_symmetry,
                               frame_symmetry_kernel_dim, solve_frame_symmetry,
                               symmetry_fields)
from g2trac.tensors import SYM, AltTensor


@pytest.fixture(scope="module")
def bd(pkg_half):
    return restrict_to_zero_locus(pkg_half)


def test_conformal_representative(pkg_half, bd):
    g0 = bd.conformal.g0
    assert g0.signature_at(QScalar.zero()) == (2, 3)
    # 2 e1e4 + 2 e2e5 - (e3)^2
    assert g0.get((), (0, 3)) == pkg_half.chart.one()
    assert g0.get((), (1, 4)) == pkg_half.chart.one()
    assert g0.get((), (2, 2)) == pkg_half.chart.lift(-1)
    assert g0.get((), (0, 0)).is_zero()


@pytest.mark.parametrize("side, alpha", [(1, 1), (-1, -1)], ids=["M+", "M-"])
def test_conformal_schouten_of_einstein_orbit_metric(pkg_half, side, alpha):
    # Ric = 5 alpha g on the open orbits, so Sc = 30 alpha and
    # P = (Ric - (Sc/10) g)/4 = (alpha/2) g: the trace term is nonzero here,
    # unlike on the boundary, where the scalar curvature vanishes
    orbit = npk_extract(pkg_half, side)
    lc = orbit.chart.levi_civita(orbit.g)
    ric, P = lc.ricci(), conformal_schouten(lc, orbit.g)
    for a in range(6):
        for b in range(6):
            g_ab = orbit.g.get((), (a, b))
            assert ric.get((), (a, b)) == g_ab * (5 * alpha)
            assert P.get((), (a, b)) == g_ab * Fraction(alpha, 2)


def test_restriction_needs_zero_locus():
    from g2trac.qm_family import build_model
    with pytest.raises(ValueError):
        restrict_to_zero_locus(build_model(1))


def test_j0_facts(bd):
    checks = j0_checks(bd)
    assert all(checks.values()), [k for k, v in checks.items() if not v]


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_boundary_null_filtration(family_package, m):
    # the degenerate tractor endomorphism has a null split octonion's filtration
    bd = restrict_to_zero_locus(family_package(m))
    f = NullFiltration(bd.Jtr0, bd.H0, [QScalar.zero()] * 6 + [QScalar.one()])
    assert f.dims() == (1, 3, 4, 6)
    assert f.chain_ok() and f.mapping_ok() and f.kernel_isotropic()
    # the image, J's pivot columns, spans the column space of J
    assert linalg.same_subspace(f.image, linalg.row_space(linalg.transpose(bd.Jtr0)))


def test_full_battery_eliminates_J0_once(pkg_half, monkeypatch):
    # restrict_to_zero_locus takes ker J0 once, and the rank, kernel and
    # kernel-span checks of j0_checks and distribution_checks read it
    from g2trac import verify as battery
    eliminated, made = [], []
    rref, restrict = linalg.rref, battery.restrict_to_zero_locus
    monkeypatch.setattr(linalg, "rref", lambda A: eliminated.append(A) or rref(A))
    monkeypatch.setattr(battery, "restrict_to_zero_locus",
                        lambda pkg: made.append(restrict(pkg)) or made[-1])
    assert battery.verify(pkg_half, depth="full").all_ok()
    assert len(made) == 1
    assert sum(A == made[0].J0 for A in eliminated) == 1


def test_distribution_three_ways_and_facts(pkg_half, bd):
    dist = extract_distribution(bd)
    assert dist.growth == (2, 3, 5)
    checks = distribution_checks(bd, dist)
    assert all(checks.values()), [k for k, v in checks.items() if not v]
    # D = <E4, E5>, [D,D] = <E3, E4, E5>
    z, o = QScalar.zero(), QScalar.one()
    assert linalg.same_subspace(dist.d_basis, [[z, z, z, o, z], [z, z, z, z, o]])
    assert linalg.same_subspace(dist.bracket_basis,
                                [[z, z, o, z, z], [z, z, z, o, z], [z, z, z, z, o]])


@pytest.mark.parametrize("case", ["outside", "short"])
def test_bracket_equals_ker_J0_needs_the_whole_kernel(bd, case):
    # a basis with a vector outside ker J0, or spanning only part of it
    from dataclasses import replace
    z, o = QScalar.zero(), QScalar.one()
    B = bd.kerJ0[:2] + ([[o, z, z, z, z]] if case == "outside" else [])
    checks = distribution_checks(bd, replace(extract_distribution(bd), bracket_basis=B))
    assert not checks["bracket_equals_ker_J0"]
    # E1 pairs with E4 in D under g0 = 2 e1e4 + 2 e2e5 - e3^2
    assert checks["g0_kills_D_bracket_pairs"] == (case == "short")


def test_disagreement_raises_internal_error(pkg_half, bd):
    import g2trac.boundary as bmod
    original = bmod.declared_distribution
    bmod.declared_distribution = lambda: [[QScalar.one()] + [QScalar.zero()] * 4]
    try:
        with pytest.raises(RuntimeError):
            extract_distribution(bd)
    finally:
        bmod.declared_distribution = original


def test_boundary_connection_compatibility(pkg_half, bd):
    checks = boundary_connection_checks(pkg_half, bd)
    assert all(checks.values()), [k for k, v in checks.items() if not v]


def four_loop_connection_checks(pkg, bd):
    """The reference slices of the ambient chart at s = 0: the collar
    Christoffel column, the Schouten collar leg, the tangential
    Christoffel symbols and the tangential Schouten tensor.  They do not
    read the Y row."""
    _eval0 = boundary._eval0
    out = {}
    ok = True
    g0 = bd.conformal.g0
    for a in range(5):
        for b in range(5):
            got = _eval0(pkg.chart.G[a][b][5])
            want = -g0.get((), (a, b)).constant_value()
            if not (got - want).is_zero():
                ok = False
    out["collar_christoffel_is_minus_g0"] = ok
    P = pkg.chart.schouten()
    out["ambient_schouten_kills_collar_leg"] = all(
        _eval0(P.get((), (a, 5))).is_zero() for a in range(5))
    # ambient tangential Christoffel with tangential output reproduces the
    # boundary Levi-Civita connection of g0
    lc = bd.conformal.chart
    ok2 = True
    for a in range(5):
        for c in range(5):
            for b in range(5):
                if not (_eval0(pkg.chart.G[a][c][b]) - lc.G[a][c][b].constant_value()).is_zero():
                    ok2 = False
    out["tangential_christoffel_is_boundary_lc"] = ok2
    # ambient P restricted tangentially equals the conformal Schouten of g0
    okP = True
    for a in range(5):
        for b in range(5):
            if not (_eval0(P.get((), (a, b))) - bd.conformal.schouten.get((), (a, b)).constant_value()).is_zero():
                okP = False
    out["tangential_schouten_is_conformal_schouten"] = okP
    return out


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_connection_check_agrees_with_four_loop_oracle(family_package, m):
    pkg = family_package(m)
    bd = restrict_to_zero_locus(pkg)
    assert all(boundary_connection_checks(pkg, bd).values())
    assert all(four_loop_connection_checks(pkg, bd).values())


def _negated(part):
    """conformal_tractor_connection with the Y row or the Y column negated."""
    def connection(conf):
        out = conformal_tractor_connection(conf)
        for C in out:
            if part == "row":
                C[5] = [-v for v in C[5]]
            else:
                for row in C:
                    row[5] = -row[5]
        return out
    return connection


@pytest.mark.parametrize("part", ["row", "column"])
def test_negated_y_slot_fails_both_zero_locus_connection_records(pkg_half, part, monkeypatch):
    # at m = 1/2 the Y row has a nonzero tangential entry, which the four
    # loops never read: they pass against the same ambient chart, so only
    # the matrix check covers the Y row
    from g2trac.verify import verify
    monkeypatch.setattr(boundary, "conformal_tractor_connection", _negated(part))
    status = {r.name: r.status for r in verify(pkg_half, depth="full").records}
    assert status["zero_locus.connection-compatibility"] == "fail"
    assert status["zero_locus.bgg-output-parallel"] == "fail"
    oracle = four_loop_connection_checks(pkg_half, restrict_to_zero_locus(pkg_half))
    assert all(oracle.values())


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_conformal_tractor_curvature_is_the_family_weyl_polynomial(family_package, m):
    # the Weyl block of the curvature: C^1_{040} = -C^3_{044}, zero exactly
    # at the flat parameters (3/32 at m = 1/2)
    bd = restrict_to_zero_locus(family_package(m))
    lc = bd.conformal.chart
    F = _connection_curvature(conformal_tractor_connection(bd.conformal), lc.C,
                              lc.rho_directions)
    nonzero = {ab: Fab for ab, Fab in F.items() if Fab}
    w = (m + 1) * (3 * m - 1) * (3 * m - 2) * (m - 2) / 6
    if m in FLAT_PARAMETERS:
        assert nonzero == {}
    else:
        assert list(nonzero) == [(0, 4)] and sorted(nonzero[(0, 4)]) == [(0, 1), (4, 3)]
        assert nonzero[(0, 4)][(0, 1)] == w and nonzero[(0, 4)][(4, 3)] == -w


def slot(F, legs):
    """The 5-dim form T_K = F_{legs K} of a boundary tractor 3-form F on the
    slots Z_0..Z_4, Y = 5, X = 6: psi (), sigma (6,), rho (5,), nu (6, 5)."""
    k = 3 - len(legs)
    T = AltTensor.form(5, k, F.zero)
    for K in combinations(range(5), k):
        T.set((), K, F.get((), legs + K))
    return T


def test_bgg_round_trip_slotwise(pkg_half, bd):
    defect = bgg_round_trip_defect(bd)
    assert slot(defect, (6,)).is_zero()
    assert slot(defect, ()).is_zero()
    assert slot(defect, (6, 5)).is_zero()
    assert slot(defect, (5,)).is_zero()


def dense_bgg_split(conf, omega):
    """The bgg_split docstring formula by dense index loops over frame
    components: (psi, nu, bottom) as nested lists, the reference slots."""
    lc, n = conf.chart, 5
    G = lc.G                       # nabla_a E_c = G[a][c][b] E_b
    ginv = linalg.inverse_laurent(conf.g0.as_matrix())
    P = conf.schouten.as_matrix()
    w = omega.as_matrix()
    z = lc.zero()
    rng = range(n)

    def total(terms):
        acc = z
        for x in terms:
            acc = acc + x
        return acc

    # t[a][b][c] = nabla_a omega_bc, s[a][b][c][d] = nabla_a nabla_b omega_cd
    t = [[[lc.dir_deriv(a, w[b][c])
           - total(G[a][b][e] * w[e][c] for e in rng)
           - total(G[a][c][e] * w[b][e] for e in rng) for c in rng] for b in rng] for a in rng]
    s = [[[[lc.dir_deriv(a, t[b][c][d])
            - total(G[a][b][e] * t[e][c][d] for e in rng)
            - total(G[a][c][e] * t[b][e][d] for e in rng)
            - total(G[a][d][e] * t[b][c][e] for e in rng) for d in rng] for c in rng]
          for b in rng] for a in rng]
    psi = [[[(t[a][b][c] + t[b][c][a] + t[c][a][b]) * Fraction(1, 3) for c in rng]
            for b in rng] for a in rng]
    nu = [total(ginv[k][a] * t[a][k][c] for k in rng for a in rng) * Fraction(-1, 4)
          for c in rng]
    lap = [[total(ginv[k][l] * s[k][l][b][c] for k in rng for l in rng) for c in rng]
           for b in rng]
    # X[b][c] = nabla^k nabla_c omega_kb, Y[b][c] = nabla_c nabla^k omega_kb
    X = [[total(ginv[k][l] * s[l][c][k][b] for k in rng for l in rng) for c in rng]
         for b in rng]
    Y = [[total(ginv[k][l] * s[c][l][k][b] for k in rng for l in rng) for c in rng]
         for b in rng]
    Pup = [[total(ginv[k][l] * P[l][b] for l in rng) for b in rng] for k in rng]   # P^k_b
    trP = total(Pup[k][k] for k in rng)
    # Z[b][c] = P^k_b omega_ck
    Z = [[total(Pup[k][b] * w[c][k] for k in rng) for c in rng] for b in rng]
    bottom = [[lap[b][c] * Fraction(-1, 15)
               - (X[b][c] - X[c][b]) * Fraction(1, 15)
               - (Y[b][c] - Y[c][b]) * Fraction(1, 20)
               - (Z[b][c] - Z[c][b]) * Fraction(2, 5)
               - trP * w[b][c] * Fraction(1, 5) for c in rng] for b in rng]
    return psi, nu, bottom, trP


def _cone_conformal_chart():
    """g = drho^2 + rho^2 (dx1^2 + ... + dx4^2) in the coordinate frame
    (d/drho, d/dx1, ..., d/dx4): the cone over flat space, whose scalar
    curvature -12/rho^2 is nonzero."""
    base = FrameChart(5, PLAIN, rho_directions=(0,))
    rho2 = CoeffFn.monomial(1, 2)
    g = AltTensor.from_matrix([[(base.one() if i == 0 else rho2) if i == j else base.zero()
                                for j in range(5)] for i in range(5)], 5, 0, SYM, base.zero())
    lc = base.levi_civita(g)
    return ConformalChart(lc, g, conformal_schouten(lc, g))


def test_bgg_split_matches_dense_formula_where_scalar_curvature_is_nonzero():
    # on the boundary P^k_k vanishes; on the cone it is -3/(2 rho^2), so
    # the -(1/5) P^k_k omega_bc term of the bottom slot counts here
    conf = _cone_conformal_chart()
    rho = CoeffFn.s()
    omega = AltTensor.form(5, 2, conf.chart.zero())
    for idx, v in [((0, 1), rho), ((1, 2), rho * rho), ((3, 4), CoeffFn.one()),
                   ((0, 3), CoeffFn.monomial(2, -1)), ((2, 4), rho + 3)]:
        omega.set((), idx, v)
    psi, nu, bottom, trP = dense_bgg_split(conf, omega)
    assert trP == CoeffFn.monomial(Fraction(-3, 2), -2)
    got = bgg_split(conf, omega)
    assert (slot(got, (6,)) - omega).is_zero()
    rng = range(5)
    assert [[[got.get((), (a, b, c)) for c in rng] for b in rng] for a in rng] == psi
    assert [got.get((), (6, 5, c)) for c in rng] == nu
    assert [[got.get((), (5, b, c)) for c in rng] for b in rng] == bottom
    assert not slot(got, (5,)).is_zero()


def test_bgg_of_zero_is_zero(bd):
    zero = AltTensor.form(5, 2, bd.conformal.chart.zero())
    out = bgg_split(bd.conformal, zero)
    assert out.is_zero()


def test_bgg_output_parallel(pkg_half, bd):
    defects = conformal_parallel_defect(boundary_3form(bd), bd.conformal)
    assert all(v.is_zero() for v in defects)


def test_boundary_2form_slots(pkg_half, bd):
    from g2trac.scalars import SQRT2
    assert bd.phi0.get((), (6, 0, 1)) == SQRT2
    assert bd.phi0.get((), (0, 2, 3)) == QScalar(-1)
    assert bd.phi0.get((), (1, 2, 4)) == QScalar(-1)
    assert bd.phi0.get((), (5, 3, 4)) == SQRT2
    assert bd.phi0.get((), (6, 5, 2)) == QScalar(1)


# -- Monge normal form -----------------------------------------------------


def test_monge_q2_is_235():
    assert monge_check(parse_monge_polynomial("q^2"))["is235"]


def test_monge_q_is_not_235():
    res = monge_check(parse_monge_polynomial("q"))
    assert not res["is235"]
    assert res["samples"][0]["growth"] == (2, 3, 4)


def test_monge_q3_growth_at_requested_point():
    pt = {"x": QScalar.zero(), "y": QScalar.zero(), "p": QScalar.zero(),
          "q": QScalar.one(), "z": QScalar.zero()}
    res = monge_check(parse_monge_polynomial("q^3"), [pt])
    assert res["is235"] and res["samples"][0]["growth"] == (2, 3, 5)


def test_monge_quadratic_plus_tail_family_member():
    res = monge_check(parse_monge_polynomial("q^2 + 3*p^4 + 1/2*z"))
    assert res["is235"]


def test_monge_parser_signs():
    F = parse_monge_polynomial("-q^2 + p - 2/3*z")
    assert F.diff("q").diff("q").eval(
        {v: QScalar.one() for v in "xypqz"}) == QScalar(-2)
    assert monge_check(F)["is235"]


@pytest.mark.parametrize("text", ["q^2 + x^1/2", "q^2 + p^2.5"])
def test_monge_parser_rejects_fractional_powers_of_x_y_p_z(text):
    with pytest.raises(ValueError):
        parse_monge_polynomial(text)


def test_monge_parser_keeps_rational_powers_of_q():
    F = parse_monge_polynomial("q^5/2")
    assert list(F.terms) == [(0, 0, 0, Fraction(5, 2), 0)]


@pytest.mark.parametrize("text, power", [("q^-1", Fraction(-1)), ("q^-1/2", Fraction(-1, 2))],
                         ids=["q^-1", "q^-1/2"])
def test_monge_parser_reads_negative_powers_of_q(text, power):
    # a sign right after ^ is the exponent's: q^-1 is F for m = -1
    F = parse_monge_polynomial(text)
    assert F.terms == {(0, 0, 0, power, 0): QScalar.one()}
    assert monge_check(F)["is235"]


Q2, ONE, P1 = (0, 0, 0, Fraction(2), 0), (0, 0, 0, Fraction(0), 0), (0, 0, 1, Fraction(0), 0)


@pytest.mark.parametrize("text, terms", [
    ("5e-3*q^2", {Q2: Fraction(1, 200)}),
    ("q^2-5e-3", {Q2: Fraction(1), ONE: Fraction(-1, 200)}),
    ("1E-2*q^2", {Q2: Fraction(1, 100)}),
    ("q^2+2e+1*p", {Q2: Fraction(1), P1: Fraction(20)}),
], ids=["5e-3*q^2", "q^2-5e-3", "1E-2*q^2", "q^2+2e+1*p"])
def test_monge_parser_reads_decimal_exponents(text, terms):
    # a sign right after e or E is the decimal exponent's: no coordinate is named e
    F = parse_monge_polynomial(text)
    assert F.terms == {k: QScalar(v) for k, v in terms.items()}


# -- symmetry generators -----------------------------------------------------


@pytest.mark.parametrize("name", ["xi1", "xi2", "xi3", "xi4", "xi5", "xi6"])
def test_coordinate_symmetries(name):
    m = Fraction(5, 6)
    fields = symmetry_fields(m)
    assert is_distribution_symmetry(fields[name], m)


def test_xi7_when_polynomial():
    m = Fraction(5, 6)
    xi7 = symmetry_fields(m)["xi7"]
    assert xi7 is not None
    # with the antiderivative constant fixed at 0 it is a symmetry too
    assert is_distribution_symmetry(xi7, m)


def test_negative_control_without_weight_2_symmetry_solves_nothing(pkg_half, monkeypatch):
    def no_solve(*args):
        raise AssertionError("the weight-2 system was solved again")

    monkeypatch.setattr(symmetries, "frame_symmetry_system", no_solve)
    monkeypatch.setattr(symmetries, "solve_frame_symmetry", no_solve)
    assert dilation_negative_control(pkg_half, None) is False
    with pytest.raises(TypeError):
        dilation_negative_control(pkg_half)


def test_xi7_degenerates_at_one_half():
    assert symmetry_fields(Fraction(1, 2))["xi7"] is None


def test_frame_symmetry_solution_and_negative_control(pkg_half):
    sym = solve_frame_symmetry(pkg_half, Fraction(2))
    assert sym is not None
    assert sym.lam[5][5] == QScalar(-2)
    assert frame_symmetry_kernel_dim(pkg_half, Fraction(0)) == 0
    # the weight enters only the constant column: the kernel ignores it
    assert frame_symmetry_kernel_dim(pkg_half, Fraction(2)) == 0
    assert dilation_negative_control(pkg_half, sym)
    # weight 0 admits only the zero action; weight 2 moves the group legs
    sym0 = solve_frame_symmetry(pkg_half, Fraction(0))
    assert sym0 is not None
    assert all(x.is_zero() for row in sym0.lam for x in row)
    assert any(not sym.lam[i][j].is_zero() for i in range(5) for j in range(5))
