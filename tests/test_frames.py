import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from g2trac.frames import FrameChart
from g2trac.linalg import eye, inverse_laurent, mat_mul
from g2trac.laurent import CoeffFn, PLAIN, RHO_MINUS, RHO_PLUS
from g2trac.scalars import QScalar
from g2trac.boundary import restrict_to_zero_locus
from g2trac.geometry import collar_metric, levi_civita_collar, npk_extract
from g2trac.tensors import ALT, NONE, SYM, AltTensor
from g2trac.tractor import tractor_connection
from g2trac.qm_family import REGRESSION_PARAMETERS, family_chart
from support import d_cotractor, d_tractor, exact_upsilon


def test_flat_chart_curvature_vanishes():
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    assert chart.curvature().is_zero()
    assert chart.ricci().is_zero()
    assert chart.weyl().is_zero()
    assert chart.is_jacobi() and chart.is_torsion_free() and chart.is_special()


@pytest.fixture(scope="module")
def chart():
    return family_chart(Fraction(1, 2))


def test_family_chart_structure(chart):
    assert chart.is_jacobi()
    assert chart.is_torsion_free()
    assert chart.is_special()


def test_ricci_symmetric(chart):
    ric = chart.ricci()
    for a in range(6):
        for b in range(6):
            assert (ric.get((), (a, b)) - ric.get((), (b, a))).is_zero()


def test_weyl_totally_tracefree(chart):
    t1, t2 = chart.weyl_trace_defects()
    assert all(v.is_zero() for v in t1 + t2)


def test_curvature_reconstruction(chart):
    # R = W + delta P - delta P is exact by construction; verify independently
    R = chart.curvature()
    W = chart.weyl()
    P = chart.schouten()
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in range(6):
                    want = W.get((c,), (a, b, d))
                    if c == a:
                        want = want + P.get((), (b, d))
                    if c == b:
                        want = want - P.get((), (a, d))
                    assert (R.get((c,), (a, b, d)) - want).is_zero()


def test_schouten_transformation_under_scale_change(chart):
    # P-hat = P - nabla Upsilon + Upsilon (x) Upsilon for exact Upsilon = df
    f = CoeffFn({2: QScalar(Fraction(1, 3)), 1: QScalar(-2)}, chart.param)
    ups = exact_upsilon(chart, f)
    hat = chart.change_scale(ups)
    assert hat.is_torsion_free()
    P = chart.schouten()
    Phat = hat.schouten()
    dU = [chart.cov_deriv(_one_form(chart, ups), a) for a in range(6)]
    for a in range(6):
        for b in range(6):
            want = P.get((), (a, b)) - dU[a].get((), (b,)) + ups[a] * ups[b]
            assert (Phat.get((), (a, b)) - want).is_zero()


def test_weyl_is_scale_invariant(chart):
    f = CoeffFn({1: QScalar(Fraction(2, 5))}, chart.param)
    hat = chart.change_scale(exact_upsilon(chart, f))
    W = chart.weyl()
    What = hat.weyl()
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in range(6):
                    assert (W.get((c,), (a, b, d)) - What.get((c,), (a, b, d))).is_zero()


def _one_form(chart, comps):
    t = AltTensor(chart.dim, 0, 1, "none", chart.zero())
    for i, v in enumerate(comps):
        if not v.is_zero():
            t.set((), (i,), v)
    return t


def test_exterior_derivative_squares_to_zero(chart):
    rng = random.Random(23)
    form = AltTensor.form(6, 2, chart.zero())
    rho = chart.rho()
    for idx in ((0, 1), (1, 4), (2, 5), (3, 4)):
        form.set((), idx, chart.lift(QScalar(rng.randint(-3, 3))) * rho
                 + chart.lift(QScalar(rng.randint(-3, 3))))
    dd = chart.d_exterior(chart.d_exterior(form))
    assert dd.is_zero()


def test_levi_civita_is_metric_and_torsion_free(chart):
    g = AltTensor(6, 0, 2, "sym", chart.zero())
    g.set((), (0, 3), chart.one())
    g.set((), (1, 4), chart.one())
    g.set((), (2, 2), chart.lift(-1))
    g.set((), (5, 5), chart.one())
    g.set((), (4, 4), chart.lift(QScalar(2)))
    lc = chart.levi_civita(g)
    assert lc.is_torsion_free()
    for a in range(6):
        assert lc.cov_deriv(g, a).is_zero()


# -- the sparse kernels against the dense loops -------------------------------


def dense_curvature(chart):
    """R_{ab}{}^c{}_d over every (a < b, c, d), with its skew partner."""
    n = chart.dim
    G, C = chart.G, chart.C
    R = AltTensor(n, 1, 3, NONE, chart.zero())
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                for d in range(n):
                    acc = chart.dir_deriv(a, G[b][d][c]) - chart.dir_deriv(b, G[a][d][c])
                    for e in range(n):
                        acc = acc + G[b][d][e] * G[a][e][c] - G[a][d][e] * G[b][e][c] \
                            - C[a][b][e] * G[e][d][c]
                    R.set((c,), (a, b, d), acc)
                    R.set((c,), (b, a, d), -acc)
    return R


def dense_trace(T, up_slot, down_slot):
    """Contraction of one up and one down slot, every free index tuple
    summed over the traced index, read through get."""
    out = AltTensor(T.dim, T.n_up - 1, T.n_down - 1, NONE, T.zero)
    for up in product(range(T.dim), repeat=T.n_up - 1):
        for down in product(range(T.dim), repeat=T.n_down - 1):
            acc = T.zero
            for a in range(T.dim):
                acc = acc + T.get(up[:up_slot] + (a,) + up[up_slot:],
                                  down[:down_slot] + (a,) + down[down_slot:])
            out.set(up, down, acc)
    return out


def dense_weyl(chart, R, P):
    """W^c_{abd} = R^c_{abd} - delta^c_a P_bd + delta^c_b P_ad, every component."""
    n = chart.dim
    W = AltTensor(n, 1, 3, NONE, chart.zero())
    for a, b, c, d in product(range(n), repeat=4):
        acc = R.get((c,), (a, b, d))
        if c == a:
            acc = acc - P.get((), (b, d))
        if c == b:
            acc = acc + P.get((), (a, d))
        W.set((c,), (a, b, d), acc)
    return W


def dense_cotton(chart, P):
    """C_{abd} = nabla_a P_bd - nabla_b P_ad from the dense derivative."""
    n = chart.dim
    dP = [dense_cov_deriv(chart, P, a) for a in range(n)]
    out = AltTensor(n, 0, 3, NONE, chart.zero())
    for a, b, d in product(range(n), repeat=3):
        out.set((), (a, b, d), dP[a].get((), (b, d)) - dP[b].get((), (a, d)))
    return out


def dense_jacobi_defect(chart):
    """sum_cyc [[E_a,E_b],E_c]^d for a < b < c, then d."""
    n = chart.dim
    C = chart.C
    out = []
    for a, b, c in combinations(range(n), 3):
        for d in range(n):
            acc = chart.zero()
            for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                for e in range(n):
                    acc = acc + C[x][y][e] * C[e][z][d]
                acc = acc - chart.dir_deriv(z, C[x][y][d])
            out.append(acc)
    return out


def dense_cov_deriv(chart, T, a, weight=0, conn=None):
    """nabla_a T over every index tuple, slot by slot with the connection
    matrix conn (default the frame connection G[a]), read through get:
    the raw-symmetry loop."""
    A = chart.G[a] if conn is None else conn
    out = AltTensor(T.dim, T.n_up, T.n_down, NONE, chart.zero())
    rng = range(T.dim)
    wform = chart.weight_form[a]
    for up in product(rng, repeat=T.n_up):
        for down in product(rng, repeat=T.n_down):
            acc = chart.dir_deriv(a, T.get(up, down)) + wform * T.get(up, down) * weight
            for s in range(T.n_up):
                for e in rng:
                    acc = acc + A[e][up[s]] * T.get(up[:s] + (e,) + up[s + 1:], down)
            for s in range(T.n_down):
                for e in rng:
                    acc = acc - A[down[s]][e] * T.get(up, down[:s] + (e,) + down[s + 1:])
            out.set(up, down, acc)
    return out


def assert_same_components(got, want):
    """Same valence and, under raw indexing, the same value at every index."""
    assert (got.dim, got.n_up, got.n_down) == (want.dim, want.n_up, want.n_down)
    rng = range(got.dim)
    for up in product(rng, repeat=got.n_up):
        for down in product(rng, repeat=got.n_down):
            assert got.get(up, down) == want.get(up, down), (up, down)


def _rescaled(chart):
    """A projective change of scale of chart: its weight form is nonzero."""
    f = CoeffFn({2: QScalar(Fraction(1, 3)), 1: QScalar(-2)}, chart.param)
    hat = chart.change_scale(exact_upsilon(chart, f))
    assert any(not w.is_zero() for w in hat.weight_form)
    return hat


def _random_coeff(chart, rng):
    """c0 + c1 rho with small random integers."""
    c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
    return chart.lift(QScalar(c0)) + chart.lift(QScalar(c1)) * chart.rho()


def _random_chart(seed=71):
    """Sparse random brackets and connection in which E5 and E6 both
    differentiate, so the E_a and E_b terms of the curvature both act."""
    rng = random.Random(seed)
    ch = FrameChart(6, PLAIN, rho_directions={4, 5})
    for a, b in combinations(range(6), 2):
        ch.set_bracket(a, b, {c: _random_coeff(ch, rng) for c in range(6) if rng.random() < 0.3})
    for a, c in product(range(6), repeat=2):
        ch.set_gamma(a, c, {b: _random_coeff(ch, rng) for b in range(6) if rng.random() < 0.3})
    return ch


def _random_tensor(chart, dim, n_up, n_down, sym, rng, density=0.3):
    """Random components on canonical index tuples of the given storage."""
    T = AltTensor(dim, n_up, n_down, sym, chart.zero())
    downs = {"alt": combinations, "sym": combinations_with_replacement}.get(sym)
    for up in product(range(dim), repeat=n_up):
        for down in (downs(range(dim), n_down) if downs else product(range(dim), repeat=n_down)):
            if rng.random() < density:
                T.set(up, down, _random_coeff(chart, rng))
    return T


_TOWER_CHARTS = [f"family:{m}" for m in REGRESSION_PARAMETERS] + [
    f"collar{side:+d}:{m}" for m in ("1/2", "3/7") for side in (1, -1)] + [
    "rescaled", "random"]


@pytest.fixture(params=_TOWER_CHARTS)
def tower_chart(request, family_package):
    kind, _, m = request.param.partition(":")
    if kind == "family":
        return family_chart(Fraction(m))
    if kind.startswith("collar"):
        return levi_civita_collar(family_package(Fraction(m)), int(kind[len("collar"):]))
    if kind == "rescaled":
        return _rescaled(family_chart(Fraction(1, 2)))
    return _random_chart()


def test_curvature_tower_matches_dense_loops(tower_chart):
    ch = tower_chart
    R = dense_curvature(ch)
    Ric = dense_trace(R, 0, 0)
    P = Ric.scale(ch.lift(Fraction(1, ch.dim - 1)))
    assert_same_components(ch.curvature(), R)
    assert_same_components(ch.ricci(), Ric)
    assert_same_components(ch.weyl(), dense_weyl(ch, R, P))
    assert_same_components(ch.cotton(), dense_cotton(ch, P))
    W = ch.weyl()
    assert [v for row in dense_trace(W, 0, 2).as_matrix() for v in row] \
        == ch.weyl_trace_defects()[1]
    assert ch.jacobi_defect() == dense_jacobi_defect(ch)


def dense_bracket(chart, U, V):
    """[U, V] over every index triple, each direction differentiating
    through dir_deriv: the reference field bracket."""
    n = chart.dim
    out = [chart.zero() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                out[c] = out[c] + U[a] * V[b] * chart.C[a][b][c]
    for b in range(n):
        for a in range(n):
            out[b] = out[b] + U[a] * chart.dir_deriv(a, V[b]) - V[a] * chart.dir_deriv(a, U[b])
    return out


def test_bracket_matches_dense_loop(tower_chart):
    ch = tower_chart
    rng = random.Random(f"bracket-{ch.param}-{sorted(ch.rho_directions)}")
    n = ch.dim
    basis = [[ch.one() if i == a else ch.zero() for i in range(n)] for a in range(n)]
    fields = [[_random_coeff(ch, rng) if rng.random() < 0.5 else ch.zero() for _ in range(n)]
              for _ in range(4)] + [[ch.zero()] * n, basis[0], basis[-1]]
    for U in fields:
        for V in fields:
            assert ch.bracket(U, V) == dense_bracket(ch, U, V)
    for a, b in combinations(range(n), 2):
        assert ch.bracket(basis[a], basis[b]) == ch.C[a][b]


def dense_levi_civita(chart, g):
    """Levi-Civita chart of g from K[a][c][d] = 2 g(nabla_a E_c, E_d) over
    every (a, c, d, e)."""
    n = chart.dim
    gm = g.as_matrix()
    ginv = inverse_laurent(gm)
    half = chart.lift(Fraction(1, 2))
    K = [[[chart.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a, c, d in product(range(n), repeat=3):
        acc = chart.dir_deriv(a, gm[c][d]) + chart.dir_deriv(c, gm[a][d]) \
            - chart.dir_deriv(d, gm[a][c])
        for e in range(n):
            acc = acc + chart.C[a][c][e] * gm[e][d] - chart.C[a][d][e] * gm[e][c] \
                - chart.C[c][d][e] * gm[e][a]
        K[a][c][d] = acc
    G = [[[x * half for x in row] for row in mat_mul(Ka, ginv)] for Ka in K]
    out = FrameChart(n, chart.param, chart.rho_directions)
    out.C = [[list(col) for col in row] for row in chart.C]
    out.G = G
    return out


_METRIC_CHARTS = [f"{kind}{side:+d}:{m}" for kind in ("collar", "npk")
                  for m in ("1/2", "3/7", "3") for side in (1, -1)] + ["boundary:1/2"]


def _metric_chart(case, family_package):
    """(chart, g) of a collar, open-orbit or boundary metric."""
    kind, _, m = case.partition(":")
    pkg = family_package(Fraction(m))
    if kind.startswith("collar"):
        chart = pkg.chart
        return chart, collar_metric(pkg.H.as_matrix(), int(kind[len("collar"):]), chart.param)
    if kind.startswith("npk"):
        orbit = npk_extract(pkg, int(kind[len("npk"):]))
        return orbit.chart, orbit.g
    conf = restrict_to_zero_locus(pkg).conformal
    assert conf.chart.dim == 5
    return conf.chart, conf.g0


@pytest.mark.parametrize("case", _METRIC_CHARTS)
def test_levi_civita_matches_dense_loop(case, family_package):
    chart, g = _metric_chart(case, family_package)
    got, want = chart.levi_civita(g), dense_levi_civita(chart, g)
    assert got.G == want.G
    assert got.C == want.C and got.rho_directions == want.rho_directions
    assert any(v for Ga in got.G for row in Ga for v in row)


@pytest.mark.parametrize("case", [f"{kind}:{m}" for m in ("1/2", "3/7") for kind in (
    "collar+1", "collar-1", "npk+1", "npk-1", "boundary")])
def test_levi_civita_chart_carries_the_inverse_metric(case, family_package):
    chart, g = _metric_chart(case, family_package)
    lc = chart.levi_civita(g)
    n = lc.dim
    assert mat_mul(g.as_matrix(), lc.metric_inverse) == eye(n, lc.one(), lc.zero())
    assert lc.change_scale([lc.rho()] * n).metric_inverse is None
    if lc.param == PLAIN:
        for param in (RHO_PLUS, RHO_MINUS):
            sub = lc.substitute_param(param)
            assert mat_mul([[v.substitute_rho(param) for v in row] for row in g.as_matrix()],
                           sub.metric_inverse) == eye(n, sub.one(), sub.zero())
        assert FrameChart(n, PLAIN).substitute_param(RHO_PLUS).metric_inverse is None
    assert FrameChart(n, lc.param, lc.rho_directions).metric_inverse is None


@pytest.mark.parametrize("param", [RHO_PLUS, RHO_MINUS])
def test_substituted_chart_carries_the_substituted_curvature(param):
    # rho -> +-s^2 commutes with d/drho: the curvature substitute_param
    # carries is the one a chart with the substituted data computes in s
    ch = _random_chart()
    sub = ch.substitute_param(param)
    fresh = FrameChart(ch.dim, param, ch.rho_directions)
    fresh.C, fresh.G = sub.C, sub.G
    assert sub.curvature().comps == fresh.curvature().comps
    assert not sub.weyl().is_zero() and sub.weyl().comps == fresh.weyl().comps
    assert sub.curvature().comps == {k: v.substitute_rho(param)
                                     for k, v in ch.curvature().comps.items()}


def test_random_chart_exercises_every_curvature_term():
    # a vacuous oracle check would pass on a flat chart: this one curves,
    # and its curvature differs once either derivative term is dropped
    ch = _random_chart()
    assert not ch.curvature().is_zero() and not ch.weyl().is_zero()
    for x in (4, 5):
        dropped = FrameChart(6, PLAIN, rho_directions={4, 5} - {x})
        dropped.C, dropped.G = ch.C, ch.G
        assert not (dropped.curvature() - ch.curvature()).is_zero()


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
@pytest.mark.parametrize("weight", [0, 3])
@pytest.mark.parametrize("degree", [2, 3])
def test_alternating_cov_deriv_matches_dense_loop(chart, rescale, weight, degree):
    ch = _rescaled(chart) if rescale else chart
    rng = random.Random(10 * degree + weight + rescale)
    form = _random_tensor(ch, 6, 0, degree, ALT, rng, 0.6)
    for a in range(6):
        got = ch.cov_deriv(form, a, weight)
        want = dense_cov_deriv(ch, form, a, weight)
        assert got.sym == form.sym
        assert_same_components(got, want)


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
@pytest.mark.parametrize("valence, sym", [((1, 2), NONE), ((2, 1), NONE),
                                          ((1, 2), SYM), ((0, 3), SYM)])
def test_raw_and_symmetric_cov_deriv_matches_dense_loop(chart, rescale, valence, sym):
    ch = _rescaled(chart) if rescale else chart
    rng = random.Random(len(sym) + 7 * valence[0] + rescale)
    T = _random_tensor(ch, 6, *valence, sym, rng)
    for a in range(6):
        got = ch.cov_deriv(T, a, 2)
        assert got.sym == NONE
        assert_same_components(got, dense_cov_deriv(ch, T, a, 2))


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
@pytest.mark.parametrize("n_down, sym", [(2, NONE), (3, ALT)])
def test_tractor_connection_cov_deriv_matches_dense_loop(chart, rescale, n_down, sym):
    # a covariant tractor tensor on the 7 indices 0..6, weight one per slot
    ch = _rescaled(chart) if rescale else chart
    rng = random.Random(31 * n_down + rescale)
    T = _random_tensor(ch, 7, 0, n_down, sym, rng)
    for a in range(6):
        conn = tractor_connection(ch, a)
        got = ch.cov_deriv(T, a, n_down, conn)
        assert got.sym == sym
        assert_same_components(got, dense_cov_deriv(ch, T, a, n_down, conn))


@pytest.mark.parametrize("valence, sym, slots", [
    ((1, 3), ALT, [(0, 0), (0, 1), (0, 2)]),
    ((1, 2), SYM, [(0, 0), (0, 1)]),
    ((2, 2), NONE, [(0, 1), (1, 0)]),
])
def test_trace_matches_dense_trace(chart, valence, sym, slots):
    T = _random_tensor(chart, 6, *valence, sym, random.Random(len(slots)), 0.4)
    for up_slot, down_slot in slots:
        got = T.trace(up_slot, down_slot)
        assert got.sym == NONE
        assert_same_components(got, dense_trace(T, up_slot, down_slot))


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
def test_tractor_pairing_is_parallel(chart, rescale):
    # E_a <U, V> = <nabla_a U, V> + <U, nabla_a V>: the cotractor and
    # tractor derivatives are dual, weight forms included
    ch = _rescaled(chart) if rescale else chart
    rng = random.Random(53 + rescale)

    def pair(U, V):
        return sum((u * v for u, v in zip(U, V)), ch.zero())

    for _ in range(3):
        U = [_random_coeff(ch, rng) for _ in range(7)]
        V = [_random_coeff(ch, rng) for _ in range(7)]
        for a in range(6):
            lhs = ch.dir_deriv(a, pair(U, V))
            rhs = pair(d_cotractor(ch, U, a), V) + pair(U, d_tractor(ch, V, a))
            assert lhs == rhs
