import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from g2trac.frames import FrameChart
from g2trac.laurent import CoeffFn, PLAIN
from g2trac.scalars import QScalar
from g2trac.tensors import NONE, AltTensor
from g2trac.tractor import d_cotractor, d_tractor
from g2trac.qm_family import family_chart


def test_flat_chart_curvature_vanishes():
    chart = FrameChart.flat(6, PLAIN, rho_directions=(5,))
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
    ups = chart.exact_upsilon(f)
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
    hat = chart.change_scale(chart.exact_upsilon(f))
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


# -- the sparse covariant derivative against the dense loop -------------------


def dense_cov_deriv(chart, T, a, weight=0):
    """nabla_a T over every index tuple, slot by slot with the frame
    connection G[a], read through get: the raw-symmetry loop."""
    out = AltTensor(chart.dim, T.n_up, T.n_down, NONE, chart.zero())
    rng = range(chart.dim)
    wform = chart.weight_form[a]
    for up in product(rng, repeat=T.n_up):
        for down in product(rng, repeat=T.n_down):
            acc = chart.dir_deriv(a, T.get(up, down)) + wform * T.get(up, down) * weight
            for s in range(T.n_up):
                for e in rng:
                    acc = acc + chart.G[a][e][up[s]] * T.get(up[:s] + (e,) + up[s + 1:], down)
            for s in range(T.n_down):
                for e in rng:
                    acc = acc - chart.G[a][down[s]][e] * T.get(up, down[:s] + (e,) + down[s + 1:])
            out.set(up, down, acc)
    return out


def _rescaled(chart):
    """A projective change of scale of chart: its weight form is nonzero."""
    f = CoeffFn({2: QScalar(Fraction(1, 3)), 1: QScalar(-2)}, chart.param)
    hat = chart.change_scale(chart.exact_upsilon(f))
    assert any(not w.is_zero() for w in hat.weight_form)
    return hat


def _random_coeff(chart, rng):
    """c0 + c1 rho with small random integers."""
    c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
    return chart.lift(QScalar(c0)) + chart.lift(QScalar(c1)) * chart.rho()


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
@pytest.mark.parametrize("weight", [0, 3])
@pytest.mark.parametrize("degree", [2, 3])
def test_alternating_cov_deriv_matches_dense_loop(chart, rescale, weight, degree):
    ch = _rescaled(chart) if rescale else chart
    rng = random.Random(10 * degree + weight + rescale)
    form = AltTensor.form(6, degree, ch.zero())
    for idx in combinations(range(6), degree):
        if rng.random() < 0.6:
            form.set((), idx, _random_coeff(ch, rng))
    for a in range(6):
        got = ch.cov_deriv(form, a, weight)
        want = dense_cov_deriv(ch, form, a, weight)
        assert got.sym == form.sym
        for idx in product(range(6), repeat=degree):
            assert got.get((), idx) == want.get((), idx)


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
