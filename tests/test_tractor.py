import random
from fractions import Fraction
from itertools import combinations
from typing import List

import pytest

from g2trac.frames import FrameChart
from g2trac.laurent import CoeffFn, PLAIN
from g2trac.scalars import QScalar
from g2trac.tensors import NONE, SYM, AltTensor
from g2trac.tractor import (d_cotractor_tensor, d_tractor_3form, slots, tractor_3form,
                            ky_symmetrized_derivative, omega_weyl_cycle,
                            perm_sign_rel_cached, scale_3form, tractor_metric_hhdef,
                            tractor_volume)
from g2trac.qm_family import REGRESSION_PARAMETERS, family_chart
from support import d_cotractor, d_tractor, exact_upsilon, ky_prolong


def scale_tractor(V: List[CoeffFn], upsilon: List[CoeffFn]) -> List[CoeffFn]:
    n = len(V) - 1
    rho = V[n]
    for a in range(n):
        rho = rho - upsilon[a] * V[a]
    return V[:n] + [rho]


def scale_cotractor(U: List[CoeffFn], upsilon: List[CoeffFn]) -> List[CoeffFn]:
    n = len(U) - 1
    return [U[b] + upsilon[b] * U[n] for b in range(n)] + [U[n]]


def random_2form(chart, rng, rho_dependent=True):
    t = AltTensor.form(chart.dim, 2, chart.zero())
    rho = chart.rho()
    for idx in combinations(range(chart.dim), 2):
        c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
        v = chart.lift(QScalar(c0))
        if rho_dependent:
            v = v + chart.lift(QScalar(c1)) * rho
        if not v.is_zero():
            t.set((), idx, v)
    return t


def test_parallel_canonical_tractor_X():
    # nabla_a X = W_a: the derivative of the canonical tractor is the
    # corresponding frame splitting vector
    chart = family_chart(Fraction(1, 2))
    X = [chart.zero()] * 6 + [chart.one()]
    for a in range(6):
        dX = d_tractor(chart, X, a)
        for b in range(6):
            want = chart.one() if b == a else chart.zero()
            assert (dX[b] - want).is_zero()
        assert dX[6].is_zero()


def test_tractor_volume_parallel_flat_and_family():
    for chart in (FrameChart(6, PLAIN, rho_directions=(5,)),
                  family_chart(Fraction(5, 6))):
        vol = tractor_volume(chart)
        for a in range(6):
            assert d_cotractor_tensor(chart, vol, a).is_zero()


def test_slot_formula_matches_generic_derivative(pkg_half):
    chart = pkg_half.chart
    full = pkg_half.phi
    for a in range(6):
        generic = d_cotractor_tensor(chart, full, a)
        by_slot = d_tractor_3form(chart, pkg_half.phi, a)
        for idx in combinations(range(7), 3):
            assert (generic.get((), idx) - by_slot.get((), idx)).is_zero()


def test_scale_change_covariance_of_tractor_derivative():
    # transforming then differentiating equals differentiating then
    # transforming, with random polynomial exact Upsilon
    chart = family_chart(Fraction(1, 2))
    rng = random.Random(31)
    for _ in range(6):
        f = CoeffFn({1: QScalar(rng.randint(-3, 3)),
                     2: QScalar(Fraction(rng.randint(-2, 2), 3))}, chart.param)
        ups = exact_upsilon(chart, f)
        hat = chart.change_scale(ups)
        V = [chart.lift(QScalar(rng.randint(-3, 3))) for _ in range(7)]
        for a in range(6):
            left = scale_tractor(d_tractor(chart, V, a), ups)
            right = d_tractor(hat, scale_tractor(V, ups), a)
            assert all((l - r).is_zero() for l, r in zip(left, right))
        U = [chart.lift(QScalar(rng.randint(-3, 3))) for _ in range(7)]
        for a in range(6):
            left = scale_cotractor(d_cotractor(chart, U, a), ups)
            right = d_cotractor(hat, scale_cotractor(U, ups), a)
            assert all((l - r).is_zero() for l, r in zip(left, right))


def test_scale_change_covariance_of_3form_derivative(pkg_half):
    chart = pkg_half.chart
    f = CoeffFn({1: QScalar(2)}, chart.param)
    ups = exact_upsilon(chart, f)
    hat = chart.change_scale(ups)
    phi_hat = scale_3form(pkg_half.phi, ups)
    for a in range(6):
        left = scale_3form(d_tractor_3form(chart, pkg_half.phi, a), ups)
        right = d_tractor_3form(hat, phi_hat, a)
        assert (left - right).is_zero()


def test_ky_constant_form_parallel_on_flat_chart():
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    omega = AltTensor.form(6, 2, chart.zero())
    omega.set((), (0, 1), chart.one())
    omega.set((), (2, 4), chart.lift(-3))
    pair, hat, residual = ky_prolong(chart, omega)
    assert slots(pair)[1].is_zero()
    assert residual.is_zero()
    assert all(h.is_zero() for h in hat)


def test_ky_residual_equals_brute_force_on_50_random_forms():
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    rng = random.Random(37)
    for _ in range(50):
        omega = random_2form(chart, rng)
        _, _, residual = ky_prolong(chart, omega)
        oracle = ky_symmetrized_derivative(chart, omega)
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    assert (residual.get((), (a, b, c))
                            - oracle.get((), (a, b, c))).is_zero()


def test_ky_residual_equivalence_on_curved_chart():
    chart = family_chart(Fraction(1, 2))
    rng = random.Random(41)
    for _ in range(10):
        omega = random_2form(chart, rng)
        _, _, residual = ky_prolong(chart, omega)
        oracle = ky_symmetrized_derivative(chart, omega)
        assert (residual - oracle).is_zero()


def test_family_2form_is_killing_yano_and_weyl_correction_vanishes(pkg_half):
    chart = pkg_half.chart
    omega, mu = slots(pkg_half.phi)
    pair, hat, residual = ky_prolong(chart, omega)
    assert residual.is_zero()
    assert (slots(pair)[1] - mu).is_zero()
    # the prolongation connection annihilates the pair...
    assert all(h.is_zero() for h in hat)
    # ...and the curvature correction term vanishes separately
    W = chart.weyl()
    for a in range(6):
        for (b, c, d) in combinations(range(6), 3):
            acc = chart.zero()
            for (x, y, z) in ((b, c, d), (c, d, b), (d, b, c)):
                for k in range(6):
                    o = omega.get((), (k, x))
                    if not o.is_zero():
                        acc = acc + o * W.get((k,), (y, z, a))
            assert acc.is_zero()


def test_omega_weyl_cycle_is_three_times_the_alternation():
    # oracle: T_{bcd} = omega_{kb} W_{cd}{}^k{}_a, alternated over b, c, d
    chart = family_chart(Fraction(1, 2))
    W = chart.weyl()
    rng = random.Random(43)
    nonzero = 0
    for _ in range(3):
        omega = random_2form(chart, rng)
        for a in range(6):
            T = AltTensor(6, 0, 3, NONE, chart.zero())
            for b in range(6):
                for c in range(6):
                    for d in range(6):
                        acc = chart.zero()
                        for k in range(6):
                            acc = acc + omega.get((), (k, b)) * W.get((k,), (c, d, a))
                        if not acc.is_zero():
                            T.set((), (b, c, d), acc)
            got = omega_weyl_cycle(omega, W, a)
            assert (got - T.alternation().scale(chart.lift(3))).is_zero()
            nonzero += not got.is_zero()
    assert nonzero


# -- the sparse tractor kernels against the dense loops --------------------------


def dense_hhdef(chart, phi, orientation=1):
    """H_{AB} summed over all 210 splits (p, q, t) of the seven legs, every
    component read through get."""
    full = phi
    vol = tractor_volume(chart)
    legs = tuple(range(7))
    eps_sign = vol.get((), legs) * QScalar.of(orientation)
    splits = []
    for t in combinations(legs, 3):
        rest = [x for x in legs if x not in t]
        for p in combinations(rest, 2):
            q = tuple(x for x in rest if x not in p)
            sign = perm_sign_rel_cached(legs, p + q + t)
            phi3 = full.get((), t)
            if not phi3.is_zero():
                splits.append((p, q, phi3 if sign > 0 else -phi3))
    H = AltTensor(7, 0, 2, SYM, chart.zero())
    pref = QScalar(Fraction(1, 6))
    for A in range(7):
        for B in range(A, 7):
            acc = chart.zero()
            for p, q, phi3 in splits:
                va = full.get((), (A,) + p)
                if va.is_zero():
                    continue
                vb = full.get((), (B,) + q)
                if not vb.is_zero():
                    acc = acc + va * vb * phi3
            acc = acc * pref * eps_sign
            if not acc.is_zero():
                H.set((), (A, B), acc)
    return H


def dense_d_tractor_3form(chart, phi, a):
    """The slot formula over every index combination, read through get."""
    n = chart.dim
    P = chart.schouten()
    sigma, mu = slots(phi)
    ds = chart.cov_deriv(sigma, a, weight=3)
    dm = chart.cov_deriv(mu, a, weight=3)
    top = AltTensor.form(n, 2, chart.zero())
    for idx in combinations(range(n), 2):
        top.set((), idx, ds.get((), idx) - mu.get((), (a,) + idx))
    bot = AltTensor.form(n, 3, chart.zero())
    for (b, c, d) in combinations(range(n), 3):
        v = dm.get((), (b, c, d))
        v = v + P.get((), (a, b)) * sigma.get((), (c, d))
        v = v + P.get((), (a, c)) * sigma.get((), (d, b))
        v = v + P.get((), (a, d)) * sigma.get((), (b, c))
        bot.set((), (b, c, d), v)
    return tractor_3form(top, bot)


def assert_same_form(got, want):
    assert (got.dim, got.n_up, got.n_down, got.sym) == (want.dim, want.n_up, want.n_down, want.sym)
    assert got.comps == want.comps


def test_tractor_3form_slots_must_be_alternating():
    # the kernels read the slots' stored components as increasing index sets
    chart = family_chart(Fraction(1, 2))
    sigma, mu = AltTensor.form(6, 2, chart.zero()), AltTensor.form(6, 3, chart.zero())
    with pytest.raises(ValueError):
        tractor_3form(AltTensor(6, 0, 2, NONE, chart.zero()), mu)
    with pytest.raises(ValueError):
        tractor_3form(sigma, AltTensor(6, 0, 3, SYM, chart.zero()))


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_tractor_kernels_match_dense_loops_on_regression_packages(family_package, m):
    pkg = family_package(m)
    chart = pkg.chart
    for orientation in (1, -1):
        assert_same_form(tractor_metric_hhdef(chart, pkg.phi, orientation),
                         dense_hhdef(chart, pkg.phi, orientation))
    for a in range(6):
        got = slots(d_tractor_3form(chart, pkg.phi, a))
        want = slots(dense_d_tractor_3form(chart, pkg.phi, a))
        assert_same_form(got[0], want[0])
        assert_same_form(got[1], want[1])


def _random_3form_pair(chart, rng, density=0.4):
    sigma, mu = AltTensor.form(6, 2, chart.zero()), AltTensor.form(6, 3, chart.zero())
    for form, k in ((sigma, 2), (mu, 3)):
        for idx in combinations(range(6), k):
            if rng.random() < density:
                c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
                form.set((), idx, chart.lift(QScalar(c0)) + chart.lift(QScalar(c1)) * chart.rho())
    return tractor_3form(sigma, mu)


@pytest.mark.parametrize("rescale", [False, True], ids=["family", "rescaled"])
@pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(3, 7)], ids=str)
def test_tractor_kernels_match_dense_loops_on_random_forms(m, rescale):
    chart = family_chart(m)
    if rescale:
        f = CoeffFn({2: QScalar(Fraction(1, 3)), 1: QScalar(-2)}, chart.param)
        chart = chart.change_scale(exact_upsilon(chart, f))
        assert any(not w.is_zero() for w in chart.weight_form)
    # P is nonzero on the family charts, with more entries after the rescale
    assert len(chart.schouten().comps) > (3 if rescale else 0)
    rng = random.Random(61 + 7 * rescale + m.denominator)
    moved = 0
    for _ in range(3):
        phi = _random_3form_pair(chart, rng)
        for a in range(6):
            got = slots(d_tractor_3form(chart, phi, a))
            want = slots(dense_d_tractor_3form(chart, phi, a))
            assert_same_form(got[0], want[0])
            assert_same_form(got[1], want[1])
            moved += not got[1].is_zero()
        for orientation in (1, -1):
            got = tractor_metric_hhdef(chart, phi, orientation)
            assert_same_form(got, dense_hhdef(chart, phi, orientation))
            assert not got.is_zero()
    assert moved
