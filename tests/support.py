"""Helpers that two or more test modules share.

They are oracles and drivers of the tests, not part of the verifier: the
battery, the CLI and the scripts never call them.  Import them by name
(`from support import d_tractor`); pytest does not collect this module.
"""

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List

from g2trac import linalg
from g2trac.frames import FrameChart
from g2trac.geometry import GeometryPackage
from g2trac.laurent import CoeffFn
from g2trac.octonions import ImaginaryVector, dot, dot_matrix, jmap
from g2trac.scalars import QScalar
from g2trac.stable_forms import _leg_splits, slices
from g2trac.tensors import NONE, AltTensor, _scatter, _tensor
from g2trac.tractor import (d_tractor_3form, omega_weyl_cycle, tractor_3form,
                            tractor_connection, tractor_metric_from_phi)


def cross(x: ImaginaryVector, y: ImaginaryVector) -> ImaginaryVector:
    """x X y = -jmap(x) y: jmap walks the cached structure table built
    from the doubling product (bilinearity makes the two routes
    identical; tested)."""
    x._check(y)
    return ImaginaryVector([-v for v in linalg.mat_vec(jmap(x), y.comps)], x.xi)


def random_null_vector(rng) -> ImaginaryVector:
    """Rational point on the split null cone via projection from e1 + e4."""
    base = [QScalar.of(c) for c in (1, 0, 0, 1, 0, 0, 0)]
    G = dot_matrix(-1)
    while True:
        w = [QScalar.of(rng.randint(-9, 9)) for _ in range(7)]
        qw = linalg.sum_prod(linalg.mat_vec(G, w), w)
        if qw.is_zero():
            v = ImaginaryVector(w, -1)
            if not v.is_zero():
                return v
            continue
        bw = linalg.sum_prod(linalg.mat_vec(G, base), w)
        t = (bw * QScalar.of(-2)) / qw
        x = [b + t * ww for b, ww in zip(base, w)]
        v = ImaginaryVector(x, -1)
        if not v.is_zero() and dot(v, v).is_zero():
            return v


def exact_upsilon(chart: FrameChart, f: CoeffFn) -> List[CoeffFn]:
    """Upsilon = df for a coefficient function f (components per direction)."""
    return [chart.dir_deriv(a, f) for a in range(chart.dim)]


def recompute_H_defect(pkg: GeometryPackage) -> List[CoeffFn]:
    H2, _, _ = tractor_metric_from_phi(pkg.chart, pkg.phi)
    return [v for row in (H2 - pkg.H).as_matrix() for v in row]


# -- tractors and cotractors ----------------------------------------------------


def _d_one_slot(chart: FrameChart, comps: List[CoeffFn], a: int, n_up: int) -> List[CoeffFn]:
    """nabla_a of a tractor (n_up = 1, weight -1) or a cotractor
    (n_up = 0, weight +1) in the frame trivialization."""
    def key(i):
        return ((i,), ()) if n_up else ((), (i,))
    T = AltTensor(len(comps), n_up, 1 - n_up, NONE, chart.zero())
    for i, v in enumerate(comps):
        T.set(*key(i), v)
    d = chart.cov_deriv(T, a, -1 if n_up else 1, tractor_connection(chart, a))
    return [d.get(*key(i)) for i in range(len(comps))]


def d_tractor(chart: FrameChart, V: List[CoeffFn], a: int) -> List[CoeffFn]:
    """nabla_a of an (unweighted) tractor V = (nu^0..nu^{n-1}, rho)."""
    return _d_one_slot(chart, V, a, 1)


def d_cotractor(chart: FrameChart, U: List[CoeffFn], a: int) -> List[CoeffFn]:
    """nabla_a of a cotractor U = (mu_0..mu_{n-1}, sigma)."""
    return _d_one_slot(chart, U, a, 0)


# -- Killing-Yano prolongation ------------------------------------------------


def ky_prolong(chart: FrameChart, omega: AltTensor):
    """Prolongation data for the Killing-Yano operator on a weight-3 2-form.

    Returns (pair, hat_derivs, residual):
      pair       the tractor 3-form with slots (omega, mu), mu the
                 alternation of nabla omega,
      hat_derivs per-direction values of the prolongation connection on
                 the pair, including the Weyl correction term,
      residual   S_{abc} = nabla_{(a} omega_{b)c}, recovered from the
                 first-slot defect d via S_abc = d_abc - d_cba / 2.
    """
    n = chart.dim
    zero = chart.zero()
    # raw_{abc} = nabla_a omega_{bc}
    raw = _tensor(n, 0, 3, NONE, zero, {
        ((), (a,) + bc): v for a in range(n)
        for (_, bc), v in chart.cov_deriv(omega, a, weight=3).raw_items()})
    mu = raw.alternation()
    pair = tractor_3form(omega, mu)
    W = chart.weyl()
    half = chart.lift(Fraction(1, 2))
    no_sigma = AltTensor.form(n, 2, zero)
    hat = []
    for a in range(n):
        # (3/2) omega_{k[b} W_{cd]}{}^k{}_a = (1/2) * cyclic sum, in the mu slot
        corr = omega_weyl_cycle(omega, W, a).scale(half)
        hat.append(d_tractor_3form(chart, pair, a) - tractor_3form(no_sigma, corr))
    # first-slot defect d_abc = raw_abc - mu_abc and the exact recovery
    # S_abc = d_abc - d_cba / 2 of the symmetrized derivative
    acc = dict(raw.comps)
    for key, v in mu.raw_items():
        _scatter(acc, key, v, -1)
    defect = _tensor(n, 0, 3, NONE, zero, acc)
    acc = dict(defect.comps)
    for (_, (a, b, c)), v in defect.comps.items():
        _scatter(acc, ((), (c, b, a)), v * half, -1)
    return pair, hat, _tensor(n, 0, 3, NONE, zero, acc)


# -- the dense stable-form route ------------------------------------------------
# htilde and jtilde from the dense slice rows and split matrix, and the
# phi-norm by a pullback: the oracles of stable_forms' sparse kernels and of
# the scale it reads off the trace identity.


def _pair_rows(S):
    """U[a][p] = S[a][p_0][p_1] over the pairs p_0 < p_1 in combinations
    order: row a lists the components of the 2-form e_a . phi."""
    pairs = list(combinations(range(len(S)), 2))
    return [[s[c][d] for c, d in pairs] for s in S]


def _split_matrix(form: AltTensor):
    """N[h][p] = sign(h p t) form_t for a 3-form on 6 or 7 legs, over the
    splits of _leg_splits; the head h is one leg in dimension 6 and a pair
    in dimension 7, where N is symmetric."""
    n = form.dim
    N = [[form.zero] * comb(n, 2) for _ in range(comb(n, n - 5))]
    splits = _leg_splits(n)
    for (_, t), v in form.comps.items():
        for h, p, sign in splits[t]:
            N[h][p] = v if sign > 0 else -v
    return N


def _phi_norm_with(phi: AltTensor, hinv):
    """phi_{ABC} phi_{DEF} h^{AD} h^{BE} h^{CF} for a symmetric hinv: 6 times the
    sum over a < b < c of phi_abc phi^abc, with phi raised once by the sparse
    pullback along hinv."""
    raised = phi.pullback(hinv).comps
    acc = phi.zero
    for key, v in phi.comps.items():
        w = raised.get(key)
        if w is not None:
            acc = acc + v * w
    return acc * 6


def dense_htilde(phi: AltTensor):
    """(1/6) U N U^T over the dense slice rows U and split matrix N."""
    sixth = QScalar(Fraction(1, 6))
    ht = linalg.congruence(linalg.transpose(_pair_rows(slices(phi))), _split_matrix(phi))
    return [[x * sixth for x in row] for row in ht]


def dense_jtilde(beta: AltTensor):
    """N U^T over the dense split matrix N and slice rows U."""
    return linalg.mat_mul(_split_matrix(beta), linalg.transpose(_pair_rows(slices(beta))))
