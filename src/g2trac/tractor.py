"""Projective tractor calculus over a framed chart.

Tractor indices run 0..n: slots 0..n-1 are the tangent legs of the
scale's splitting, slot n is the density leg (the canonical tractor X
is the coordinate vector of slot n).  A tractor 3-form Phi is one
alternating AltTensor on these n + 1 legs; its weight-3 slots in the
chart scale are sigma_{bc} = Phi_{bcn} and mu_{bcd} = Phi_{bcd}
(tractor_3form assembles Phi from them, slots reads them back).  Every
tractor tensor is differentiated by the one kernel FrameChart.cov_deriv
under the connection matrix tractor_connection.  A change of scale acts
on Phi through scale_3form, so nothing depends on the chart's preferred
scale beyond bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List

from .frames import FrameChart
from .laurent import CoeffFn
from .linalg import inverse_laurent
from .scalars import DegenerateError, QScalar
from .stable_forms import _trace_normalised, phi_volume_with
from .tensors import (ALT, NONE, SYM, AltTensor, _scatter, _tensor, perm_sign, perm_sign_rel,
                      sort_with_sign)


def tractor_3form(sigma: AltTensor, mu: AltTensor) -> AltTensor:
    """The tractor 3-form Phi on the legs 0..n (leg n is X) with the weight-3
    slots sigma_{bc} = Phi_{bcn} and mu_{bcd} = Phi_{bcd} of the chart
    scale."""
    if (sigma.n_down != 2 or mu.n_down != 3 or sigma.n_up or mu.n_up
            or sigma.sym != ALT or mu.sym != ALT):
        raise ValueError("tractor 3-form slots must be a 2-form and a 3-form")
    n = sigma.dim
    comps = dict(mu.comps)
    comps.update((((), idx + (n,)), v) for (_, idx), v in sigma.comps.items())
    return _tensor(n + 1, 0, 3, ALT, sigma.zero, comps)


def slots(phi: AltTensor):
    """(sigma, mu) of a tractor 3-form: sigma_{bc} = Phi_{bcn}, mu_{bcd} = Phi_{bcd}."""
    n = phi.dim - 1
    sigma = {((), K[:2]): v for (_, K), v in phi.comps.items() if K[2] == n}
    mu = {key: v for key, v in phi.comps.items() if key[1][2] != n}
    return _tensor(n, 0, 2, ALT, phi.zero, sigma), _tensor(n, 0, 3, ALT, phi.zero, mu)


# -- connections -----------------------------------------------------------


def tractor_connection(chart: FrameChart, a: int) -> List[List[CoeffFn]]:
    """The projective tractor connection along E_a in the chart scale, as
    the (n+1)x(n+1) connection matrix of FrameChart.cov_deriv:
    A[b][e] = G^e_{ab}, A[b][n] = -P_{ab}, A[n][a] = 1, zero elsewhere.

    On a cotractor, nabla_a U_B = E_a U_B + w (weight form)_a U_B
    - sum_E A[B][E] U_E; a tractor V is acted on through A^T."""
    n = chart.dim
    P = chart.schouten()
    z = chart.zero()
    A = [list(chart.G[a][b]) + [-P.get((), (a, b))] for b in range(n)]
    A.append([chart.one() if e == a else z for e in range(n)] + [z])
    return A


def d_cotractor_tensor(chart: FrameChart, T: AltTensor, a: int) -> AltTensor:
    """nabla_a of a covariant tractor tensor with components on indices 0..n,
    of weight one per slot: FrameChart.cov_deriv under tractor_connection."""
    return chart.cov_deriv(T, a, T.n_down, tractor_connection(chart, a))


def d_tractor_3form(chart: FrameChart, phi: AltTensor, a: int) -> AltTensor:
    """nabla_a of a tractor 3-form.  In slots it is
    (nabla_a sigma_{bc} - mu_{abc},
     nabla_a mu_{bcd} + P_{ab}sigma_{cd} + P_{ac}sigma_{db} + P_{ad}sigma_{bc})."""
    return d_cotractor_tensor(chart, phi, a)


def tractor_volume(chart: FrameChart) -> AltTensor:
    """The canonical parallel tractor (n+1)-form in the chart scale,
    built from the frame volume (valid because the distinguished
    connection preserves it)."""
    n = chart.dim
    eps = AltTensor.form(n + 1, n + 1, chart.zero())
    # component on (n, 0, 1, .., n-1) is +1; canonical key is (0..n)
    sign = perm_sign((n,) + tuple(range(n)))
    eps.set((), tuple(range(n + 1)), chart.lift(sign))
    return eps


def tractor_metric_from_phi(chart: FrameChart, phi: AltTensor):
    """(H, H^-1, htilde): the tractor metric a generic parallel 3-form
    induces, its inverse matrix, and the matrix htilde it normalises.

    Normalized by the trace identity 6 H_{AD} = Phi_{ABC} Phi_D^{BC}
    (equivalently Phi.Phi = 42 under H-raising), which is orientation
    free and needs no root extraction beyond an exact monomial cube
    root.  Raised by htilde^-1 instead, Phi_{ABC} Phi_D^{BC} is
    (s/7) htilde_{AD} by Schur's lemma (the stabiliser of Phi, G2 or
    split G2, acts irreducibly on the tractors), where s is Phi.Phi under
    htilde^-1-raising; stable_forms._trace_normalised reads s as that
    quotient at the first nonzero entry of htilde, a division that is
    exact because s is a Laurent element and the ring has no zero
    divisors.
    H = c htilde for the cube root c = (s/42)^(1/3), so
    H^-1 = c^-1 htilde^-1 reuses the one inverse the normalisation
    takes, and htilde is returned for the volume coefficient
    (phi_volume_ratio).  Degenerate input raises
    DegenerateError.
    """
    n = chart.dim
    if n != 6:
        raise ValueError("the tractor metric construction needs a 6-dimensional chart")
    ht, htinv, s = _trace_normalised(phi, inverse_laurent)
    if s.is_zero():
        raise DegenerateError("tractor 3-form is degenerate")
    c = (s / 42).cbrt()
    cinv = c.inverse()
    H = AltTensor.from_matrix([[x * c for x in row] for row in ht], 7, 0, SYM, chart.zero())
    return H, [[x * cinv for x in row] for row in htinv], ht


def tractor_metric_hhdef(chart: FrameChart, phi: AltTensor, orientation: int = 1) -> AltTensor:
    """H_{AB} = (1/144) Phi_{A C1 C2} Phi_{B C3 C4} Phi_{C5 C6 C7} eps^{C1..C7},
    the epsilon-contraction route, with an explicit orientation for the
    tractor volume.  Used to cross-check the trace-normalized metric.

    The summand is unchanged by reordering C1 C2, C3 C4 or C5 C6 C7, so
    the 5040 orderings collapse to the splits of the seven legs into
    increasing p, q, t, each counted 2! 2! 3! = 24 times.  The sum runs
    over the stored components' pair index: each stored Phi_K lists
    (A, Phi_{A p}) under the pair p = K minus A, and each stored Phi_t
    multiplies the two lists of every split of the other four legs into
    pairs p, q."""
    n = chart.dim
    if n != 6:
        raise ValueError("the tractor metric construction needs a 6-dimensional chart")
    legs = tuple(range(7))
    pairs = {}
    for (_, K), v in phi.comps.items():
        for A in K:
            p = tuple(x for x in K if x != A)
            pairs.setdefault(p, []).append((A, v if sort_with_sign((A,) + p)[1] > 0 else -v))
    acc = {}
    for (_, t), phi3 in phi.comps.items():
        rest = [x for x in legs if x not in t]
        for p in combinations(rest, 2):
            q = tuple(x for x in rest if x not in p)
            pa, qb = pairs.get(p), pairs.get(q)
            if not pa or not qb:
                continue
            phi3s = phi3 if perm_sign_rel_cached(legs, p + q + t) > 0 else -phi3
            for A, va in pa:
                vat = va * phi3s
                for B, vb in qb:
                    if A <= B:
                        _scatter(acc, ((), (A, B)), vat * vb)
    eps_sign = tractor_volume(chart).get((), legs) * QScalar.of(orientation)
    scale = eps_sign * QScalar(Fraction(1, 6))
    return _tensor(7, 0, 2, SYM, chart.zero(), {k: v * scale for k, v in acc.items()})


def phi_volume_ratio(chart: FrameChart, phi: AltTensor, Hinv, htilde=None) -> CoeffFn:
    """Coefficient of (1/42) Phi_{K[AB} Phi^K_{CD} Phi_{EFG]} against the
    frame tractor volume, indices raised with the inverse matrix Hinv of
    the tractor metric; its sign is the orientation of Phi relative to
    the chart frame.  It is tr(Hinv htilde)/1470 on Phi's htilde, the
    one a package carries when given, else built from Phi."""
    ratio = phi_volume_with(phi, Hinv, htilde)
    return ratio * tractor_volume(chart).get((), tuple(range(7)))


_psr_cache = {}


def perm_sign_rel_cached(base, perm):
    key = (base, perm)
    v = _psr_cache.get(key)
    if v is None:
        v = _psr_cache[key] = perm_sign_rel(base, perm)
    return v


# -- Killing-Yano prolongation ------------------------------------------------


def ky_symmetrized_derivative(chart: FrameChart, omega: AltTensor) -> AltTensor:
    """Brute-force oracle: S_{abc} = (nabla_a omega_{bc} + nabla_b omega_{ac})/2."""
    n = chart.dim
    half = chart.lift(Fraction(1, 2))
    acc = {}
    for a in range(n):
        for (_, (b, c)), v in chart.cov_deriv(omega, a, weight=3).raw_items():
            _scatter(acc, ((), (a, b, c)), v)
            _scatter(acc, ((), (b, a, c)), v)
    return _tensor(n, 0, 3, NONE, chart.zero(), {k: v * half for k, v in acc.items()})


def omega_weyl_cycle(omega: AltTensor, W: AltTensor, a: int) -> AltTensor:
    """The 3-form omega_{kb} W_{cd}{}^k{}_a + (cyclic in b, c, d), which is
    3 omega_{k[b} W_{cd]}{}^k{}_a because W is skew in its first two legs.

    Each stored W^k_{yza} with y < z, times each nonzero omega_{kx}, goes
    to the sorted (x, y, z) with the sort's sign; the skew symmetry of W
    supplies the terms with y > z."""
    rows = [[] for _ in range(omega.dim)]
    for (_, (k, x)), o in omega.raw_items():
        rows[k].append((x, o))
    acc = {}
    for ((k,), (y, z, c)), w in W.raw_items():
        if c == a and y < z:
            for x, o in rows[k]:
                key, sign = sort_with_sign((x, y, z))
                if sign:
                    _scatter(acc, ((), key), o * w, sign)
    return _tensor(omega.dim, 0, 3, ALT, omega.zero, acc)


# -- scale changes --------------------------------------------------------------


def scale_3form(phi: AltTensor, upsilon: List[CoeffFn]) -> AltTensor:
    """Phi in the rescaled splitting: the pullback by the identity with row n
    = (Upsilon_0..Upsilon_{n-1}, 1), so sigma is unchanged and
    mu_{bcd} + Upsilon_b sigma_{cd} + Upsilon_c sigma_{db} + Upsilon_d sigma_{bc}."""
    n = phi.dim - 1
    S = [[int(i == j) for j in range(n + 1)] for i in range(n)]
    return phi.pullback(S + [list(upsilon) + [1]])
