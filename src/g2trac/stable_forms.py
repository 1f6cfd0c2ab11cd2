"""Stability of 3-forms in dimensions 6 and 7, and the attached structures.

Dimension 6: orbit classification of 3-forms into the six normal-form
classes, read from Jtilde and lambda(beta) = (1/6) tr(Jtilde^2).
Dimension 7: the induced symmetric bilinear form, signature
typing, and the cross-product matrix a stable 3-form and its metric
define.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from . import linalg
from .scalars import DegenerateError, QScalar
from .tensors import SYM, AltTensor, perm_sign

B1, B2, B3, B4, B5, B6 = "beta1", "beta2", "beta3", "beta4", "beta5", "beta6"
DEFINITE, SPLIT, DEGENERATE = "definite", "split", "degenerate"


class ClassificationError(RuntimeError):
    """Witness invariants landed outside the classification; internal error."""


# -- dimension 6 -------------------------------------------------------------


def jtilde_matrix(beta: AltTensor):
    """Matrix of v -> kappa((v . beta) ^ beta), with the e^{1..6} factor dropped.

    Row r of column a is the e^{1..6} coefficient of e^r ^ (e_a . beta) ^
    beta: the sum over the splits (r, p, t) of sign(r p t) S_a[p] beta_t."""
    if beta.dim != 6 or beta.n_down != 3 or beta.n_up:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    return linalg.mat_mul(_split_matrix(beta), linalg.transpose(_pair_rows(slices(beta))))


def lam(beta: AltTensor) -> QScalar:
    """lambda(beta) = (1/6) tr(Jtilde^2), as the (e^{1..6})^2 coefficient.

    tr(Jtilde^2) is the sum of Jtilde_ij Jtilde_ji over all i, j."""
    J = jtilde_matrix(beta)
    tr = linalg.sum_prod([x for row in J for x in row],
                         [x for col in zip(*J) for x in col])
    return tr * QScalar(Fraction(1, 6))


def kernel_dim(beta: AltTensor) -> int:
    return 6 - linalg.rank(_pair_rows(slices(beta)))


def classify6(beta: AltTensor) -> dict:
    """Orbit class of a 3-form in dimension 6 with its witness invariants.

    Stable forms are nondegenerate (their insertion kernel is zero), so
    the kernel is only computed on the lambda = 0 strata where it is the
    discriminating witness.
    """
    l = lam(beta)
    s = l.sign()
    if s > 0:
        return {"class": B1, "lambda": l, "kernel_dim": 0}
    if s < 0:
        return {"class": B2, "lambda": l, "kernel_dim": 0}
    k = kernel_dim(beta)
    if k == 0:
        cls = B3
    elif k == 1:
        cls = B4
    elif k == 3:
        cls = B5
    elif k == 6:
        cls = B6
    else:
        raise ClassificationError(
            f"lambda = 0 with kernel dimension {k}; no such orbit exists")
    return {"class": cls, "lambda": l, "kernel_dim": k}


# -- dimension 7 -------------------------------------------------------------


def htilde_matrix(phi: AltTensor):
    """Matrix of (1/6)(X . phi)^(Y . phi)^phi, e^{1..7} coefficient: the
    sum over the splits (p, q, t) of (1/6) sign(p q t) S_i[p] S_j[q] phi_t,
    which is (1/6) U N U^T for the slice rows U and the split matrix N.

    Entries lie in phi's ring: QScalar pointwise, CoeffFn on a chart."""
    if phi.dim != 7 or phi.n_down != 3 or phi.n_up:
        raise ValueError("expected a 3-form on a 7-dimensional space")
    sixth = QScalar(Fraction(1, 6))
    ht = linalg.congruence(linalg.transpose(_pair_rows(slices(phi))), _split_matrix(phi))
    return [[x * sixth for x in row] for row in ht]


def slices(phi: AltTensor):
    """S[a][b][c] = phi_{abc}: S[a] is the matrix of the 2-form e_a . phi.

    Every stored component fills its six signed entries once; entries lie
    in phi's ring."""
    n = phi.dim
    S = [[[phi.zero] * n for _ in range(n)] for _ in range(n)]
    for (_, (a, b, c)), v in phi.comps.items():
        S[a][b][c] = S[b][c][a] = S[c][a][b] = v
        S[a][c][b] = S[c][b][a] = S[b][a][c] = -v
    return S


def _pair_rows(S):
    """U[a][p] = S[a][p_0][p_1] over the pairs p_0 < p_1 in combinations
    order: row a lists the components of the 2-form e_a . phi."""
    pairs = list(combinations(range(len(S)), 2))
    return [[s[c][d] for c, d in pairs] for s in S]


@lru_cache(maxsize=None)
def _leg_splits(n: int):
    """For each increasing triple t of the n legs, the splits of the other
    legs into an increasing head h of n - 5 legs and a pair p, as (index of
    h, index of p, sign of the permutation h p t), h and p numbered in
    combinations order."""
    legs = range(n)
    heads = {h: i for i, h in enumerate(combinations(legs, n - 5))}
    pairs = {p: i for i, p in enumerate(combinations(legs, 2))}
    table = {}
    for t in combinations(legs, 3):
        rest = [x for x in legs if x not in t]
        table[t] = [(heads[h], pairs[p], perm_sign(h + p + t))
                    for h in combinations(rest, n - 5)
                    for p in [tuple(x for x in rest if x not in h)]]
    return table


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


def _trace_normalised(phi: AltTensor, inverse):
    """(htilde, htilde^-1, s) for a 7-dim 3-form: s = phi.phi raised by
    htilde^-1, so that H = (s/42)^(1/3) htilde has phi.phi = 42 under
    H-raising; the inverse is linalg.inverse pointwise and inverse_laurent
    on a chart."""
    ht = htilde_matrix(phi)
    hinv = inverse(ht)
    return ht, hinv, _phi_norm_with(phi, hinv)


def cross_matrix(phi: AltTensor, hinv, a: int):
    """Matrix X[c][b] = h^{ck} phi_{kab} of v -> e_a x v, the cross product
    phi and h define: hinv S_a^T.  Entries lie in phi's ring."""
    return linalg.mat_mul(hinv, linalg.transpose(slices(phi)[a]))


def phi_volume_with(phi: AltTensor, hinv, htilde=None):
    """e^{0..6} coefficient of (1/42) phi_{K[AB} phi^K_{CD} phi_{EFG]}, the
    indices raised with hinv; entries lie in phi's ring.

    It is tr(hinv htilde) / 1470 for phi's htilde: the one given (a
    geometry package carries it), else htilde_matrix(phi).  The signed
    sum over the 7! orderings of the legs meets each split (p, q, t) into
    two pairs and a triple 2! 2! 3! = 24 times, so it is
    24 sum_pq Psi_pq N_pq for the split matrix N and
    Psi_pq = phi_{Kp} h^{KL} phi_{Lq} = (U^T hinv U)_pq, U the slice rows.
    That is 24 tr(hinv U N U^T) = 144 tr(hinv htilde), and
    42 * 7! / 144 = 1470."""
    acc = phi.zero
    for hrow, trow in zip(hinv, htilde_matrix(phi) if htilde is None else htilde):
        for h, t in zip(hrow, trow):
            if not h.is_zero():
                acc = acc + h * t
    return acc * QScalar(Fraction(1, 1470))


SIGNATURES = {DEFINITE: (7, 0), SPLIT: (3, 4)}


def metric_from_3form7(phi: AltTensor):
    """(H, vol, class) for a 7-dimensional 3-form.

    Degenerate input returns class 'degenerate' (H and vol are None).
    The scale of H is pinned by phi.phi = 42 under H-raising, so
    H = c htilde with c^3 = s/42; the class needs only sign c = sign s.
    Resolving c needs a cube root, taken exactly when it lies in the
    coefficient field; when it does not, H and vol are None.
    """
    try:
        ht, _, s = _trace_normalised(phi, linalg.inverse)
    except DegenerateError:
        return None, None, DEGENERATE
    p, q = linalg.signature(ht)
    sig = (p, q) if s.sign() > 0 else (q, p)
    cls = next((k for k, v in SIGNATURES.items() if v == sig), None)
    if cls is None:
        raise ClassificationError(f"stable 3-form produced signature {sig}")
    try:
        c = (s / 42).cbrt()
    except ValueError:
        return None, None, cls
    H = [[x * c for x in row] for row in ht]
    vol = AltTensor.form(7, 7)
    vol.set((), tuple(range(7)), c.inverse())
    return AltTensor.from_matrix(H, 7, 0, SYM), vol, cls
