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
from .tensors import SYM, AltTensor, _scatter, perm_sign

B1, B2, B3, B4, B5, B6 = "beta1", "beta2", "beta3", "beta4", "beta5", "beta6"
DEFINITE, SPLIT, DEGENERATE = "definite", "split", "degenerate"


class ClassificationError(RuntimeError):
    """Witness invariants landed outside the classification; internal error."""


# -- dimension 6 -------------------------------------------------------------


def jtilde_matrix(beta: AltTensor):
    """Matrix of v -> kappa((v . beta) ^ beta), with the e^{1..6} factor dropped.

    Row r of column a is the e^{1..6} coefficient of e^r ^ (e_a . beta) ^
    beta: the sum over the splits (r, p, t) of sign(r p t) S_a[p] beta_t,
    that is (N U^T)_ra for the split rows N and the slice rows U, read
    off the stored components.  Entries lie in beta's ring."""
    if beta.dim != 6 or beta.n_down != 3 or beta.n_up:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    U, N = _slice_rows(beta), _split_rows(beta)
    return [[_sparse_dot(row, Ua, beta.zero) for Ua in U] for row in N]


def lam(beta: AltTensor) -> QScalar:
    """lambda(beta) = (1/6) tr(Jtilde^2), as the (e^{1..6})^2 coefficient.

    tr(Jtilde^2) is the sum of Jtilde_ij Jtilde_ji over all i, j."""
    J = jtilde_matrix(beta)
    tr = linalg.sum_prod([x for row in J for x in row],
                         [x for col in zip(*J) for x in col])
    return tr * QScalar(Fraction(1, 6))


def kernel_dim(beta: AltTensor) -> int:
    """6 minus the rank of the slice rows: v . beta = 0 is v^T U = 0."""
    zero = beta.zero
    return 6 - linalg.rank([[row.get(p, zero) for p in range(comb(6, 2))]
                            for row in _slice_rows(beta)])


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
    which is (1/6) U N U^T for the slice rows U and the split rows N.

    Both are read off the stored components, so the 7 components of the
    family form give 21 slice entries and 42 split entries.  Row i takes
    W_i = sum_p U_ip N_p once, and h_ij = (1/6) W_i . U_j is formed for
    j >= i only and mirrored: htilde is symmetric because N is.

    Entries lie in phi's ring: QScalar pointwise, CoeffFn on a chart."""
    if phi.dim != 7 or phi.n_down != 3 or phi.n_up:
        raise ValueError("expected a 3-form on a 7-dimensional space")
    sixth = QScalar(Fraction(1, 6))
    U, N = _slice_rows(phi), _split_rows(phi)
    ht = [[phi.zero] * 7 for _ in range(7)]
    for i, row in enumerate(U):
        acc = {}
        for p, u in row.items():
            for q, w in N[p]:
                _scatter(acc, q, u * w)
        W = list(acc.items())
        for j in range(i, 7):
            ht[i][j] = ht[j][i] = _sparse_dot(W, U[j], phi.zero) * sixth
    return ht


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


@lru_cache(maxsize=None)
def _pairs(n: int):
    """The pairs c < d of n legs in combinations order, and each pair's index."""
    pairs = tuple(combinations(range(n), 2))
    return pairs, {p: i for i, p in enumerate(pairs)}


def _slice_rows(form: AltTensor):
    """U as one dict per leg a, pair index p -> form_{a p}: the nonzero
    components of the 2-form e_a . form.  A stored form_{bcd} (b < c < d)
    gives leg b the pair (c, d), leg c the pair (b, d) with a minus sign,
    and leg d the pair (b, c)."""
    index = _pairs(form.dim)[1]
    U = [{} for _ in range(form.dim)]
    for (_, (b, c, d)), v in form.comps.items():
        U[b][index[c, d]] = v
        U[c][index[b, d]] = -v
        U[d][index[b, c]] = v
    return U


def _sparse_dot(row, Ua, zero):
    """Sum of x U_a[p] over the entries (p, x) of row that meet U_a's support."""
    acc = zero
    for p, x in row:
        u = Ua.get(p)
        if u is not None:
            acc = acc + x * u
    return acc


@lru_cache(maxsize=None)
def _leg_splits(n: int):
    """For each increasing triple t of the n legs, the splits of the other
    legs into an increasing head h of n - 5 legs and a pair p, as (index of
    h, index of p, sign of the permutation h p t), h and p numbered in
    combinations order."""
    legs = range(n)
    heads = {h: i for i, h in enumerate(combinations(legs, n - 5))}
    pairs = _pairs(n)[1]
    table = {}
    for t in combinations(legs, 3):
        rest = [x for x in legs if x not in t]
        table[t] = [(heads[h], pairs[p], perm_sign(h + p + t))
                    for h in combinations(rest, n - 5)
                    for p in [tuple(x for x in rest if x not in h)]]
    return table


def _split_rows(form: AltTensor):
    """N as one list per head h of (pair index p, sign(h p t) form_t), over
    the splits of _leg_splits of each stored form_t; the head is one leg in
    dimension 6 and a pair in dimension 7, where N is symmetric."""
    n = form.dim
    N = [[] for _ in range(comb(n, n - 5))]
    splits = _leg_splits(n)
    for (_, t), v in form.comps.items():
        neg = -v
        for h, p, sign in splits[t]:
            N[h].append((p, v if sign > 0 else neg))
    return N


def _trace_normalised(phi: AltTensor, inverse):
    """(htilde, htilde^-1, s) for a 7-dim 3-form: s = phi.phi raised by
    htilde^-1, so that H = (s/42)^(1/3) htilde has phi.phi = 42 under
    H-raising; the inverse is linalg.inverse pointwise and inverse_laurent
    on a chart.

    s is read at one entry, by the classical stable-form identity.
    M_ab = phi_acd phi_bef h^ce h^df (h = htilde^-1) is a symmetric form
    that, like htilde, is invariant under the stabiliser of phi: G2 on
    the definite orbit, split G2 on the split one.  Each acts irreducibly
    on R^7, so by Schur's lemma M = (s/7) htilde; tracing with h gives
    s = tr(h M) and tr(h htilde) = 7.  Both sides are rational in the
    components of phi, so the identity holds wherever htilde is
    invertible, on a chart too.  So s = 7 M_ab / htilde_ab at the first
    nonzero entry (a, b) of htilde, where M_ab = -tr(S_a h S_b h) is
    summed over the supports of the slice rows U_a and U_b only:
    M_ab = 2 sum U_a[cd] U_b[ef] (h^ce h^df - h^cf h^de), c < d, e < f.
    The division is exact in both rings.  Over QScalar it is a field
    division.  The Laurent ring is an integral domain, and the quotient
    s/7 = M_ab / htilde_ab is a ring element, since s = tr(h M) sums
    products of ring elements (h is the ring inverse inverse_laurent
    returns).  So a monomial entry is inverted and any other is divided
    by CoeffFn's exact long division, which leaves no remainder.
    """
    ht = htilde_matrix(phi)
    hinv = inverse(ht)
    a, b = next((i, j) for i, row in enumerate(ht) for j, x in enumerate(row) if x)
    pairs = _pairs(7)[0]
    U = _slice_rows(phi)
    ub = [(pairs[q], w) for q, w in U[b].items()]
    acc = phi.zero
    for p, u in U[a].items():
        c, d = pairs[p]
        hc, hd = hinv[c], hinv[d]
        inner = phi.zero
        for (e, f), w in ub:
            inner = inner + w * (hc[e] * hd[f] - hc[f] * hd[e])
        acc = acc + u * inner
    return ht, hinv, acc * 14 / ht[a][b]


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
