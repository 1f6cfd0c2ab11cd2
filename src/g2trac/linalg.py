"""Exact dense linear algebra over QScalar and over the Laurent ring.

Matrices are plain lists of lists.  One Gauss-Jordan elimination, rref,
serves both coefficient rings: it normalises pivots that are units of
their ring and clears a column fraction-free where it has none, so the
inverse built on it divides only through exact quotients and metric
inverses stay inside the Laurent ring whenever the geometry permits.
Rank, kernel and the Sylvester signature are field routines over
QScalar.  Rows picked independent modulo the prime P = 2^61 - 1 are
independent exactly, which certifies a rank without eliminating every
row exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Optional, Sequence

from .scalars import DegenerateError, QScalar

Mat = List[List]


def eye(n, one, zero) -> Mat:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A: Mat, B: Mat) -> Mat:
    """A B as a sum of rows of B, skipping the zero entries of A.

    A zero row of A gives a row of B's zero, so the product keeps B's
    ring (and a CoeffFn's parameterization) even then."""
    zero = B[0][0] * 0
    out = []
    for arow in A:
        row = None
        for a, brow in zip(arow, B):
            if not a:
                continue
            if row is None:
                row = [a * b for b in brow]
            else:
                row = [r + a * b for r, b in zip(row, brow)]
        out.append(row if row is not None else [zero] * len(B[0]))
    return out


def mat_vec(A: Mat, v: Sequence) -> list:
    return [sum_prod(row, v) for row in A]


def sum_prod(row, v):
    acc = row[0] * v[0]
    for i in range(1, len(row)):
        acc = acc + row[i] * v[i]
    return acc


def transpose(A: Mat) -> Mat:
    return [list(col) for col in zip(*A)]


def congruence(A: Mat, g: Mat) -> Mat:
    """A^T g A."""
    return mat_mul(transpose(A), mat_mul(g, A))


# -- elimination ------------------------------------------------------------


def rref(A: Mat):
    """Row echelon form by Gauss-Jordan elimination; returns (R, pivot_columns).

    Entries are QScalar or CoeffFn.  Each column takes as pivot the first
    unit of the ring at or below the current row, scales it to 1 and
    clears the rest of the column.  Over QScalar every nonzero entry is a
    unit, so R is the reduced row echelon form.  A Laurent column without
    a monomial takes its first nonzero entry p and clears the column
    fraction-free, row <- p row - f (pivot row), so nothing is divided:
    each pivot column of R still has exactly one nonzero entry, but that
    entry need not be 1.
    """
    R = [row[:] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if R[i][c].is_unit()), None)
        unit = pr is not None
        if not unit:
            pr = next((i for i in range(r, rows) if not R[i][c].is_zero()), None)
            if pr is None:
                continue
        R[r], R[pr] = R[pr], R[r]
        if unit:
            inv = R[r][c].inverse()
            R[r] = [x * inv for x in R[r]]
        prow = R[r]
        p = prow[c]
        # the update leaves the columns where the pivot row is zero unchanged
        support = [j for j in range(cols) if not prow[j].is_zero()]
        for i in range(rows):
            f = R[i][c]
            if i != r and not f.is_zero():
                row = R[i][:] if unit else [p * x for x in R[i]]
                for j in support:
                    row[j] = row[j] - f * prow[j]
                R[i] = row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def inverse(A: Mat) -> Mat:
    """Inverse of a square QScalar or CoeffFn matrix, from rref([A | I]).

    The elimination leaves [D | D A^-1] with D diagonal.  D = I over
    QScalar, and over the Laurent ring when every pivot was a monomial
    (as for the collar metrics here, whose determinants are monomials).
    Otherwise a diagonal entry d is a product of fraction-free pivots,
    and its row is divided by d in exact Laurent long division, which
    raises ValueError when A^-1 has entries outside the Laurent ring.  A
    singular matrix raises DegenerateError.
    """
    n = len(A)
    zero = A[0][0] * 0
    one = zero + 1
    R, pivots = rref([row + e for row, e in zip(A, eye(n, one, zero))])
    if pivots != list(range(n)):
        raise DegenerateError("singular matrix")
    out = []
    for i, row in enumerate(R):
        d = row[i]
        out.append(row[n:] if d == one else [x / d for x in row[n:]])
    return out


def inverse_laurent(A: Mat) -> Mat:
    """inverse(A) for a CoeffFn matrix, under the name its callers use."""
    return inverse(A)


# -- field routines (QScalar entries) ------------------------------------


def rank(A: Mat) -> int:
    if not A:
        return 0
    return len(rref(A)[1])


def nullspace(A: Mat) -> List[list]:
    """Basis of the right kernel, entries QScalar."""
    if not A:
        return []
    cols = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QScalar.zero()] * cols
        v[fc] = QScalar.one()
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def row_space(A: Mat) -> List[list]:
    R, pivots = rref(A)
    return [R[i] for i in range(len(pivots))]


def same_subspace(B1: List[list], B2: List[list]) -> bool:
    """Do two lists of row vectors span the same subspace (exactly)?  The
    reduced row echelon form of a span is unique."""
    return row_space(B1) == row_space(B2)


def subspace_contains(B: List[list], v: list) -> bool:
    return rank(B + [v]) == rank(B) if B else all(x.is_zero() for x in v)


def signature(G: Mat):
    """Sylvester signature (p, q) of an exact symmetric QScalar matrix.

    Symmetric reduction with exact pivot signs; an off-diagonal
    hyperbolic pivot contributes (1, 1).  Each step updates only the
    rows and columns with a nonzero entry in the pivot columns.  A
    nonzero matrix whose active block is identically zero below full
    elimination means a degenerate form and raises DegenerateError.
    """
    n = len(G)
    M = [row[:] for row in G]
    active = list(range(n))
    p = q = 0
    while active:
        piv = next((i for i in active if not M[i][i].is_zero()), None)
        if piv is not None:
            s = M[piv][piv].sign()
            if s > 0:
                p += 1
            else:
                q += 1
            inv = M[piv][piv].inverse()
            rest = [i for i in active if i != piv]
            # only the rows and columns meeting the pivot column change
            col = {i: M[i][piv] for i in rest if not M[i][piv].is_zero()}
            for i, ci in col.items():
                fi = ci * inv
                row = M[i]
                for j, cj in col.items():
                    row[j] = row[j] - fi * cj
            active = rest
            continue
        pair = None
        for ii, i in enumerate(active):
            for j in active[ii + 1:]:
                if not M[i][j].is_zero():
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            raise DegenerateError("degenerate form: zero block in symmetric reduction")
        i, j = pair
        # hyperbolic 2x2 block: signature (1, 1); eliminate both rows/cols
        p += 1
        q += 1
        b = M[i][j]
        rest = [k for k in active if k not in (i, j)]
        binv = b.inverse()
        # a row (or column) zero in both pivot columns is unchanged
        hit = [k for k in rest if not (M[k][i].is_zero() and M[k][j].is_zero())]
        ci = {k: M[k][i] for k in hit}
        cj = {k: M[k][j] for k in hit}
        for k in hit:
            row = M[k]
            for l in hit:
                row[l] = row[l] - (ci[k] * cj[l] + cj[k] * ci[l]) * binv
        active = rest
    return p, q


# -- row selection modulo a prime ------------------------------------------

P = (1 << 61) - 1   # a Mersenne prime with P = 3 mod 4 in which 2 and 5 are squares


@lru_cache(maxsize=None)
def surds_mod_p():
    """Square roots of 2 and 5 modulo P: x^((P+1)/4) squares to x when x is a square."""
    s2, s5 = pow(2, (P + 1) // 4, P), pow(5, (P + 1) // 4, P)
    assert s2 * s2 % P == 2 and s5 * s5 % P == 5
    return s2, s5


def mod_p(x: QScalar) -> Optional[int]:
    """Image of x under sqrt2 -> s2, sqrt5 -> s5, sqrt10 -> s2 s5 in F_P.

    The map is a ring homomorphism on the elements whose coordinate
    denominators are units mod P; None when a denominator is divisible by P."""
    s2, s5 = surds_mod_p()
    acc = 0
    for q, unit in ((x.a, 1), (x.b, s2), (x.c, s5), (x.d, s2 * s5)):
        if q:
            if q.denominator % P == 0:
                return None
            acc += q.numerator * pow(q.denominator, -1, P) * unit
    return acc % P


def independent_rows_mod_p(A: Mat) -> Optional[List[int]]:
    """Indices of rows of A independent modulo P, taken greedily in order
    until they span all columns or A runs out; None when an entry read has
    no image mod P.

    Rows independent mod P have a minor that is nonzero mod P, hence
    nonzero: they are independent exactly, and at most rank A are found.
    """
    cols = len(A[0]) if A else 0
    basis: Dict[int, Dict[int, int]] = {}   # leading column -> row with leading 1
    picked: List[int] = []
    for i, row in enumerate(A):
        v = {}
        for j, x in enumerate(row):
            if x:
                y = mod_p(x)
                if y is None:
                    return None
                if y:
                    v[j] = y
        while v:
            c = min(v)
            if c not in basis:
                inv = pow(v[c], -1, P)
                basis[c] = {j: y * inv % P for j, y in v.items()}
                picked.append(i)
                break
            f = v[c]
            for j, y in basis[c].items():
                t = (v.get(j, 0) - f * y) % P
                if t:
                    v[j] = t
                else:
                    del v[j]
        if len(picked) == cols:
            break
    return picked


# -- Laurent-entry routines ----------------------------------------------


def det_perm(A: Mat):
    """Determinant by signed permutation expansion (n <= 7 in practice).

    The reference determinant: exact over any ring, but n! terms."""
    from .tensors import perm_sign
    n = len(A)
    total = None
    for perm in permutations(range(n)):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        if perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total
