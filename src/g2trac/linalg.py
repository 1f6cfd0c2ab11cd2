"""Exact dense linear algebra over QScalar and over the Laurent ring.

Matrices are plain lists of lists.  One Gauss-Jordan elimination, rref,
serves both coefficient rings: it normalises pivots that are units of
their ring and clears a column fraction-free where it has none, so the
inverse built on it divides only through exact quotients and metric
inverses stay inside the Laurent ring whenever the geometry permits.
Rank, kernel and the Sylvester signature are field routines over
QScalar; rref_kernel reads a kernel basis off an elimination already
made.  A subspace is tested through the equations that cut it out:
kills(M, vectors) asks M v = 0 without elimination, spans_kernel(B, M)
adds a rank count, and same_subspace compares two spans by their reduced
row echelon forms.  mat_vec and kills multiply each row only on the
nonzero entries of the vector.  solve_sparse solves an overdetermined affine system
given as sparse QScalar rows, eliminating the sparsest rows first and
stopping once every unknown holds a pivot.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Sequence

from .scalars import DegenerateError, QScalar

Mat = List[List]


def eye(n, one, zero) -> Mat:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A: Mat, B: Mat) -> Mat:
    """A B as a sum of rows of B, skipping the zero entries of A and B.

    A zero row of A, and a zero entry b where a row starts, give B's zero,
    so the product keeps B's ring (and a CoeffFn's parameterization)."""
    zero = B[0][0] * 0
    out = []
    for arow in A:
        row = None
        for a, brow in zip(arow, B):
            if not a:
                continue
            if row is None:
                row = [a * b if b else zero for b in brow]
            else:
                row = [r + a * b if b else r for r, b in zip(row, brow)]
        out.append(row if row is not None else [zero] * len(B[0]))
    return out


def mat_vec(A: Mat, v: Sequence) -> list:
    """A v, each row multiplied only on the nonzero entries of v; a zero
    result is sum_prod's, a zero of the operands' ring and parameterization."""
    support = _support(v)
    out = []
    for row in A:
        acc = _dot_on(row, support)
        out.append(row[0] * v[0] if acc is None else acc)
    return out


def sum_prod(row, v):
    """Sum of row[i] v[i] over the pairs with both entries nonzero; with
    none, row[0] v[0], a zero of the operands' ring and parameterization."""
    acc = _dot_on(row, _support(v))
    return row[0] * v[0] if acc is None else acc


def _support(v) -> list:
    """The nonzero entries (j, v_j) of a vector."""
    return [(j, x) for j, x in enumerate(v) if x]


def _dot_on(row, support):
    """Sum of row[j] x over a vector's support, skipping zero row[j]; None
    when no pair has both entries nonzero."""
    acc = None
    for j, x in support:
        a = row[j]
        if a:
            acc = a * x if acc is None else acc + a * x
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
    return rref_kernel(*rref(A), len(A[0]))


def rref_kernel(R: Mat, pivots: List[int], cols: int) -> List[list]:
    """Kernel basis read off rref's output: for each free column fc, the
    vector with 1 at fc, 0 at the other free columns and -R[r][fc] at the
    r-th pivot column.  The free entries of a kernel vector are thus its
    coordinates in this basis."""
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
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


def kills(M: Mat, vectors: List[list]) -> bool:
    """Is M v = 0 for every v, so that the vectors lie in ker M?  No
    equations (M = []) cut out the whole space and kill every vector."""
    for v in vectors:
        support = _support(v)
        if any(_dot_on(row, support) for row in M):
            return False
    return True


def spans_kernel(B: List[list], M: Mat) -> bool:
    """Do the rows of B span ker M?  They do when M kills them and their
    rank is the kernel's dimension, the column count less rank M."""
    cols = len(B[0]) if B else len(M[0]) if M else 0
    return kills(M, B) and rank(B) + rank(M) == cols


def signature(G: Mat):
    """Sylvester signature (p, q) of an exact symmetric QScalar matrix.

    Symmetric reduction on diagonal pivots with exact signs; each step
    updates only the rows and columns with a nonzero entry in the pivot
    column.  When the active block has a zero diagonal, the congruence
    row_i += row_j, col_i += col_j at a nonzero M[i][j] makes M[i][i] =
    2 M[i][j]; the pivot it leaves at j is -M[i][j]/2.  An active block
    that is identically zero means a degenerate form and raises
    DegenerateError.
    """
    M = [row[:] for row in G]
    active = list(range(len(G)))
    p = q = 0
    while active:
        piv = next((i for i in active if M[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i != j and M[i][j]), None)
            if pair is None:
                raise DegenerateError("degenerate form: zero block in symmetric reduction")
            piv, j = pair
            for k in active:
                if k != piv and M[j][k]:
                    M[piv][k] = M[k][piv] = M[piv][k] + M[j][k]
            M[piv][piv] = M[piv][j] + M[piv][j]
        if M[piv][piv].sign() > 0:
            p += 1
        else:
            q += 1
        inv = M[piv][piv].inverse()
        rest = [i for i in active if i != piv]
        # only the rows and columns meeting the pivot column change
        col = {i: M[i][piv] for i in rest if M[i][piv]}
        for i, ci in col.items():
            fi = ci * inv
            row = M[i]
            for j, cj in col.items():
                row[j] = row[j] - fi * cj
        active = rest
    return p, q


# -- sparse affine systems -------------------------------------------------


def solve_sparse(rows: List[Dict[int, QScalar]], n: int):
    """Solve L x = r from sparse rows of [L | r]; returns (x, rank L).

    Each row maps a column to its nonzero entry, column n holding r.  The
    rows are eliminated exactly, sparsest first, each against the pivot
    rows kept so far; once all n unknowns hold a pivot the rest are not
    read, and x is the only candidate, which the caller checks by
    substitution.  Free unknowns are 0, as with rref.  x is None when a
    row reduces to column n alone: the rows read are inconsistent.
    """
    zero = QScalar.zero()
    pivots: Dict[int, Dict[int, QScalar]] = {}   # column -> row with a 1 there
    consistent = True
    for row in sorted(rows, key=len):
        v = dict(row)
        # a pivot row is zero left of its pivot: clearing in column order
        # never brings back a column already cleared
        for c in sorted(pivots):
            if c in v:
                f = v[c]
                for j, y in pivots[c].items():
                    t = v.pop(j, zero) - f * y
                    if not t.is_zero():
                        v[j] = t
        c = min(v, default=None)
        if c == n:
            consistent = False
        elif c is not None:
            inv = v[c].inverse()
            pivots[c] = {j: y * inv for j, y in v.items()}
            if len(pivots) == n:
                break
    if not consistent:
        return None, len(pivots)
    x = [zero] * n
    for c in sorted(pivots, reverse=True):
        acc = pivots[c].get(n, zero)
        for j, y in pivots[c].items():
            if c < j < n:
                acc = acc - y * x[j]
        x[c] = acc
    return x, len(pivots)


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
