import random
from fractions import Fraction

import pytest

from g2trac.laurent import CoeffFn, PLAIN, RHO_MINUS, RHO_PLUS
from g2trac.linalg import det_perm, eye, inverse_laurent, mat_mul, rref
from g2trac.scalars import SQRT2, DegenerateError, QScalar


def _coeff(rng):
    c = QScalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3)))
    return c * SQRT2 if rng.random() < 0.3 else c


def _laurent(rng, param):
    """A sparse Laurent polynomial: zero a third of the time."""
    if rng.random() < 1 / 3:
        return CoeffFn.zero(param)
    return CoeffFn({rng.randint(-2, 2): _coeff(rng) for _ in range(rng.randint(1, 2))}, param)


def _pldu(rng, n, param):
    """P L D U with L, U unit-triangular and D monomial: det is a monomial."""
    one, zero = CoeffFn.one(param), CoeffFn.zero(param)
    L = eye(n, one, zero)
    U = eye(n, one, zero)
    D = eye(n, one, zero)
    for i in range(n):
        D[i][i] = CoeffFn.monomial(_coeff(rng), rng.randint(-3, 3), param)
        for j in range(i):
            L[i][j] = _laurent(rng, param)
            U[j][i] = _laurent(rng, param)
    order = list(range(n))
    rng.shuffle(order)
    LDU = mat_mul(L, mat_mul(D, U))
    return [LDU[k] for k in order]


def _adjugate_inverse(A):
    """adj(A) / det(A) from det_perm minors: the reference inverse."""
    n = len(A)
    d = det_perm(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            m = det_perm(minor)
            row.append((m if (i + j) % 2 == 0 else -m) / d)
        out.append(row)
    return out


@pytest.mark.parametrize("param", [PLAIN, RHO_PLUS, RHO_MINUS])
def test_inverse_laurent_matches_adjugate(param):
    rng = random.Random(f"inverse-{param}")
    for n in (2, 3, 4, 5):
        A = _pldu(rng, n, param)
        inv = inverse_laurent(A)
        assert inv == _adjugate_inverse(A)
        assert all(x.param == param for row in inv for x in row)
        ident = eye(n, CoeffFn.one(param), CoeffFn.zero(param))
        assert mat_mul(A, inv) == ident
        assert mat_mul(inv, A) == ident


def test_inverse_laurent_pivots_past_a_zero_entry():
    s = CoeffFn.s()
    A = [[CoeffFn.zero(), s], [s * s, CoeffFn.one()]]
    inv = inverse_laurent(A)
    assert inv == [[CoeffFn.monomial(QScalar(-1), -3), CoeffFn.monomial(QScalar(1), -2)],
                   [CoeffFn.monomial(QScalar(1), -1), CoeffFn.zero()]]


def test_inverse_laurent_rejects_non_monomial_determinant():
    rng = random.Random("non-monomial")
    A = _pldu(rng, 4, PLAIN)
    A[0] = [x * (CoeffFn.one() + CoeffFn.s()) for x in A[0]]
    with pytest.raises(ValueError):
        inverse_laurent(A)


def test_inverse_laurent_rejects_singular_matrix():
    rng = random.Random("singular")
    A = _pldu(rng, 4, RHO_PLUS)
    A[3] = [x * CoeffFn({-1: QScalar(2), 1: QScalar(1)}, RHO_PLUS) for x in A[1]]
    with pytest.raises(DegenerateError):
        inverse_laurent(A)


def _dense_rref(A):
    """Gauss-Jordan elimination updating every column: the reference rref."""
    R = [row[:] for row in A]
    rows, cols = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not R[i][c].is_zero()), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i] = [R[i][j] - f * R[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def _sparse_matrix(rng, rows, cols, density, four_coordinate):
    """Seeded sparse QScalar matrix with repeated rows and an empty column."""
    def entry():
        if rng.random() >= density:
            return QScalar.zero()
        k = 4 if four_coordinate and rng.random() < 0.5 else 1
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        return QScalar(*coords) if any(coords) else QScalar(1)
    A = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(0, rows, 7):
        A[i] = A[rng.randrange(rows)][:]
    dead = rng.randrange(cols)
    for row in A:
        row[dead] = QScalar.zero()
    return A


@pytest.mark.parametrize("shape,density,four", [
    ((6, 9), 0.3, False), ((12, 8), 0.25, True), ((9, 14), 0.2, True),
    ((237, 26), 0.093, False), ((237, 26), 0.093, True)],
    ids=["6x9", "12x8-four", "9x14-four", "237x26", "237x26-four"])
def test_sparse_rref_matches_dense_elimination(shape, density, four):
    rng = random.Random(f"rref-{shape}-{density}-{four}")
    A = _sparse_matrix(rng, *shape, density, four)
    R, pivots = rref(A)
    R0, pivots0 = _dense_rref(A)
    assert pivots == pivots0
    assert [[x.as_strings() for x in row] for row in R] == \
        [[x.as_strings() for x in row] for row in R0]
