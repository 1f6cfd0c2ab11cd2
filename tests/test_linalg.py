import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2trac.laurent import CoeffFn, PLAIN, RHO_MINUS, RHO_PLUS
from g2trac.geometry import collar_metric, npk_extract
from g2trac.linalg import (det_perm, eye, inverse, inverse_laurent, kills, mat_mul, mat_vec,
                           nullspace, rank, rref, same_subspace, signature, solve_sparse,
                           spans_kernel, sum_prod)
from g2trac.stable_forms import htilde_matrix
from g2trac.qm_family import REGRESSION_PARAMETERS
from g2trac.scalars import SQRT2, SQRT5, DegenerateError, QScalar


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


def bareiss_inverse(A):
    """Inverse of a CoeffFn matrix by fraction-free Bareiss elimination:
    the reference Laurent inverse.

    Bareiss's update divides by the previous pivot, a quotient that is
    exact in any integral domain, so [A | I] becomes [d I | d A^-1] with
    d = +-det A the last pivot, and the last step divides by d."""
    n = len(A)
    param = A[0][0].param
    zero = CoeffFn.zero(param)

    def divider(d):
        if len(d.terms) == 1:
            inv = d.inverse()
            return lambda row: [x * inv if x.terms else x for x in row]
        return lambda row: [x / d if x.terms else x for x in row]

    M = [list(row) + e for row, e in zip(A, eye(n, CoeffFn.one(param), zero))]
    div = None
    for k in range(n):
        pr = next((i for i in range(k, n) if not M[i][k].is_zero()), None)
        if pr is None:
            raise DegenerateError("singular matrix over the Laurent ring")
        M[k], M[pr] = M[pr], M[k]
        piv = M[k]
        p = piv[k]
        support = [(j, x) for j, x in enumerate(piv) if x.terms]
        for i in range(n):
            if i == k:
                continue
            row = M[i]
            f = row[k]
            new = [p * x if x.terms else zero for x in row]
            if f.terms:
                for j, x in support:
                    new[j] = new[j] - f * x
            M[i] = new if div is None else div(new)
        div = divider(p)
    return [div(row[n:]) for row in M]


def _production_matrices(pkg):
    """H, htilde, the collar metrics g_+- and the npk metrics of both sides."""
    Hm = pkg.H.as_matrix()
    yield Hm
    yield htilde_matrix(pkg.phi)
    for side in (1, -1):
        yield collar_metric(Hm, side, pkg.chart.param).as_matrix()
        yield npk_extract(pkg, side).g.as_matrix()


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_inverse_matches_bareiss_on_production_matrices(family_package, m):
    mats = list(_production_matrices(family_package(m)))
    assert len(mats) == 6
    for A in mats:
        inv = inverse(A)
        assert inv == bareiss_inverse(A)
        assert [[x.param for x in row] for row in inv] == [[A[0][0].param] * len(A)] * len(A)


@pytest.mark.parametrize("param", [PLAIN, RHO_PLUS, RHO_MINUS])
def test_inverse_matches_bareiss_on_random_matrices(param):
    rng = random.Random(f"bareiss-{param}")
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(3):
            A = _pldu(rng, n, param)
            assert inverse(A) == bareiss_inverse(A)


def test_inverse_clears_a_column_without_monomial_fraction_free():
    # no entry of the first column is a monomial: the first pivot 1 + s
    # stays unnormalised, and det A = 2s makes the inverse exact
    one, s = CoeffFn.one(), CoeffFn.s()
    A = [[one + s, one], [one - s, one]]
    R, pivots = rref([row + e for row, e in zip(A, eye(2, one, CoeffFn.zero()))])
    assert pivots == [0, 1] and R[0][0] == one + s and R[1][1] == one
    half_s_inv = CoeffFn.monomial(QScalar(Fraction(1, 2)), -1)
    half = CoeffFn.of(Fraction(1, 2))
    inv = inverse(A)
    assert inv == [[half_s_inv, -half_s_inv], [half - half_s_inv, half + half_s_inv]]
    assert inv == bareiss_inverse(A) == _adjugate_inverse(A)
    ident = eye(2, one, CoeffFn.zero())
    assert mat_mul(A, inv) == ident
    assert mat_mul(inv, A) == ident


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


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_inverse_laurent_inverts_sparse_collar_metrics(family_package, m):
    # the collar metrics g_+-, and H itself, are mostly zero entries
    pkg = family_package(m)
    Hm = pkg.H.as_matrix()
    for A in [Hm] + [collar_metric(Hm, side, pkg.chart.param).as_matrix() for side in (1, -1)]:
        n = len(A)
        assert sum(x.is_zero() for row in A for x in row) > n * n // 2
        inv = inverse_laurent(A)
        ident = eye(n, CoeffFn.one(pkg.chart.param), CoeffFn.zero(pkg.chart.param))
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


def test_inverse_laurent_divides_by_a_non_monomial_pivot():
    # the first column's monomial 1 lies below 1 + s, so it is swapped up
    # as pivot; the second pivot -s = -det A is a monomial, inverted once
    one, s = CoeffFn.one(), CoeffFn.s()
    A = [[one + s, one], [one, one]]
    inv = inverse_laurent(A)
    s_inv = s.inverse()
    assert inv == [[s_inv, -s_inv], [-s_inv, one + s_inv]]
    ident = eye(2, one, CoeffFn.zero())
    assert mat_mul(A, inv) == ident
    assert mat_mul(inv, A) == ident


def test_inverse_laurent_two_non_monomial_pivots():
    # each column has a monomial pivot below a non-monomial entry: s (the
    # third row), then 1, then s
    one, zero, s = CoeffFn.one(), CoeffFn.zero(), CoeffFn.s()
    A = [[one + s, one + s, s], [zero, one, zero], [s, one, zero]]
    inv = inverse_laurent(A)
    assert inv == _adjugate_inverse(A)
    ident = eye(3, one, CoeffFn.zero())
    assert mat_mul(A, inv) == ident


def test_inverse_laurent_non_monomial_pivots_keep_their_errors():
    # the second column's pivot -2s - s^2, and the first column of the
    # singular matrix, are cleared fraction-free
    one, s = CoeffFn.one(), CoeffFn.s()
    with pytest.raises(ValueError):      # det = 2s + s^2
        inverse_laurent([[one + s, one], [one, one + s]])
    with pytest.raises(DegenerateError):
        inverse_laurent([[one + s, one], [one + s, one]])


def _dense_sum_prod(row, v):
    """Every product row[i] v[i], zero or not: the reference dot product."""
    acc = row[0] * v[0]
    for a, b in zip(row[1:], v[1:]):
        acc = acc + a * b
    return acc


def _triple_loop(A, B):
    """Every product of rows of A with columns of B: the reference product."""
    return [[_dense_sum_prod(arow, bcol) for bcol in zip(*B)] for arow in A]


# ring id -> the Laurent parameterization (rho = s, +s^2, -s^2), or None
# for QScalar; "laurent" is rho = +s^2
RINGS = {"qscalar": None, "plain": PLAIN, "laurent": RHO_PLUS, "rho-": RHO_MINUS}


def _entries(rng, ring):
    """(entry, zero): a seeded sparse entry maker of the ring and its zero."""
    param = RINGS[ring]
    if param is None:
        return (lambda: QScalar.zero() if rng.random() < 1 / 3 else _coeff(rng)), QScalar.zero()
    return (lambda: _laurent(rng, param)), CoeffFn.zero(param)


def _flat(M):
    return [x for row in M for x in row]


def _same_entries(got, want):
    """Equal entry for entry, with the same type and parameterization."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x == y and type(x) is type(y)
        assert getattr(x, "param", None) == getattr(y, "param", None)


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("n,k,m", [(5, 6, 4), (1, 5, 1), (5, 1, 4), (1, 6, 4), (6, 4, 1)])
def test_mat_mul_matches_the_triple_loop(ring, n, k, m):
    rng = random.Random(f"mat-mul-{ring}-{n}x{k}x{m}")
    entry, zero = _entries(rng, ring)
    A = [[entry() for _ in range(k)] for _ in range(n)]
    B = [[entry() for _ in range(m)] for _ in range(k)]
    A[0] = [zero] * k                  # a zero row of A
    for row in A:
        row[-1] = zero                 # a zero column of A
    for row in B:
        row[0] = zero                  # a zero column of B
    C = mat_mul(A, B)
    _same_entries(_flat(C), _flat(_triple_loop(A, B)))
    assert all(x.is_zero() for x in C[0]) and all(row[0].is_zero() for row in C)
    assert all(type(x) is type(zero) and getattr(x, "param", None) == RINGS[ring]
               for x in _flat(C))


@pytest.mark.parametrize("ring", list(RINGS))
def test_sparse_dot_products_match_the_dense_oracle(ring):
    # sum_prod and mat_vec read only the pairs with both entries nonzero
    rng = random.Random(f"sum-prod-{ring}")
    entry, zero = _entries(rng, ring)
    for n in (1, 2, 6, 7, 36):
        for _ in range(12):
            row = [entry() for _ in range(n)]
            v = [entry() for _ in range(n)]
            _same_entries([sum_prod(row, v)], [_dense_sum_prod(row, v)])
        A = [[entry() for _ in range(n)] for _ in range(5)] + [[zero] * n]
        _same_entries(mat_vec(A, v), [_dense_sum_prod(row, v) for row in A])


@pytest.mark.parametrize("ring", list(RINGS))
def test_an_all_zero_dot_product_is_a_zero_of_the_operands_ring(ring):
    rng = random.Random(f"all-zero-{ring}")
    entry, zero = _entries(rng, ring)
    x = next(y for y in iter(entry, None) if not y.is_zero())
    for row, v in (([zero, x, zero], [x, zero, zero]), ([zero], [zero]), ([x, zero], [zero, x])):
        got = sum_prod(row, v)
        assert got.is_zero() and type(got) is type(zero)
        assert getattr(got, "param", None) == RINGS[ring]


@pytest.mark.parametrize("ring", list(RINGS))
def test_support_aware_mat_vec_and_kills_match_the_dense_definition(ring):
    # mat_vec and kills multiply only on the support of each vector; the
    # zero vector and zero rows give sum_prod's zero, in the operands' ring
    rng = random.Random(f"support-{ring}")
    entry, zero = _entries(rng, ring)
    for n in (1, 3, 7):
        for _ in range(8):
            A = [[entry() for _ in range(n)] for _ in range(4)] + [[zero] * n]
            vectors = [[entry() for _ in range(n)] for _ in range(3)] + [[zero] * n]
            for v in vectors:
                got = mat_vec(A, v)
                _same_entries(got, [_dense_sum_prod(row, v) for row in A])
                assert all(getattr(x, "param", None) == RINGS[ring] for x in got)
            dense = all(_dense_sum_prod(row, v).is_zero() for row in A for v in vectors)
            assert kills(A, vectors) == dense
            assert kills(A, [[zero] * n]) and kills([[zero] * n], vectors)
            # the kernel of a row, built by hand, is killed; its complement is not
            row = next((r for r in A if any(r)), None)
            if row is not None:
                j = next(j for j, x in enumerate(row) if x)
                for i, x in enumerate(row):
                    if i != j:
                        u = [zero] * n
                        u[i], u[j] = row[j], -x
                        assert kills([row], [u])
                assert not kills([row], [[row[j] if i == j else zero for i in range(n)]])


def _dense_rref(A):
    """Gauss-Jordan elimination updating every column and scaling every
    entry of the pivot row: the reference rref.  As in rref, a column takes
    a unit of the ring as pivot if it has one, else it is cleared
    fraction-free; over QScalar every nonzero entry is a unit."""
    R = [row[:] for row in A]
    rows, cols = len(R), len(R[0])
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
        p = R[r][c]
        for i in range(rows):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i] = [(R[i][j] if unit else p * R[i][j]) - f * R[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


@pytest.mark.parametrize("ring", ["plain", "laurent", "rho-"])
def test_laurent_rref_matches_dense_elimination(ring):
    # sparse Laurent matrices: the pivot row is scaled only where nonzero
    rng = random.Random(f"rref-laurent-{ring}")
    entry, _ = _entries(rng, ring)
    for rows, cols in ((3, 5), (5, 4), (4, 7)):
        A = [[entry() for _ in range(cols)] for _ in range(rows)]
        R, pivots = rref(A)
        R0, pivots0 = _dense_rref(A)
        assert pivots == pivots0
        _same_entries(_flat(R), _flat(R0))


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


def test_mat_mul_and_rref_make_no_zero_operand_field_op():
    # sparse operands, whose zero entries QScalar's ring ops take at once,
    # against the dense references
    rng = random.Random("zero-operands")
    A = _sparse_matrix(rng, 9, 14, 0.2, True)
    B = _sparse_matrix(rng, 14, 6, 0.3, True)
    want = (_triple_loop(A, B), _dense_rref(A))
    got = (mat_mul(A, B), rref(A))
    _same_entries(_flat(got[0]), _flat(want[0]))
    assert got[1][1] == want[1][1]
    _same_entries(_flat(got[1][0]), _flat(want[1][0]))


def test_mat_vec_restarts_a_cancelled_sum():
    # 1 - 1 cancels, and the next product is added to that zero
    row = [QScalar(1), QScalar(-1), SQRT2, QScalar.zero()]
    v = [QScalar(3), QScalar(3), SQRT5, QScalar(7)]
    got = (mat_vec([row], v), sum_prod(row, v), sum_prod(row[:2], v[:2]))
    assert got == ([SQRT2 * SQRT5], SQRT2 * SQRT5, QScalar.zero())


# -- signature against a dense reduction ------------------------------------


def dense_signature(G):
    """Symmetric reduction updating every active row and column: the
    reference signature."""
    n = len(G)
    M = [row[:] for row in G]
    active = list(range(n))
    p = q = 0
    while active:
        piv = next((i for i in active if not M[i][i].is_zero()), None)
        if piv is not None:
            if M[piv][piv].sign() > 0:
                p += 1
            else:
                q += 1
            inv = M[piv][piv].inverse()
            rest = [i for i in active if i != piv]
            col = {i: M[i][piv] for i in rest}
            for i in rest:
                fi = col[i] * inv
                for j in rest:
                    M[i][j] = M[i][j] - fi * col[j]
            active = rest
            continue
        pair = next(((i, j) for ii, i in enumerate(active) for j in active[ii + 1:]
                     if not M[i][j].is_zero()), None)
        if pair is None:
            raise DegenerateError("degenerate form: zero block in symmetric reduction")
        i, j = pair
        p += 1
        q += 1
        binv = M[i][j].inverse()
        rest = [k for k in active if k not in (i, j)]
        ci = {k: M[k][i] for k in rest}
        cj = {k: M[k][j] for k in rest}
        for k in rest:
            for l in rest:
                M[k][l] = M[k][l] - (ci[k] * cj[l] + cj[k] * ci[l]) * binv
        active = rest
    return p, q


def _symmetric(rng, n, density, four_coordinate, zero_diagonal):
    A = _sparse_matrix(rng, n, n, density, four_coordinate)
    S = [[A[i][j] if i <= j else A[j][i] for j in range(n)] for i in range(n)]
    if zero_diagonal:
        for i in range(n):
            S[i][i] = QScalar.zero()
    return S


def _signature_or_error(f, M):
    try:
        return f(M)
    except DegenerateError:
        return DegenerateError


@pytest.mark.parametrize("n,density,four,zero_diagonal", [
    (7, 1.0, True, False), (7, 0.3, False, False), (7, 0.5, True, True),
    (6, 0.4, False, True), (5, 0.25, True, False)],
    ids=["dense7", "sparse7", "hyperbolic7", "hyperbolic6", "sparse5"])
def test_signature_matches_dense_reduction(n, density, four, zero_diagonal):
    # a zero diagonal makes the first pivot hyperbolic
    rng = random.Random(f"signature-{n}-{density}-{four}-{zero_diagonal}")
    results = []
    for _ in range(30):
        M = _symmetric(rng, n, density, four, zero_diagonal)
        got = _signature_or_error(signature, M)
        assert got == _signature_or_error(dense_signature, M)
        results.append(got)
    assert any(r is not DegenerateError for r in results)


def test_signature_hyperbolic_pivots_and_degenerate_forms():
    one, zero = QScalar.one(), QScalar.zero()
    # (x1 x2 + x3 x4) has signature (2, 2) and no nonzero diagonal entry
    split = [[zero, one, zero, zero], [one, zero, zero, zero],
             [zero, zero, zero, one], [zero, zero, one, zero]]
    assert signature(split) == dense_signature(split) == (2, 2)
    # a hyperbolic pivot leaves a zero block behind
    degenerate = [[zero, one, zero], [one, zero, zero], [zero, zero, zero]]
    for f in (signature, dense_signature):
        with pytest.raises(DegenerateError):
            f(degenerate)
    # a rank-2 form v v^T - w w^T on Q^5
    rng = random.Random("signature-rank-2")
    v = [QScalar(rng.randint(-3, 3)) for _ in range(5)]
    w = [QScalar(rng.randint(-3, 3)) for _ in range(5)]
    low = [[v[i] * v[j] - w[i] * w[j] for j in range(5)] for i in range(5)]
    for f in (signature, dense_signature):
        with pytest.raises(DegenerateError):
            f(low)


def test_signature_of_a_split_form_in_a_null_frame():
    # B is the split form of signature (3, 4) written with the hyperbolic
    # pairs (0, 1), (2, 3), (4, 5) and B[6][6] = -1.  A seeded A in SL(7, Q)
    # maps the null spans of e0, e2, e4 and of e1, e3, e5 to themselves, so
    # A^T B A has a zero diagonal on those six coordinates, and each pair
    # step leaves the next active block with a zero diagonal again: the
    # pair rule runs at three successive steps.
    rng = random.Random("signature-null-frame")
    one, zero = QScalar.one(), QScalar.zero()
    B = [[zero] * 7 for _ in range(7)]
    for i in (0, 2, 4):
        B[i][i + 1] = B[i + 1][i] = one
    B[6][6] = -one

    def block():
        while True:
            P = [[QScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]
                 for _ in range(3)]
            det = det_perm(P)
            if det:
                return P, det

    (P, dp), (Q, dq) = block(), block()
    A = [[zero] * 7 for _ in range(7)]
    for a, i in enumerate((0, 2, 4)):
        for b, j in enumerate((0, 2, 4)):
            A[i][j], A[i + 1][j + 1] = P[a][b], Q[a][b]
    A[6][6] = (dp * dq).inverse()
    assert det_perm(A) == one
    M = mat_mul([list(col) for col in zip(*A)], mat_mul(B, A))
    assert all(not M[i][i] for i in range(6)) and M[6][6]
    assert signature(M) == dense_signature(M) == (3, 4)


# -- solve_sparse against rref of all rows ------------------------------------


def _low_rank(rng, rows, cols, r):
    """A seeded rows x cols product of rank <= r over Q(sqrt2, sqrt5), with
    repeated rows and rows that are multiples of others."""
    def entry():
        return QScalar(*[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
    B = [[entry() for _ in range(r)] for _ in range(rows)]
    Cm = [[entry() for _ in range(cols)] for _ in range(r)]
    A = mat_mul(B, Cm) if r else [[QScalar.zero()] * cols for _ in range(rows)]
    for i in range(1, rows, 4):
        A[i] = A[i - 1][:] if i % 8 == 1 else [x * (1 + SQRT5) for x in A[i - 1]]
    return A


def _with_rhs(L, rhs):
    """Sparse rows of [L | rhs]: each row maps a column to its nonzero entry."""
    return [{j: x for j, x in enumerate(row + [r]) if not x.is_zero()}
            for row, r in zip(L, rhs)]


def _assert_solve_sparse_matches_rref(L, rhs):
    """Same rank, same None-ness and the same solution (free unknowns 0) as
    the rref of all rows of [L | rhs]; returns whether that system is
    consistent.  At full rank the rows past the last pivot are not read, so
    an inconsistent system may give a candidate, which substitution rejects."""
    n = len(L[0])
    R, pivots = rref([row + [r] for row, r in zip(L, rhs)])
    x, rank_L = solve_sparse(_with_rhs(L, rhs), n)
    assert rank_L == len([c for c in pivots if c < n])
    if n in pivots:
        assert x is None or (rank_L == n and any(sum_prod(row, x) != r
                                                 for row, r in zip(L, rhs)))
        return False
    want = [QScalar.zero()] * n
    for r, c in enumerate(pivots):
        want[c] = R[r][n]
    assert x == want
    return True


@pytest.mark.parametrize("rows,cols,r", [(6, 5, 5), (8, 5, 3), (12, 7, 7), (12, 9, 4),
                                         (5, 6, 5), (4, 4, 0), (9, 3, 1)])
def test_solve_sparse_matches_rref_on_low_rank_systems(rows, cols, r):
    rng = random.Random(f"solve-sparse-{rows}-{cols}-{r}")
    L = _low_rank(rng, rows, cols, r)
    x0 = [QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 1) for _ in range(cols)]
    rhs = [sum_prod(row, x0) for row in L]
    assert _assert_solve_sparse_matches_rref(L, rhs)
    # rows 0 and 1 are equal, so a changed right-hand side of row 1 is inconsistent
    rhs[1] = rhs[1] + 1
    assert not _assert_solve_sparse_matches_rref(L, rhs)


@pytest.mark.parametrize("four", [False, True], ids=["rational", "four"])
def test_solve_sparse_matches_rref_on_a_sparse_237x25_system(four):
    rng = random.Random(f"solve-sparse-sparse-{four}")
    L = _sparse_matrix(rng, 237, 25, 0.093, four)
    x0 = [QScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 0, 1) for _ in range(25)]
    rhs = [sum_prod(row, x0) for row in L]
    assert _assert_solve_sparse_matches_rref(L, rhs)
    rhs[3] = rhs[3] + 1
    assert not _assert_solve_sparse_matches_rref(L, rhs)


def test_solve_sparse_stops_once_every_unknown_holds_a_pivot():
    # the two sparsest rows give x = (1, 2); the denser third row is never
    # read, so its inconsistency is left to the caller's substitution
    one = QScalar.one()
    rows = [{0: one, 1: one, 2: QScalar(4)}, {0: one, 2: one}, {1: one, 2: QScalar(2)}]
    assert solve_sparse(rows, 2) == ([one, QScalar(2)], 2)
    assert rref([[one, one, QScalar(4)], [one, QScalar.zero(), one],
                 [QScalar.zero(), one, QScalar(2)]])[1] == [0, 1, 2]


# -- same_subspace against a rank oracle ---------------------------------------

entries = st.builds(lambda a, b: QScalar(a) + SQRT2 * b,
                    st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]), st.sampled_from([0, 0, 0, 1]))


@st.composite
def row_list_pairs(draw):
    """Two lists of rows of one length, often empty, zero or repeated; half
    the time the second is drawn from the first's rows, its sums and zeros."""
    cols = draw(st.integers(1, 3))
    row = st.lists(entries, min_size=cols, max_size=cols)
    B1 = draw(st.lists(row, max_size=4))
    if B1 and draw(st.booleans()):
        sums = [[x + y for x, y in zip(u, v)] for u in B1 for v in B1]
        zero = [[QScalar.zero()] * cols]
        B2 = draw(st.lists(st.sampled_from(B1 + sums + zero), max_size=5))
    else:
        B2 = draw(st.lists(row, max_size=4))
    return B1, B2


@given(row_list_pairs())
def test_same_subspace_matches_the_rank_oracle(pair):
    B1, B2 = pair
    assert same_subspace(B1, B2) == (rank(B1) == rank(B2) == rank(B1 + B2))
    assert same_subspace(B1, B1 + B1 + B2) == (rank(B1) == rank(B1 + B2))


def test_zero_rows_span_the_zero_subspace():
    z = QScalar.zero()
    assert same_subspace([[z, z]], [])
    assert same_subspace([], [[z, z], [z, z]])
    assert not same_subspace([[z, QScalar.one()]], [])


# -- kills and spans_kernel against same_subspace ------------------------------


@st.composite
def kernel_pairs(draw):
    """Equations M and rows B of one length; half the time B is drawn from
    a kernel basis of M, its sums and zeros, so that M often kills it."""
    cols = draw(st.integers(1, 3))
    row = st.lists(entries, min_size=cols, max_size=cols)
    M = draw(st.lists(row, min_size=1, max_size=3))
    ker = nullspace(M)
    if ker and draw(st.booleans()):
        sums = [[x + y for x, y in zip(u, v)] for u in ker for v in ker]
        zero = [[QScalar.zero()] * cols]
        B = draw(st.lists(st.sampled_from(ker + sums + zero), max_size=4))
    else:
        B = draw(st.lists(row, max_size=3))
    return B, M


@given(kernel_pairs())
def test_subspace_predicates_match_same_subspace(pair):
    B, M = pair
    ker = nullspace(M)
    assert kills(M, B) == same_subspace(ker, ker + B)
    assert spans_kernel(B, M) == same_subspace(B, ker)


def test_no_equations_cut_out_the_whole_space():
    z, o = QScalar.zero(), QScalar.one()
    assert kills([], [[o, o]])
    assert spans_kernel([[o, z], [o, o]], [])
    assert not spans_kernel([[o, o]], [])
    assert spans_kernel([], [[o, z], [z, o]])
