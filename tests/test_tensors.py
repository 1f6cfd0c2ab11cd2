import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2trac import linalg
from g2trac.laurent import CoeffFn
from g2trac.scalars import SQRT2, QScalar, DegenerateError
from g2trac.tensors import (ALT, NONE, SYM, AltTensor, contract, perm_sign, sort_with_sign,
                             wedge)


def form(dim, degree, entries):
    t = AltTensor.form(dim, degree)
    for idx, c in entries:
        t.set((), tuple(idx), QScalar.of(c))
    return t


def random_form(rng, dim, degree, spread=4):
    t = AltTensor.form(dim, degree)
    for idx in combinations(range(dim), degree):
        c = rng.randint(-spread, spread)
        if c:
            t.set((), idx, QScalar(c))
    return t


def test_basic_wedge():
    e1 = form(6, 1, [((0,), 1)])
    e2 = form(6, 1, [((1,), 1)])
    w = wedge(e1, e2)
    assert w.get((), (0, 1)) == QScalar(1)
    assert w.get((), (1, 0)) == QScalar(-1)


def test_alternating_storage_semantics():
    t = AltTensor.form(6, 2)
    t.set((), (3, 1), QScalar(5))
    assert t.get((), (1, 3)) == QScalar(-5)
    assert t.get((), (1, 1)).is_zero()
    with pytest.raises(ValueError):
        t.set((), (2, 2), QScalar(1))


def test_memoised_sort_with_sign_matches_sorted_and_perm_sign():
    for k in range(5):
        for idx in product(range(7), repeat=k):
            want = ((None, 0) if len(set(idx)) < k
                    else (tuple(sorted(idx)), perm_sign(idx)))
            assert sort_with_sign(idx) == want
            assert sort_with_sign(idx) == want     # the cached answer


@pytest.mark.parametrize("sym", ["alt", SYM, NONE])
def test_get_and_set_accept_list_indices(sym):
    t = AltTensor(6, 1, 2, sym)
    t.set([4], [3, 1], QScalar(5))
    assert t.get([4], [3, 1]) == t.get((4,), (3, 1)) == QScalar(5)
    assert t.get((4,), [1, 3]) == QScalar({"alt": -5, SYM: 5, NONE: 0}[sym])


@pytest.mark.parametrize("up, down", [((), (1, 2)), ((0,), (1,)), ((0,), (1, 2, 3)),
                                      ([0, 1], [1, 2]), ((0,), [1])])
def test_wrong_length_indices_raise(up, down):
    t = AltTensor(6, 1, 2, "alt")
    with pytest.raises(ValueError):
        t.get(up, down)
    with pytest.raises(ValueError):
        t.set(up, down, QScalar(1))


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(7)
    for _ in range(10):
        a = random_form(rng, 6, 1)
        b = random_form(rng, 6, 2)
        c = random_form(rng, 6, 2)
        assert (wedge(a, b) - wedge(b, a).scale(QScalar((-1) ** (1 * 2)))).is_zero()
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero()


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=30)
def test_wedge_odd_degree_squares_to_zero(seed):
    rng = random.Random(seed)
    a = random_form(rng, 6, 3)
    assert wedge(a, a).is_zero()
    b = random_form(rng, 7, 1)
    assert wedge(b, b).is_zero()


def test_degree_overflow_is_zero_not_error():
    a = random_form(random.Random(0), 6, 3)
    b = random_form(random.Random(1), 6, 3)
    c = random_form(random.Random(2), 6, 1)
    assert wedge(wedge(a, b), c).is_zero()


def test_dimension_mismatch_rejected():
    a = random_form(random.Random(0), 6, 2)
    b = random_form(random.Random(0), 7, 2)
    with pytest.raises(ValueError):
        wedge(a, b)


def test_trace_of_identity_is_dimension():
    delta = AltTensor(7, 1, 1, NONE)
    for i in range(7):
        delta.set((i,), (i,), QScalar(1))
    tr = delta.trace(0, 0)
    assert tr.get((), ()) == QScalar(7)


def test_epsilon_contraction_is_7_factorial():
    eps = AltTensor.form(7, 7)
    eps.set((), tuple(range(7)), QScalar(1))
    eps_up = AltTensor(7, 7, 0, NONE)
    from itertools import permutations
    from g2trac.tensors import perm_sign
    acc = QScalar.zero()
    for p in permutations(range(7)):
        acc = acc + eps.get((), p) * QScalar(perm_sign(p))
    assert acc == QScalar(5040)


def test_contract_with_metric_pairs_covariant_slots():
    g = AltTensor(7, 0, 2, SYM)
    for i in range(7):
        g.set((), (i, i), QScalar(1 if i < 3 else -1))
    a = form(7, 1, [((4,), 3)])
    b = form(7, 1, [((4,), 5)])
    out = contract(a, b, [(("d", 0), ("d", 0))], metric=g)
    assert out.get((), ()) == QScalar(-15)


def dense_contract(a, b, pairs, metric=None):
    """The product loop contract used to run: every assignment of the free
    and dummy indices, read through get."""
    g = ginv = None
    kinds = ["mixed" if sa[0] != sb[0] else sa[0] for sa, sb in pairs]
    if any(k != "mixed" for k in kinds):
        g = metric.as_matrix()
        ginv = linalg.inverse(g) if isinstance(g[0][0], QScalar) else linalg.inverse_laurent(g)

    def slots(t):
        return [("u", i) for i in range(t.n_up)] + [("d", i) for i in range(t.n_down)]

    free_a = [s for s in slots(a) if s not in [p[0] for p in pairs]]
    free_b = [s for s in slots(b) if s not in [p[1] for p in pairs]]
    free = free_a + free_b
    out = AltTensor(a.dim, sum(s[0] == "u" for s in free), sum(s[0] == "d" for s in free),
                    NONE, a.zero)

    def read(t, assign):
        return t.get(tuple(assign[("u", i)] for i in range(t.n_up)),
                     tuple(assign[("d", i)] for i in range(t.n_down)))

    rng = range(a.dim)
    dummy_count = sum(1 if k == "mixed" else 2 for k in kinds)
    for free_vals in product(rng, repeat=len(free)):
        acc = None
        for dummies in product(rng, repeat=dummy_count):
            aa = dict(zip(free_a, free_vals[:len(free_a)]))
            bb = dict(zip(free_b, free_vals[len(free_a):]))
            weight, pos = None, 0
            for (sa, sb), kind in zip(pairs, kinds):
                if kind == "mixed":
                    aa[sa] = bb[sb] = dummies[pos]
                    pos += 1
                    continue
                k, l = dummies[pos], dummies[pos + 1]
                aa[sa], bb[sb] = k, l
                pos += 2
                w = ginv[k][l] if kind == "d" else g[k][l]
                weight = w if weight is None else weight * w
            va = read(a, aa)
            if va.is_zero() or (weight is not None and weight.is_zero()):
                continue
            term = va * read(b, bb)
            if weight is not None:
                term = term * weight
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out.set(tuple(v for v, s in zip(free_vals, free) if s[0] == "u"),
                    tuple(v for v, s in zip(free_vals, free) if s[0] == "d"), acc)
    return out


def random_tensor(rng, dim, n_up, n_down, sym, value, zero, density=0.4):
    t = AltTensor(dim, n_up, n_down, sym, zero)
    for up in product(range(dim), repeat=n_up):
        for down in product(range(dim), repeat=n_down):
            if (sym == ALT and len(set(down)) < n_down) or rng.random() >= density:
                continue
            t.set(up, down, value(rng))
    return t


def contract_metric(laurent):
    """A metric on 4 legs with an off-diagonal entry whose inverse is exact:
    over the Laurent ring the (0, 1) block has determinant 1."""
    g = AltTensor(4, 0, 2, SYM, CoeffFn.zero() if laurent else None)
    if laurent:
        rho = CoeffFn.rho()
        for key, v in (((0, 0), rho), ((0, 1), CoeffFn.of(1)), ((1, 1), rho.inverse() * 2),
                       ((2, 2), CoeffFn.of(-3)), ((3, 3), rho * rho)):
            g.set((), key, v)
    else:
        for key, v in (((0, 0), 2), ((0, 1), Fraction(1, 2)), ((1, 1), -1), ((2, 2), 3),
                       ((3, 3), 5)):
            g.set((), key, QScalar(v))
    return g


@pytest.mark.parametrize("laurent", [False, True], ids=["qscalar", "laurent"])
@pytest.mark.parametrize("pairs", [
    [(("u", 0), ("d", 1))],
    [(("d", 1), ("d", 0))],
    [(("u", 0), ("u", 0))],
    [(("d", 0), ("d", 1)), (("u", 0), ("d", 0))],
], ids=["mixed", "covariant", "contravariant", "two-pairs"])
def test_contract_matches_dense_loop(pairs, laurent):
    rng = random.Random(83 + 2 * len(pairs) + laurent)
    if laurent:
        def value(r):
            return CoeffFn({-1: QScalar(r.randint(-1, 1)), 0: QScalar(r.randint(-3, 3)),
                            1: QScalar(r.randint(-2, 2))})
    else:
        def value(r):
            return QScalar(Fraction(r.randint(-3, 3), 2)) + QScalar(r.randint(-1, 1)) * SQRT2
    metric = contract_metric(laurent)
    nonzero = 0
    for sym_a, sym_b in product([ALT, SYM, NONE], repeat=2):
        for _ in range(2):
            a = random_tensor(rng, 4, 1, 2, sym_a, value, metric.zero)
            b = random_tensor(rng, 4, 1, 2, sym_b, value, metric.zero)
            got, want = contract(a, b, pairs, metric), dense_contract(a, b, pairs, metric)
            assert (got.n_up, got.n_down, got.sym) == (want.n_up, want.n_down, NONE)
            assert got.comps.keys() == want.comps.keys()
            assert all(got.comps[k] == v for k, v in want.comps.items())
            nonzero += bool(want.comps)
    assert nonzero >= 12


def test_signature_examples_and_congruence_invariance():
    g = AltTensor(7, 0, 2, SYM)
    for i in range(7):
        g.set((), (i, i), QScalar(1))
    assert g.signature_at(QScalar(1)) == (7, 0)

    rng = random.Random(11)
    base = [[QScalar(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
    M = [[base[i][j] + base[j][i] for j in range(5)] for i in range(5)]
    try:
        sig = linalg.signature(M)
    except DegenerateError:
        M[0][0] = M[0][0] + QScalar(7)
        sig = linalg.signature(M)
    for _ in range(25):
        A = random_sl(rng, 5)
        assert linalg.signature(linalg.congruence(A, M)) == sig


def random_sl(rng, n):
    """Random product of elementary shears: determinant exactly 1."""
    A = linalg.eye(n, QScalar(1), QScalar.zero())
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        lam = QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        E = linalg.eye(n, QScalar(1), QScalar.zero())
        E[i][j] = lam
        A = linalg.mat_mul(A, E)
    return A


def test_degenerate_signature_raises():
    M = [[QScalar.zero()] * 3 for _ in range(3)]
    M[0][0] = QScalar(1)
    with pytest.raises(DegenerateError):
        linalg.signature(M)


def test_hyperbolic_block_signature():
    M = [[QScalar.zero(), QScalar(1)], [QScalar(1), QScalar.zero()]]
    assert linalg.signature(M) == (1, 1)


def test_pullback_matches_component_transform():
    rng = random.Random(3)
    t = random_form(rng, 6, 3)
    A = random_sl(rng, 6)
    back = t.pullback(A)
    # double pullback through inverse returns the original
    Ainv = linalg.inverse(A)
    assert (back.pullback(Ainv) - t).is_zero()


@pytest.mark.parametrize("sym", [SYM, NONE])
def test_pullback_rejects_non_alternating_input(sym):
    t = AltTensor(3, 0, 2, sym)
    t.set((), (0, 1), QScalar(1))
    with pytest.raises(ValueError):
        t.pullback(random_sl(random.Random(5), 3))


# -- the alternating pullback against the dense n^k loop ----------------------


def dense_alt_pullback(t, A):
    """(A^* T)_J = sum over all n^k source tuples I of T_I A[i_1][j_1] ..
    A[i_k][j_k], read through get for each increasing target J."""
    out = AltTensor(t.dim, 0, t.n_down, t.sym, t.zero)
    for tgt in combinations(range(t.dim), t.n_down):
        acc = t.zero
        for src in product(range(t.dim), repeat=t.n_down):
            term = t.get((), src)
            for s, j in zip(src, tgt):
                term = term * A[s][j]
            acc = acc + term
        if not acc.is_zero():
            out.set((), tgt, acc)
    return out


def sqrt2_form(rng, dim, degree):
    """About two thirds of the components nonzero, in Q(sqrt2)."""
    t = AltTensor.form(dim, degree)
    for idx in combinations(range(dim), degree):
        if rng.random() < 2 / 3:
            t.set((), idx, QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  + SQRT2 * Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    return t


def pullback_matrices(rng, n):
    """An SL(n) shear product, a Q(sqrt2) matrix, a singular one (two equal
    rows) and one with a zero row and a zero column."""
    zero = QScalar.zero()
    sl = random_sl(rng, n)
    sqrt2 = [[QScalar(rng.randint(-2, 2)) + SQRT2 * rng.randint(-1, 1) for _ in range(n)]
             for _ in range(n)]
    singular = [row[:] for row in sl]
    singular[n - 1] = singular[0][:]
    holes = [row[:] for row in sqrt2]
    holes[1] = [zero] * n
    for row in holes:
        row[n - 2] = zero
    assert linalg.rank(singular) == linalg.rank(holes) == n - 1
    return {"sl": sl, "sqrt2": sqrt2, "singular": singular, "holes": holes}


def assert_same_form(got, want):
    assert got.comps.keys() == want.comps.keys()
    assert all(got.comps[k] == v for k, v in want.comps.items())
    assert type(got.zero) is type(want.zero)
    assert all(type(v) is type(want.zero) for v in got.comps.values())


@pytest.mark.parametrize("dim", [5, 6, 7])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_alt_pullback_matches_dense_loop(dim, degree):
    rng = random.Random(100 * dim + degree)
    t = sqrt2_form(rng, dim, degree)
    for A in pullback_matrices(rng, dim).values():
        assert_same_form(t.pullback(A), dense_alt_pullback(t, A))


def test_alt_pullback_of_laurent_form_matches_dense_loop():
    rng = random.Random(29)
    zero = CoeffFn.zero()
    t = AltTensor.form(6, 3, zero)
    for idx in combinations(range(6), 3):
        if rng.random() < 0.5:
            t.set((), idx, CoeffFn({-1: rng.randint(-2, 2), 0: 1, 2: rng.randint(-2, 2)}))
    for A in pullback_matrices(rng, 6).values():
        got = t.pullback(A)
        assert isinstance(got.zero, CoeffFn)
        assert_same_form(got, dense_alt_pullback(t, A))


def test_alt_pullback_makes_no_field_op_on_a_cancelled_partial_term(monkeypatch):
    # T = e^012 - e^123 + e^124 with rows 0 and 3 of A equal: after the
    # first slot the orderings (0,1,2) and (3,1,2) cancel at every key
    # (t, 1, 2), and (4,1,2) then arrives there.  The cancelled term is
    # not multiplied by the next entry.
    rng = random.Random(31)
    A = [[QScalar(rng.randint(1, 4)) for _ in range(5)] for _ in range(5)]
    A[3] = A[0][:]
    t = form(5, 3, [((0, 1, 2), 1), ((1, 2, 3), -1), ((1, 2, 4), 2)])
    want = dense_alt_pullback(t, A)
    zero_operand = []

    def counted(x, y, op=QScalar.__mul__):
        if isinstance(y, QScalar) and (x.is_zero() or y.is_zero()):
            zero_operand.append("__mul__")
        return op(x, y)

    monkeypatch.setattr(QScalar, "__mul__", counted)
    got = t.pullback(A)
    monkeypatch.undo()
    assert zero_operand == []
    assert_same_form(got, want)
