import random
from fractions import Fraction

import pytest
from g2trac import linalg
from g2trac.octonions import (ImaginaryVector, NullFiltration, Octonion,
                              cross_structure_constants, dot, dot_matrix, g2_form, jmap,
                              null_filtration)
from g2trac.scalars import QScalar
from g2trac.stable_forms import phi_volume_with
from support import cross, random_null_vector


# -- routes that only the tests compare ---------------------------------------


def unit(xi: int = -1) -> Octonion:
    return Octonion.basis(0, xi)


def re(o: Octonion) -> QScalar:
    return o.comps[0]


def dot_cd(x: ImaginaryVector, y: ImaginaryVector) -> QScalar:
    """x . y = Re(x ybar), evaluated through the doubling product."""
    x._check(y)
    return re(x.to_octonion() * y.to_octonion().conj())


def dot_from_cross(x: ImaginaryVector, y: ImaginaryVector) -> QScalar:
    """Recover the bilinear form: x . y = -(1/6) tr(x X (y X .))."""
    x._check(y)
    acc = QScalar.zero()
    for j in range(1, 8):
        e = ImaginaryVector.basis(j, x.xi)
        v = cross(x, cross(y, e))
        acc = acc + v.comps[j - 1]
    return acc * QScalar.of(-1) / 6


def cross_to_volume(xi: int) -> QScalar:
    """Coefficient on e^{1..7} of (1/42) X_{K[AB} X^K_{CD} X_{EFG]}.

    The sign is reported as computed; the caller decides whether it
    matches the declared positive orientation.
    """
    # the Gram matrix is diagonal with entries +-1: its own inverse
    return phi_volume_with(g2_form(xi), dot_matrix(xi))


def reference_mult_table(xi):
    """The 42 off-diagonal products e_a x e_b of the classical table,
    embedded independently of the algebra code."""
    t = {}

    def put(a, b, c, s):
        t[(a, b)] = (c, s)
        t[(b, a)] = (c, -s)

    put(1, 2, 3, 1); put(1, 3, 2, -1); put(1, 4, 5, 1); put(1, 5, 4, -1)
    put(1, 6, 7, 1); put(1, 7, 6, -1)
    put(2, 3, 1, 1); put(2, 4, 6, 1); put(2, 5, 7, -1); put(2, 6, 4, -1)
    put(2, 7, 5, 1)
    put(3, 4, 7, -1); put(3, 5, 6, -1); put(3, 6, 5, 1); put(3, 7, 4, 1)
    put(4, 5, 1, xi); put(4, 6, 2, xi); put(4, 7, 3, -xi)
    put(5, 6, 3, -xi); put(5, 7, 2, -xi)
    put(6, 7, 1, xi)
    return t


@pytest.mark.parametrize("xi", [1, -1])
def test_multiplication_table_all_42_entries(xi):
    table = reference_mult_table(xi)
    assert len(table) == 42
    for (a, b), (c, s) in table.items():
        got = cross(ImaginaryVector.basis(a, xi), ImaginaryVector.basis(b, xi))
        want = [QScalar.zero()] * 7
        want[c - 1] = QScalar(s)
        assert got.comps == want, (xi, a, b)


@pytest.mark.parametrize("xi", [1, -1])
def test_doubling_product_decomposition(xi):
    # x y = -x.y + x X y on imaginary elements
    rng = random.Random(5)
    for _ in range(25):
        x = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
        y = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
        prod = x.to_octonion() * y.to_octonion()
        assert re(prod) == -dot(x, y)
        assert ImaginaryVector.from_octonion(prod.im()) == cross(x, y)


def test_unit_law():
    rng = random.Random(1)
    for xi in (1, -1):
        x = Octonion([rng.randint(-5, 5) for _ in range(8)], xi)
        assert unit(xi) * x == x
        assert x * unit(xi) == x


@pytest.mark.parametrize("xi", [1, -1])
def test_all_64_basis_products(xi):
    # 1 is the unit, e_a e_a = -e_a.e_a, and e_a e_b = e_a x e_b for a != b
    table = reference_mult_table(xi)
    for i in range(8):
        for j in range(8):
            want = [0] * 8
            if i == 0 or j == 0:
                want[i + j] = 1
            elif i == j:
                want[0] = -1 if i <= 3 else -xi
            else:
                c, s = table[(i, j)]
                want[c] = s
            assert Octonion.basis(i, xi) * Octonion.basis(j, xi) == Octonion(want, xi), (i, j)


def test_xi_mismatch_rejected():
    with pytest.raises(ValueError):
        unit(1) * unit(-1)


def test_imaginary_vector_rejects_xi_other_than_pm1():
    with pytest.raises(ValueError):
        ImaginaryVector([0] * 7, 2)


def test_conjugation_antiautomorphism():
    rng = random.Random(2)
    for xi in (1, -1):
        for _ in range(30):
            x = Octonion([rng.randint(-4, 4) for _ in range(8)], xi)
            y = Octonion([rng.randint(-4, 4) for _ in range(8)], xi)
            assert ((x * y).conj() - y.conj() * x.conj()).is_zero()


def test_alternativity_200_pairs():
    rng = random.Random(3)
    for xi in (1, -1):
        for _ in range(100):
            x = Octonion([rng.randint(-6, 6) for _ in range(8)], xi)
            y = Octonion([rng.randint(-6, 6) for _ in range(8)], xi)
            assert ((x * x) * y - x * (x * y)).is_zero()


def test_cross_examples():
    e = lambda i, xi=-1: ImaginaryVector.basis(i, xi)
    assert cross(e(1), e(1)).is_zero()
    got = cross(e(1), e(2))
    assert got == e(3)
    assert dot(e(1), e(2)).is_zero()
    # e4 x e5 = xi e1
    assert cross(e(4), e(5)) == e(1).scale(QScalar(-1))
    assert cross(e(4, 1), e(5, 1)) == e(1, 1)


def test_cross_compatibility_and_lagrange():
    rng = random.Random(4)
    for xi in (1, -1):
        for _ in range(60):
            x = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            c = cross(x, y)
            assert dot(c, x).is_zero()
            lhs = dot(c, c)
            rhs = dot(x, x) * dot(y, y) - dot(x, y) * dot(x, y)
            assert lhs == rhs


def test_table_routes_agree_with_doubling_product():
    # dual route: the cached-table cross/dot against -Im(x ybar)/Re(x ybar)
    from g2trac.octonions import cross_cd
    rng = random.Random(77)
    for xi in (1, -1):
        for _ in range(40):
            x = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            assert cross(x, y) == cross_cd(x, y)
            assert dot(x, y) == dot_cd(x, y)


def test_dot_from_cross_recovers_bilinear_form():
    rng = random.Random(6)
    for xi in (1, -1):
        for _ in range(15):
            x = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-5, 5) for _ in range(7)], xi)
            assert dot_from_cross(x, y) == dot(x, y)


def test_jmap_examples():
    e = lambda i: ImaginaryVector.basis(i, -1)
    J = jmap(e(1))
    col = [J[r][1] for r in range(7)]  # J_{e1}(e2) = -e1 x e2 = -e3
    assert col[2] == QScalar(-1) and sum(1 for v in col if not v.is_zero()) == 1
    x = ImaginaryVector([1, 2, 0, -1, 3, 0, 2], -1)
    Jx = jmap(x)
    assert all(v.is_zero() for v in linalg.mat_vec(Jx, x.comps))


def test_jmap_is_minus_the_cross_product():
    rng = random.Random(10)
    for xi in (1, -1):
        for _ in range(20):
            x = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
            assert ImaginaryVector(linalg.mat_vec(jmap(x), y.comps), xi) == -cross(x, y)


def test_jmap_squared_identity():
    rng = random.Random(8)
    for xi in (1, -1):
        for _ in range(20):
            x = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
            y = ImaginaryVector([rng.randint(-4, 4) for _ in range(7)], xi)
            J = jmap(x)
            J2y = linalg.mat_vec(J, linalg.mat_vec(J, y.comps))
            want = [(-dot(x, x)) * c + dot(x, y) * d for c, d in zip(y.comps, x.comps)]
            assert all((a - b).is_zero() for a, b in zip(J2y, want))


def test_unit_vector_gives_eps_complex_structure_on_orthocomplement():
    # x = e4 in the split algebra: x.x = -1, so eps = +1 and J_x^2 = id there
    x = ImaginaryVector.basis(4, -1)
    assert dot(x, x) == QScalar(-1)
    J = jmap(x)
    G = dot_matrix(-1)
    perp = linalg.nullspace([linalg.mat_vec(G, x.comps)])
    for v in perp:
        J2v = linalg.mat_vec(J, linalg.mat_vec(J, v))
        assert all((a - b).is_zero() for a, b in zip(J2v, v))


def test_null_filtration_100_random():
    rng = random.Random(9)
    for _ in range(100):
        x = random_null_vector(rng)
        f = null_filtration(x)
        assert f.dims() == (1, 3, 4, 6)
        assert f.kernel_isotropic()
        assert f.chain_ok()
        assert f.mapping_ok()


def test_null_filtration_image_is_the_column_space_of_J():
    # J's pivot columns span what the rows of rref(J^T) span
    rng = random.Random(9)
    for _ in range(100):
        f = null_filtration(random_null_vector(rng))
        assert linalg.same_subspace(f.image, linalg.row_space(linalg.transpose(f.J)))


@pytest.mark.parametrize("seed", range(4))
def test_dot_makes_no_zero_operand_field_op(seed):
    # null vectors: sums that start at zero and cancel to zero, against the
    # doubling product
    rng = random.Random(f"dot-zeros-{seed}")
    x, y = random_null_vector(rng), random_null_vector(rng)
    want = [dot_cd(x, x), dot_cd(x, y), dot_cd(y, y)]
    got = [dot(x, x), dot(x, y), dot(y, y)]
    assert got == want and got[0].is_zero() and got[2].is_zero()


def test_null_filtration_eliminates_four_times(monkeypatch):
    # one rref of J (kernel, image and kernel equations), one per perp and
    # one rank of the images of <x>^perp on ker J's free columns
    x = random_null_vector(random.Random(9))
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda A: calls.append(A) or rref(A))
    f = null_filtration(x)
    assert f.kernel_isotropic() and f.chain_ok() and f.mapping_ok()
    assert len(calls) == 4
    assert calls[0] == f.J


def _outside(f, step):
    """A basis vector outside the span of the filtration step."""
    big = getattr(f, step)
    return next(e for e in linalg.eye(7, QScalar.one(), QScalar.zero())
                if linalg.rank(big + [e]) > len(big))


@pytest.mark.parametrize("step, following", [("line", "kernel"), ("kernel", "kernel_perp"),
                                             ("kernel_perp", "line_perp")])
def test_chain_ok_rejects_a_step_leaving_the_next(step, following):
    f = null_filtration(random_null_vector(random.Random(9)))
    assert f.chain_ok()
    setattr(f, step, getattr(f, step)[:-1] + [_outside(f, following)])
    assert not f.chain_ok()


@pytest.mark.parametrize("step", ["image", "kernel_perp"])
def test_mapping_ok_rejects_a_mutated_step(step):
    f = null_filtration(random_null_vector(random.Random(9)))
    assert f.mapping_ok()
    setattr(f, step, getattr(f, step)[:-1] + [_outside(f, step)])
    assert not f.mapping_ok()


def test_mapping_ok_rejects_a_hyperplane_other_than_x_perp():
    # J maps y^perp onto a 3-dim space for every y in (ker J)^perp; only for
    # y on the line <x> is that space ker J
    f = null_filtration(random_null_vector(random.Random(9)))
    y = next(v for v in f.kernel_perp if linalg.rank(f.line + [v]) == 2)
    f.line_perp = linalg.nullspace([linalg.mat_vec(dot_matrix(-1), y)])
    assert linalg.rank([linalg.mat_vec(f.J, v) for v in f.line_perp]) == 3
    assert not f.mapping_ok()


def test_mapping_ok_rejects_images_short_of_the_kernel():
    # J maps (ker J)^perp into ker J too, but onto the line <x> only
    f = null_filtration(random_null_vector(random.Random(9)))
    f.line_perp = f.kernel_perp
    assert linalg.kills(f.J, [linalg.mat_vec(f.J, v) for v in f.line_perp])
    assert not f.mapping_ok()


def test_mapping_ok_rejects_a_kernel_line_other_than_x():
    # every y in ker J has J y = 0, but J((ker J)^perp) is the line <x> only
    f = null_filtration(random_null_vector(random.Random(9)))
    y = next(v for v in f.kernel if linalg.rank(f.line + [v]) == 2)
    f.line = [y]
    assert f.chain_ok()
    assert not f.mapping_ok()


def test_mapping_ok_rejects_a_mutated_endomorphism():
    rng = random.Random(9)
    f = null_filtration(random_null_vector(rng))
    f.J = jmap(random_null_vector(rng))
    assert not f.mapping_ok()


def test_kernel_isotropic_rejects_a_mutated_kernel_or_endomorphism():
    f = null_filtration(random_null_vector(random.Random(9)))
    assert f.kernel_isotropic()
    f.kernel = f.kernel[:-1] + [_outside(f, "kernel_perp")]
    assert not f.kernel_isotropic()
    # the kernel of J_x for a non-null x is the line <x>, which is not isotropic
    x = ImaginaryVector([1, 2, 0, -1, 3, 0, 2], -1)
    assert not dot(x, x).is_zero()
    f = NullFiltration(jmap(x), dot_matrix(-1), x.comps)
    assert f.dims()[1] == 1 and not f.kernel_isotropic()


def test_null_filtration_of_a_j_with_trivial_kernel():
    # no kernel equations: (ker J)^perp is the whole space; J x != 0, so the
    # chain and the mapping fail, and the empty kernel is isotropic
    one, zero = QScalar.one(), QScalar.zero()
    f = NullFiltration(linalg.eye(7, one, zero), dot_matrix(-1), ImaginaryVector.basis(1, -1).comps)
    assert f.dims() == (1, 0, 7, 6)
    assert not f.chain_ok()
    assert not f.mapping_ok()
    assert f.kernel_isotropic()


def test_null_filtration_preconditions():
    with pytest.raises(ValueError):
        null_filtration(ImaginaryVector.basis(1, -1))  # non-null
    with pytest.raises(ValueError):
        null_filtration(ImaginaryVector([0] * 7, -1))  # zero
    with pytest.raises(ValueError):
        null_filtration(ImaginaryVector.basis(1, 1))   # definite algebra


def test_volume_form_sign_and_frozen_ratio():
    # positive orientation for both algebras; the exact multiple of
    # e^{1..7} is a recorded regression value
    for xi in (1, -1):
        coeff = cross_to_volume(xi)
        assert coeff.sign() == 1
        assert coeff == QScalar(Fraction(1, 210))


def test_structure_constants_sparsity():
    t = cross_structure_constants(-1)
    assert len(t) == 42
