import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2trac.scalars import QScalar, SQRT2, SQRT5, SQRT10, DegenerateError, _icbrt


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(QScalar, rationals, rationals, rationals, rationals)

# Rational and mostly-zero elements, which the four-coordinate strategy
# above seldom draws; the operand strategies add plain int and Fraction
# right operands.
rational_scalars = st.builds(QScalar, rationals)
sparse_coords = st.one_of(st.just(0), st.just(0), rationals)
zero_heavy_scalars = st.builds(QScalar, sparse_coords, sparse_coords,
                               sparse_coords, sparse_coords)
plain_rationals = st.one_of(st.integers(-50, 50), rationals)
rational_operands = st.one_of(rational_scalars, plain_rationals)
zero_heavy_operands = st.one_of(zero_heavy_scalars, plain_rationals)


def test_generator_relations():
    assert SQRT2 * SQRT2 == QScalar(2)
    assert SQRT5 * SQRT5 == QScalar(5)
    assert SQRT2 * SQRT5 == SQRT10
    assert SQRT10 * SQRT10 == QScalar(10)


def test_conjugate_product():
    assert (1 + SQRT2) * (1 - SQRT2) == QScalar(-1)


def test_invert_sqrt10_against_linear_system_oracle():
    # solve (a + b r2 + c r5 + d r10) * r10 = 1 over Q^4 by hand:
    # r10*(a,b,c,d) has components (10d, 5c, 2b, a) on (1, r2, r5, r10)
    # => a = b = c = 0, d = 1/10
    oracle = QScalar(0, 0, 0, Fraction(1, 10))
    assert SQRT10.inverse() == oracle
    assert SQRT10.inverse() == SQRT10 / 10


def _check_inverse(x):
    if x.is_zero():
        with pytest.raises(DegenerateError):
            x.inverse()
    else:
        assert x * x.inverse() == QScalar(1)


@given(scalars)
@settings(max_examples=120)
def test_inverse_is_exact(x):
    _check_inverse(x)


@given(rational_scalars)
@settings(max_examples=120)
def test_inverse_is_exact_rational(x):
    _check_inverse(x)


@given(zero_heavy_scalars)
@settings(max_examples=120)
def test_inverse_is_exact_zero_heavy(x):
    _check_inverse(x)


def _check_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == QScalar(0)
    assert x - y == x + (-y)
    assert y - x == -(x - y)


@given(scalars, scalars, scalars)
@settings(max_examples=60)
def test_field_axioms(x, y, z):
    _check_field_axioms(x, y, z)


@given(rational_scalars, rational_operands, rational_operands)
@settings(max_examples=60)
def test_field_axioms_rational(x, y, z):
    _check_field_axioms(x, y, z)


@given(zero_heavy_scalars, zero_heavy_operands, zero_heavy_operands)
@settings(max_examples=60)
def test_field_axioms_zero_heavy(x, y, z):
    _check_field_axioms(x, y, z)


def _general_formula(op, x, y):
    """x op y by the four-coordinate Fraction formulas."""
    x, y = QScalar.of(x), QScalar.of(y)
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    if op == "add":
        return QScalar(a1 + a2, b1 + b2, c1 + c2, d1 + d2)
    if op == "sub":
        return QScalar(a1 - a2, b1 - b2, c1 - c2, d1 - d2)
    return QScalar(
        a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
        a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@given(st.sampled_from(sorted(_OPS)), st.booleans(),
       st.one_of(scalars, rational_scalars, zero_heavy_scalars),
       st.one_of(scalars, rational_operands, zero_heavy_operands))
@settings(max_examples=200)
def test_fast_paths_match_general_formula(op, reflected, x, y):
    # the integer ring ops against the Fraction coordinate formulas, on
    # general, rational and mostly-zero operands; reflected: the plain
    # operand (if any) sits on the left
    lhs, rhs = (y, x) if reflected else (x, y)
    got = _OPS[op](lhs, rhs)
    want = _general_formula(op, lhs, rhs)
    coords = (got.a, got.b, got.c, got.d)
    assert coords == (want.a, want.b, want.c, want.d)
    assert all(isinstance(v, Fraction) for v in coords)
    assert hash(got) == hash(want)
    if not got.is_rational():
        assert hash(got) == hash(coords)
    assert got.as_strings() == want.as_strings()


def test_no_float_enters_the_field():
    from g2trac.laurent import CoeffFn
    for make in (lambda: QScalar(0.5), lambda: QScalar(0, 0.5), lambda: QScalar.of(0.5),
                 lambda: QScalar(1) + 0.5, lambda: 0.5 * QScalar(1),
                 lambda: QScalar(1) / 0.5, lambda: CoeffFn.of(0.5)):
        with pytest.raises(TypeError):
            make()
    # __slots__ only: no per-instance dict
    assert not hasattr(QScalar(1), "__dict__")


def test_zero_iff_all_coordinates_zero():
    assert not QScalar(0, 1, -1, 0).is_zero()
    assert QScalar(0, 0, 0, 0).is_zero()


def test_equality_with_plain_rationals():
    assert QScalar(Fraction(3, 2)) == Fraction(3, 2)
    assert 4 == QScalar(4)
    assert QScalar(2, 0, 0, 1) != 2
    assert QScalar(0, 1) != 0
    assert QScalar(1, 1) != QScalar(1, 1, 1)
    # equal values hash equal, so mixed sets and dicts find their keys
    assert hash(QScalar(1)) == hash(1)
    assert hash(QScalar(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert 1 in {QScalar(1)} and QScalar(1) in {1}
    assert {Fraction(-2, 3): "x"}[QScalar(Fraction(-2, 3))] == "x"


def test_exact_sign_close_call():
    # 99/70 is a convergent of sqrt2: the difference is ~1e-4
    assert (SQRT2 - Fraction(99, 70)).sign() == -1
    assert (SQRT2 - Fraction(140, 99)).sign() == 1
    assert (SQRT2 + SQRT5 - SQRT10 - Fraction(489, 1000)).sign() < 0
    assert (SQRT2 + SQRT5 - SQRT10 - Fraction(488, 1000)).sign() > 0


def test_ordering():
    assert SQRT2 < SQRT5 < SQRT10
    assert QScalar(1) <= QScalar(1)


def test_sqrt_monomial_cases():
    assert QScalar(Fraction(9, 4)).sqrt() == QScalar(Fraction(3, 2))
    assert QScalar(2).sqrt() == SQRT2
    assert QScalar(45).sqrt() == 3 * SQRT5
    assert QScalar(40).sqrt() == 2 * SQRT10
    with pytest.raises(ValueError):
        QScalar(3).sqrt()
    with pytest.raises(ValueError):
        (-QScalar(4)).sqrt()


def test_cbrt_monomial_cases():
    assert QScalar(27).cbrt() == QScalar(3)
    assert (2 * SQRT2).cbrt() == SQRT2
    assert (5 * SQRT5).cbrt() == SQRT5
    assert (10 * SQRT10).cbrt() == SQRT10
    assert (QScalar(80) * SQRT10).cbrt() == 2 * SQRT10
    with pytest.raises(ValueError):
        (1 + SQRT2).cbrt()


def test_icbrt_exact_at_every_size():
    for k in (0, 1, 2, 3, 10 ** 20 + 3, 10 ** 120, 3 ** 400 + 1):
        assert _icbrt(k ** 3) == k
        assert _icbrt(-(k ** 3)) == -k
    for n in (2, 7, 9, -26, 10 ** 360 - 1, 10 ** 360 + 1, -(10 ** 360 + 1),
              (10 ** 20 + 3) ** 3 + 1):
        assert _icbrt(n) is None
    assert all(_icbrt(n) is None for n in range(10 ** 360 - 50, 10 ** 360 + 50)
               if n != 10 ** 360)


def test_string_round_trip():
    x = QScalar(Fraction(-3, 7), Fraction(1, 2), 0, 4)
    assert QScalar.from_strings(x.as_strings()) == x


def test_float_reporting_tolerance():
    x = QScalar(1, 1, 1, 1)
    approx = 1 + 2 ** 0.5 + 5 ** 0.5 + 10 ** 0.5
    assert abs(float(x) - approx) < 1e-9


def test_sqrt_denests_through_both_quadratic_steps():
    assert QScalar(3, 2).sqrt() == 1 + SQRT2
    # (sqrt2 + sqrt5)^2 = 7 + 2 sqrt10
    assert QScalar(7, 0, 0, 2).sqrt() == SQRT2 + SQRT5
    r = 1 - SQRT2 + SQRT10
    assert (r * r).sqrt() == r
    for x in (1 + SQRT2, SQRT2, 2 + SQRT5, QScalar(3) + SQRT10):
        with pytest.raises(ValueError):
            x.sqrt()


@given(st.one_of(scalars, zero_heavy_scalars))
@settings(max_examples=150)
def test_sqrt_of_a_square(x):
    r = (x * x).sqrt()
    assert r == x or r == -x
    assert r.sign() >= 0


@given(rationals, st.sampled_from([QScalar(1), SQRT2, SQRT5, SQRT10]))
@settings(max_examples=100)
def test_cbrt_of_a_monomial_cube(t, unit):
    x = QScalar(t) * unit
    assert (x ** 3).cbrt() == x
