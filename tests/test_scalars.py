import operator
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2trac.scalars import QScalar, SQRT2, SQRT5, SQRT10, DegenerateError, _icbrt, _rational


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


# -- ring ops against an independent Fraction reference -------------------

big_fractions = st.fractions(max_denominator=10 ** 30)
any_fractions = st.one_of(rationals, big_fractions)


@st.composite
def operands(draw, plain=True):
    """(x, coords): an int, a Fraction (denominators up to 10^30), zero or a
    general element of Q(sqrt2, sqrt5), often with zero coordinates, and
    its Fraction coordinates on (1, sqrt2, sqrt5, sqrt10).  A rational x
    is a QScalar or, with plain, the int or Fraction itself."""
    kind = draw(st.sampled_from(["int", "fraction", "zero", "general"]))
    if kind == "general":
        coords = tuple(draw(st.one_of(st.just(Fraction(0)), any_fractions)) for _ in range(4))
        return QScalar(*coords), coords
    x = draw({"int": st.integers(), "fraction": any_fractions, "zero": st.just(0)}[kind])
    coords = (Fraction(x), Fraction(0), Fraction(0), Fraction(0))
    return (x if plain and draw(st.booleans()) else QScalar(x)), coords


def _reference(op, x, y):
    """Coordinates of x op y from the Fraction 4-tuples x and y alone."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    if op == "add":
        return a1 + a2, b1 + b2, c1 + c2, d1 + d2
    if op == "sub":
        return a1 - a2, b1 - b2, c1 - c2, d1 - d2
    return (a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _canonical(coords):
    """The reduced int tuple (A, B, C, D, n) of Fraction coordinates."""
    n = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (n // c.denominator) for c in coords) + (n,)


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@given(st.sampled_from(sorted(_OPS)), operands(), operands(plain=False))
@settings(max_examples=200)
def test_fast_paths_match_general_formula(op, left, right):
    # the integer ring ops, the rational fast path among them, against the
    # Fraction coordinate formulas; right is a QScalar, so a plain left
    # operand runs the reflected operator
    (x, xc), (y, yc) = left, right
    for lhs, rhs, lc, rc in ((x, y, xc, yc), (y, x, yc, xc)):
        got = _OPS[op](lhs, rhs)
        want = _reference(op, lc, rc)
        coords = (got.a, got.b, got.c, got.d)
        assert coords == want
        assert all(isinstance(v, Fraction) for v in coords)
        # the canonical tuple: gcd 1, n > 0, zero as (0, 0, 0, 0, 1)
        assert got._v == _canonical(want)
        assert gcd(*got._v) == 1 and got._v[4] > 0
        assert hash(got) == (hash(want[0]) if got.is_rational() else hash(coords))
        assert got.as_strings() == [str(v) for v in want]


@given(operands(plain=False))
@settings(max_examples=200)
def test_negation_keeps_the_reduced_tuple(x):
    # negation takes no gcd: (-A, -B, -C, -D, n) is in lowest terms already
    (x, coords) = x
    got = -x
    assert got._v == _canonical(tuple(-c for c in coords))
    assert gcd(*got._v) == 1 and got._v[4] > 0
    assert got == 0 - x and got._v == (QScalar.zero() - x)._v
    assert -got == x and got + x == 0


def test_only_rational_pairs_take_the_fast_path(monkeypatch):
    # a pair with an irrational operand takes the general formula; a
    # rational pair makes one _rational call
    calls = []
    monkeypatch.setattr("g2trac.scalars._rational",
                        lambda a, n: calls.append((a, n)) or _rational(a, n))
    coords = lambda v: (QScalar.of(v).a, QScalar.of(v).b, QScalar.of(v).c, QScalar.of(v).d)
    r, u = QScalar(Fraction(-3, 7)), 1 + SQRT2
    for lhs, rhs in ((r, u), (u, r), (Fraction(2, 9), u), (u, 5), (SQRT5, SQRT10)):
        for name, op in _OPS.items():
            got = op(lhs, rhs)
            assert coords(got) == _reference(name, coords(lhs), coords(rhs))
    assert calls == []
    assert r * Fraction(14, 3) == QScalar(-2) and Fraction(3, 7) + r == 0
    assert calls == [(-42, 21), (0, 49)]


def _coords(x):
    q = QScalar.of(x)
    return q.a, q.b, q.c, q.d


zeros = st.sampled_from([QScalar.zero(), QScalar(0), 0, Fraction(0)])


@given(st.one_of(plain_rationals, st.booleans()))
def test_of_a_rational_is_its_canonical_element(x):
    assert QScalar.of(x)._v == QScalar(x)._v
    assert all(type(i) is int for i in QScalar.of(x)._v)


@given(st.sampled_from(sorted(_OPS)), zeros, zero_heavy_operands)
@settings(max_examples=200)
def test_a_zero_operand_returns_at_once(op, zero, other):
    # 0 + x, x + 0, x - 0, 0 - x, 0 * x and x * 0, reflected forms included:
    # the general formula's value in canonical form, with no tuple reduced
    # (_reduced) and no rational fast path (_rational)
    if not isinstance(zero, QScalar):
        other = QScalar.of(other)   # int op int is Python's own
    pairs = ((zero, other), (other, zero))
    want = [_reference(op, _coords(x), _coords(y)) for x, y in pairs]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_reduced", "_rational"):
            mp.setattr(f"g2trac.scalars.{name}", lambda *v, name=name: calls.append(name))
        got = [_OPS[op](x, y) for x, y in pairs]
    assert calls == []
    for q, w in zip(got, want):
        assert isinstance(q, QScalar)
        assert (q.a, q.b, q.c, q.d) == w and q._v == _canonical(w)


@pytest.mark.parametrize("x", [QScalar(Fraction(-3, 7)), 1 + SQRT2 - SQRT10 / 3], ids=str)
def test_pow_is_the_repeated_product(x):
    for n in (0, 1, 2, 3, 7, 8, 40, -3):
        want = QScalar.one()
        for _ in range(abs(n)):
            want = want * x
        assert x ** n == (want if n >= 0 else want.inverse())


def test_pow_squares_only_while_a_bit_is_left(monkeypatch):
    # x^8: three squarings and one product with the accumulator; a square
    # after the top bit would be a fifth, unused product
    calls = []
    mul = QScalar.__mul__
    monkeypatch.setattr(QScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    x = 1 + SQRT2
    y = x ** 8
    monkeypatch.undo()   # the dunders are class attributes again
    assert len(calls) == 4
    assert y == ((x * x) * (x * x)) * ((x * x) * (x * x))
    assert QScalar.__mul__ is mul


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


# -- sign against rational interval bounds ------------------------------------


def interval_sign(x: QScalar) -> int:
    """Exact sign: -1, 0 or +1.

    The basis representation is unique, so zero is decided exactly;
    nonzero values get adaptive rational interval bounds on the surds
    until zero is excluded.
    """
    if x.is_zero():
        return 0
    prec = 30
    while True:
        lo, hi = _bounds(x, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def _bounds(x: QScalar, digits: int):
    scale = 10 ** digits
    lo = hi = x.a
    for coeff, n in ((x.b, 2), (x.c, 5), (x.d, 10)):
        if coeff == 0:
            continue
        r = isqrt(n * scale * scale)
        slo = Fraction(r, scale)
        shi = Fraction(r + 1, scale)
        if coeff > 0:
            lo += coeff * slo
            hi += coeff * shi
        else:
            lo += coeff * shi
            hi += coeff * slo
    return lo, hi


def _random_element(rng, digits):
    """A seeded element whose numerators have up to `digits` digits, each
    coordinate zero one time in four."""
    big = 10 ** digits
    coords = [Fraction(rng.randint(-big, big), rng.randint(1, big)) if rng.random() < 0.75 else 0
              for _ in range(4)]
    return QScalar(*coords)


def test_sign_matches_interval_bounds_on_random_elements():
    rng = random.Random("sign-random")
    for _ in range(2000):
        x = _random_element(rng, rng.choice((1, 3, 30)))
        assert x.sign() == interval_sign(x) == -(-x).sign()


def test_sign_matches_interval_bounds_near_cancellation():
    # b sqrt2 + c sqrt5 + d sqrt10 less the integer nearest to it: a value
    # within 1/2 of 0 whose coordinates have up to 30 digits
    rng = random.Random("sign-cancel")
    for _ in range(300):
        digits = rng.choice((2, 10, 30))
        w = QScalar(0, *(rng.randint(-10 ** digits, 10 ** digits) for _ in range(3)))
        lo, _ = _bounds(w, digits + 10)
        for shift in (0, 1, -1):
            x = w - (lo.__floor__() + shift)
            assert x.sign() == interval_sign(x)


def test_sign_of_near_zero_units():
    # 1 - sqrt2 < 0 and sqrt5 - 2, sqrt10 - 3 > 0: their powers shrink
    # geometrically and carry a sign known in closed form
    u2, u5, u10 = 1 - SQRT2, SQRT5 - 2, SQRT10 - 3
    for k in range(41):
        for x, want in ((u2 ** k, (-1) ** k), (u5 ** k, 1), (u10 ** k, 1)):
            assert x.sign() == interval_sign(x) == want
            assert (-x).sign() == interval_sign(-x) == -want
    for j in range(41):
        for k in range(41):
            x = u2 ** j * u5 ** k
            assert x.sign() == interval_sign(x) == (-1) ** j
            assert (-x).sign() == -(-1) ** j


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
