import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2trac.laurent import CoeffFn, PLAIN, RHO_MINUS, RHO_PLUS
from g2trac.scalars import QScalar, SQRT2, DegenerateError


monomials = st.builds(
    lambda c, e: CoeffFn.monomial(QScalar(c), e),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(lambda f: f != 0),
    st.integers(min_value=-4, max_value=4),
)


def poly(*terms, param=PLAIN):
    return CoeffFn({e: QScalar.of(c) for e, c in terms}, param)


def test_zero_terms_never_stored():
    f = poly((0, 1), (2, Fraction(1, 2)))
    g = poly((2, Fraction(-1, 2)))
    assert set((f + g).terms) == {0}


def test_ring_ops():
    f = poly((1, 1), (0, 2))
    g = poly((-1, 3))
    assert (f * g) == poly((0, 3), (-1, 6))
    assert (f - f).is_zero()


@given(monomials, monomials)
@settings(max_examples=80)
def test_derivation_property_on_monomials(f, g):
    lhs = (f * g).d_ds()
    rhs = f.d_ds() * g + f * g.d_ds()
    assert (lhs - rhs).is_zero()


@given(monomials)
@settings(max_examples=40)
def test_d_ds_lowers_min_exponent_by_one(f):
    d = f.d_ds()
    if f.min_exp() == 0:
        assert d.is_zero()
    else:
        assert d.min_exp() == f.min_exp() - 1


def test_d_drho_in_quadratic_charts():
    # rho = s^2: d/drho (s^4) = d/drho (rho^2) = 2 rho = 2 s^2
    f = CoeffFn.monomial(QScalar(1), 4, RHO_PLUS)
    assert f.d_drho() == CoeffFn.monomial(QScalar(2), 2, RHO_PLUS)
    # rho = -s^2: rho as a function is -s^2 and d rho/d rho = 1
    r = CoeffFn.rho(RHO_MINUS)
    assert r.d_drho() == CoeffFn.one(RHO_MINUS)


def test_param_mismatch_is_rejected():
    f = CoeffFn.monomial(QScalar(1), 1, RHO_PLUS)
    g = CoeffFn.monomial(QScalar(1), 1, RHO_MINUS)
    with pytest.raises(ValueError):
        f + g
    # constants travel freely
    assert (f + CoeffFn.of(QScalar(3), RHO_MINUS)).coeff(0) == QScalar(3)


def test_substitute_rho():
    f = poly((2, 1), (1, -3), (0, 2))      # rho^2 - 3 rho + 2
    plus = f.substitute_rho(RHO_PLUS)      # s^4 - 3 s^2 + 2
    minus = f.substitute_rho(RHO_MINUS)    # s^4 + 3 s^2 + 2
    assert plus == CoeffFn({4: QScalar(1), 2: QScalar(-3), 0: QScalar(2)}, RHO_PLUS)
    assert minus == CoeffFn({4: QScalar(1), 2: QScalar(3), 0: QScalar(2)}, RHO_MINUS)


def test_monomial_inverse_and_division():
    f = CoeffFn.monomial(SQRT2, -3)
    assert (f * f.inverse()) == CoeffFn.one()
    with pytest.raises(DegenerateError):
        CoeffFn.zero().inverse()
    num = poly((2, 1), (1, 1))
    den = poly((1, 1))
    assert num / den == poly((1, 1), (0, 1))
    with pytest.raises(ValueError):
        poly((2, 1), (0, 1)) / poly((1, 1), (0, 1))


def test_exact_division_general():
    a = poly((1, 2), (0, 3))
    b = poly((2, 1), (0, -1))
    q, r = (a * b).divmod(b)
    assert r.is_zero() and q == a


def test_eval():
    f = poly((2, 1), (0, -4))
    assert f.eval(QScalar(3)) == QScalar(5)
    assert f.eval(SQRT2) == QScalar(-2)


# -- zero and constant shortcuts against the general formulas -------------
#
# The reference ring ops below are the general formulas the shortcuts
# replace: every operand goes through a coercing join, and every result
# through the coercing constructor.

PARAMS = (PLAIN, RHO_PLUS, RHO_MINUS)


def _ref_join(f, other):
    o = other if isinstance(other, CoeffFn) else CoeffFn({0: QScalar.of(other)}, f.param)
    if o.param == f.param:
        return o
    if set(o.terms) <= {0}:
        return CoeffFn(o.terms, f.param)
    raise ValueError("parameterization mismatch")


def _ref_add(f, g):
    out = dict(f.terms)
    for e, c in _ref_join(f, g).terms.items():
        s = out.get(e, QScalar.zero()) + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return CoeffFn(out, f.param)


def _ref_neg(f):
    return CoeffFn({e: -c for e, c in f.terms.items()}, f.param)


def _ref_sub(f, g):
    return _ref_add(f, _ref_neg(_ref_join(f, g)))


def _ref_mul(f, g):
    o = _ref_join(f, g)
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in o.terms.items():
            out[e1 + e2] = out.get(e1 + e2, QScalar.zero()) + c1 * c2
    return CoeffFn(out, f.param)


def _assert_same(got, want):
    assert isinstance(got, CoeffFn)
    assert got.terms == want.terms and got.param == want.param
    assert all(type(e) is int and isinstance(c, QScalar) and not c.is_zero()
               for e, c in got.terms.items())


def _samples(param):
    """Zero, constants and non-constants of one parameterization."""
    return [CoeffFn.zero(param), CoeffFn.one(param), CoeffFn.of(-SQRT2 / 3, param),
            CoeffFn.s(param), CoeffFn.rho(param),
            poly((-2, Fraction(1, 2)), (0, 3), (1, SQRT2 + 1), param=param),
            poly((0, -3), (3, 5), param=param)]


SCALARS = [0, 3, Fraction(-2, 7), QScalar(0), QScalar(5), SQRT2 - QScalar(1, 0, 1, 1)]


def test_ring_op_shortcuts_match_general_formulas():
    for pf in PARAMS:
        for f in _samples(pf):
            _assert_same(-f, _ref_neg(f))
            for c in SCALARS:
                _assert_same(f * c, _ref_mul(f, c))
                _assert_same(c * f, _ref_mul(f, c))
                _assert_same(f + c, _ref_add(f, c))
                _assert_same(f - c, _ref_sub(f, c))
                _assert_same(c - f, _ref_sub(_ref_join(f, c), f))
            for pg in PARAMS:
                for g in _samples(pg):
                    if pf != pg and not g.is_constant():
                        # only a constant right operand changes param
                        for op in (_ref_mul, _ref_add, _ref_sub,
                                   operator.mul, operator.add, operator.sub):
                            with pytest.raises(ValueError):
                                op(f, g)
                        continue
                    _assert_same(f * g, _ref_mul(f, g))
                    _assert_same(f + g, _ref_add(f, g))
                    _assert_same(f - g, _ref_sub(f, g))


def test_zero_operand_still_checks_the_parameterization():
    g = CoeffFn({-1: QScalar(2), 1: SQRT2}, RHO_MINUS)
    for zero in (CoeffFn.zero(RHO_PLUS), CoeffFn.zero(PLAIN)):
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ValueError):
                op(zero, g)


def test_constant_hash_agrees_with_equality():
    for value in (QScalar(0), QScalar(1), QScalar(Fraction(-3, 2)), 1 + SQRT2):
        consts = [CoeffFn.of(value, p) for p in PARAMS]
        assert all(c == value and hash(c) == hash(value) for c in consts)
        assert len({hash(c) for c in consts}) == 1
        assert value in set(consts) and consts[0] in {value}
        assert all({consts[0]: "x"}[c] == "x" for c in consts)
    assert hash(CoeffFn.one(RHO_PLUS)) == hash(1) == hash(QScalar(1))
    assert 1 in {CoeffFn.one()} and CoeffFn.one(RHO_MINUS) in {1}
    assert hash(CoeffFn.zero(RHO_MINUS)) == hash(0) and 0 in {CoeffFn.zero(RHO_PLUS)}
    assert hash(poly((1, 2), (-1, 1))) == hash(poly((-1, 1), (1, 2)))


@pytest.mark.parametrize("one", [QScalar.one(), CoeffFn.one(), CoeffFn.one(RHO_MINUS)],
                         ids=["QScalar", "CoeffFn", "CoeffFn-rho-"])
def test_equality_with_operands_outside_the_ring_is_false(one):
    for other in (None, 0.5, 1.0, "1", [1], object()):
        assert not one == other
        assert one != other
        assert not other == one
    assert one == 1 and one == Fraction(1) and one == QScalar(1)


@pytest.mark.parametrize("param", [PLAIN, RHO_PLUS, RHO_MINUS])
def test_zero_is_one_shared_constant_per_parameterization(param):
    z = CoeffFn.zero(param)
    assert z is CoeffFn.zero(param) and z.param == param and z.is_zero()
    assert CoeffFn.s(param) * QScalar(0) is z
    with pytest.raises(TypeError):
        z.terms[0] = QScalar(1)


def test_zero_rejects_an_unknown_parameterization():
    with pytest.raises(ValueError):
        CoeffFn.zero("bad")


@pytest.mark.parametrize("param, want", [(PLAIN, {1: 1}), (RHO_PLUS, {2: 1}), (RHO_MINUS, {2: -1})])
def test_rho_is_one_shared_constant_per_parameterization(param, want):
    r = CoeffFn.rho(param)
    assert r is CoeffFn.rho(param) and r.param == param
    assert r == CoeffFn({e: QScalar(c) for e, c in want.items()}, param)
    assert (CoeffFn.s(param) + r) - r == CoeffFn.s(param) and r == CoeffFn.rho(param)
    with pytest.raises(TypeError):
        r.terms[0] = QScalar(1)
    with pytest.raises(ValueError):
        CoeffFn.rho("bad")


@pytest.mark.parametrize("param", [PLAIN, RHO_PLUS, RHO_MINUS])
def test_cbrt_of_monomials(param):
    got = CoeffFn.monomial(QScalar(Fraction(-8, 27)), 6, param).cbrt()
    assert got.terms == {2: QScalar(Fraction(-2, 3))} and got.param == param
    got = CoeffFn.monomial(SQRT2 * 2, -3, param).cbrt()
    assert got.terms == {-1: SQRT2} and got.param == param


@pytest.mark.parametrize("f", [
    poly((0, 1), (1, 1)),                     # not a monomial
    CoeffFn.zero(),                           # no term at all
    poly((2, 8)),                             # exponent 2 is not divisible by 3
    poly((3, 2)),                             # cube root of 2 is not in Q(sqrt2, sqrt5)
], ids=["binomial", "zero", "exponent", "root"])
def test_cbrt_rejects(f):
    with pytest.raises(ValueError):
        f.cbrt()


# -- the monomial branches against the general formulas ---------------------
#
# Operands of at most one term take the monomial branch of +, - and *; the
# reference formulas above run the general loop on every operand.

nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
nonzero_coeffs = st.one_of(
    st.builds(QScalar, nonzero_rationals),
    st.builds(QScalar, nonzero_rationals, nonzero_rationals, st.just(0), nonzero_rationals))
exponents = st.integers(min_value=-4, max_value=4)


@st.composite
def laurent_operands(draw, param):
    """Zero, a constant, a monomial or a binomial of one parameterization."""
    kind = draw(st.sampled_from(["zero", "constant", "monomial", "binomial"]))
    if kind == "zero":
        return CoeffFn.zero(param)
    if kind == "constant":
        return CoeffFn({0: draw(nonzero_coeffs)}, param)
    if kind == "monomial":
        return CoeffFn({draw(exponents): draw(nonzero_coeffs)}, param)
    e1, e2 = draw(st.lists(exponents, min_size=2, max_size=2, unique=True))
    return CoeffFn({e1: draw(nonzero_coeffs), e2: draw(nonzero_coeffs)}, param)


@st.composite
def right_operands(draw, f):
    """A right operand for f: of f's parameterization (often sharing an
    exponent with f, so that a sum can cancel), a constant or a
    non-constant of another one, or an int, Fraction or QScalar."""
    kind = draw(st.sampled_from(["same", "negated", "same-exponent", "other-constant",
                                 "other", "int", "fraction", "qscalar"]))
    if kind == "same":
        return draw(laurent_operands(f.param))
    if kind == "negated":
        return -f
    if kind == "same-exponent":
        return CoeffFn({e: draw(nonzero_coeffs) for e in f.terms}, f.param)
    other = draw(st.sampled_from([p for p in PARAMS if p != f.param]))
    if kind == "other-constant":
        return draw(st.one_of(st.just(CoeffFn.zero(other)),
                              st.builds(lambda c: CoeffFn({0: c}, other), nonzero_coeffs)))
    if kind == "other":
        return CoeffFn({draw(exponents.filter(bool)): draw(nonzero_coeffs)}, other)
    if kind == "int":
        return draw(st.integers(min_value=-5, max_value=5))
    if kind == "fraction":
        return draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
    return draw(st.one_of(st.just(QScalar.zero()), nonzero_coeffs))


@st.composite
def operand_pairs(draw):
    f = draw(laurent_operands(draw(st.sampled_from(PARAMS))))
    return f, draw(right_operands(f))


@given(operand_pairs())
@settings(max_examples=300)
def test_monomial_branches_match_the_general_loop(pair):
    f, g = pair
    _assert_same(-f, _ref_neg(f))
    if isinstance(g, CoeffFn) and g.param != f.param and not g.is_constant():
        # a non-constant of another parameterization never joins; f joins
        # g's parameterization only where f is a constant
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ValueError):
                op(f, g)
            if f.is_constant():
                _assert_same(op(g, f), {operator.mul: _ref_mul, operator.add: _ref_add,
                                        operator.sub: _ref_sub}[op](g, f))
            else:
                with pytest.raises(ValueError):
                    op(g, f)
        return
    _assert_same(f * g, _ref_mul(f, g))
    _assert_same(f + g, _ref_add(f, g))
    _assert_same(f - g, _ref_sub(f, g))
    if not isinstance(g, CoeffFn):
        _assert_same(f._scale(QScalar.of(g)), _ref_mul(f, g))
        _assert_same(g * f, _ref_mul(f, g))
        _assert_same(g + f, _ref_add(f, g))
        _assert_same(g - f, _ref_sub(_ref_join(f, g), f))
    elif g.param == f.param:
        _assert_same(g * f, _ref_mul(g, f))
        _assert_same(g + f, _ref_add(g, f))
        _assert_same(g - f, _ref_sub(g, f))
    assert (f == g) == _ref_sub(f, g).is_zero()


@pytest.mark.parametrize("param", PARAMS)
def test_cancelling_monomials_give_the_shared_zero(param):
    f = CoeffFn.monomial(1 + SQRT2, -3, param)
    g = CoeffFn.monomial(-1 - SQRT2, -3, param)
    assert f - f is CoeffFn.zero(param) and f + g is CoeffFn.zero(param)
    # two exponents: the two-entry dict of the general loop, in its order
    h = CoeffFn.monomial(QScalar(Fraction(2, 3)), 2, param)
    assert list((f + h).terms.items()) == [(-3, 1 + SQRT2), (2, QScalar(Fraction(2, 3)))]
    assert list((h - f).terms.items()) == [(2, QScalar(Fraction(2, 3))), (-3, -1 - SQRT2)]
    assert (f * h).terms == {-1: (1 + SQRT2) * Fraction(2, 3)} and (f * h).param == param


@st.composite
def zero_operand_pairs(draw):
    """(zero, f): a zero CoeffFn, 0, Fraction(0) or a zero QScalar, and an
    operand f of the zero's parameterization."""
    param = draw(st.sampled_from(PARAMS))
    zero = draw(st.sampled_from([CoeffFn.zero(param), 0, Fraction(0), QScalar.zero()]))
    return zero, draw(laurent_operands(param))


@given(zero_operand_pairs())
@settings(max_examples=200)
def test_a_zero_operand_makes_no_field_op(pair):
    # a sum returns f, a product the shared zero, 0 - f the negation of f
    zero, f = pair
    ops = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            def counted(x, y, op=getattr(QScalar, name), name=name):
                out = op(x, y)
                if out is not NotImplemented:
                    ops.append(name)
                return out

            mp.setattr(QScalar, name, counted)
        sums = [zero + f, f + zero, f - zero]
        negated = zero - f
        products = [zero * f, f * zero]
    assert ops == []
    assert all(g is f for g in sums)
    assert all(g is CoeffFn.zero(f.param) for g in products)
    _assert_same(negated, _ref_neg(f))
