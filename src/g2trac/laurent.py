"""Laurent polynomials in a collar parameter s over Q(sqrt2, sqrt5).

Geometric coefficients in this package depend on a single transverse
function rho.  Three parameterizations of the same ring are supported,
recorded in a marker on each element:

    PLAIN      rho = s          (polynomial data directly in rho)
    RHO_PLUS   rho = +s^2       (so (+rho)^(1/2) = s exactly)
    RHO_MINUS  rho = -s^2       (so (-rho)^(1/2) = s exactly)

The quadratic markers exist so that the half-integer powers of rho that
appear in the open-orbit structures are honest Laurent monomials in s.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Optional

from .scalars import DegenerateError, QScalar

PLAIN = "plain"
RHO_PLUS = "rho+"
RHO_MINUS = "rho-"

_MARKERS = (PLAIN, RHO_PLUS, RHO_MINUS)


def _cf(terms: Dict[int, QScalar], param: str) -> "CoeffFn":
    """CoeffFn from nonzero QScalar coefficients with int keys (no coercion)."""
    f = object.__new__(CoeffFn)
    f.terms = terms
    f.param = param
    return f


class CoeffFn:
    """Finite QScalar-combination of integer powers of s (negatives allowed)."""

    __slots__ = ("terms", "param")

    def __init__(self, terms: Optional[Dict[int, QScalar]] = None, param: str = PLAIN):
        if param not in _MARKERS:
            raise ValueError(f"unknown parameterization {param!r}")
        self.param = param
        self.terms: Dict[int, QScalar] = {}
        if terms:
            for e, c in terms.items():
                c = QScalar.of(c)
                if not c.is_zero():
                    self.terms[int(e)] = c

    # -- constructors --------------------------------------------------

    @staticmethod
    def of(x, param: str = PLAIN) -> "CoeffFn":
        if isinstance(x, CoeffFn):
            return x
        return CoeffFn({0: QScalar.of(x)}, param)

    @staticmethod
    def zero(param: str = PLAIN) -> "CoeffFn":
        try:
            return _ZEROS[param]
        except KeyError:
            raise ValueError(f"unknown parameterization {param!r}") from None

    @staticmethod
    def one(param: str = PLAIN) -> "CoeffFn":
        return CoeffFn({0: QScalar.one()}, param)

    @staticmethod
    def s(param: str = PLAIN) -> "CoeffFn":
        return CoeffFn({1: QScalar.one()}, param)

    @staticmethod
    def monomial(coeff, exp: int, param: str = PLAIN) -> "CoeffFn":
        return CoeffFn({exp: QScalar.of(coeff)}, param)

    @staticmethod
    def rho(param: str = PLAIN) -> "CoeffFn":
        """The function rho expressed in the marker's s-variable: s, s^2 or
        -s^2, one shared immutable element per parameterization."""
        try:
            return _RHOS[param]
        except KeyError:
            raise ValueError(f"unknown parameterization {param!r}") from None

    # -- bookkeeping -----------------------------------------------------

    def _join(self, other) -> "CoeffFn":
        if isinstance(other, CoeffFn):
            if other.param == self.param:
                return other
            # constants are parameterization-agnostic
            if other.terms.keys() <= {0}:
                return _cf(other.terms, self.param)
            raise ValueError(f"parameterization mismatch {self.param!r} vs {other.param!r}")
        c = QScalar.of(other)
        return _cf({0: c} if c else {}, self.param)

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """The units of the Laurent ring are its monomials c s^e, c != 0."""
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> QScalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in s")
        return self.terms.get(0, QScalar.zero())

    def min_exp(self) -> int:
        if not self.terms:
            return 0
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms)

    def coeff(self, e: int) -> QScalar:
        return self.terms.get(e, QScalar.zero())

    # -- ring ops ----------------------------------------------------------
    #
    # A zero operand returns at once, once the parameterizations agree:
    # x + 0, 0 + x and x - 0 give x, 0 - x gives -x and a product the
    # zero operand (one shared zero per parameterization), with no QScalar
    # op.  Nothing mutates .terms after construction, so an operand may
    # be returned as the result.  A constant operand scales: no
    # coefficient is stored as zero, and a product of nonzero field
    # elements is nonzero, so the results are built with _cf.
    #
    # Two monomials c s^e (the collar's data are weighted homogeneous, so
    # nearly every operand is one) take one QScalar op and build one dict
    # entry, or two when the exponents differ; the general loop handles
    # operands of two or more terms.  An operand of the same parameterization
    # skips the coercion of _join.

    def __add__(self, other) -> "CoeffFn":
        o = other
        if o.__class__ is not CoeffFn or o.param != self.param:
            o = self._join(o)
        st, ot = self.terms, o.terms
        if not ot:
            return self
        if not st:
            return o
        if len(st) == 1 and len(ot) == 1:
            e1, = st
            e2, = ot
            c1, c2 = st[e1], ot[e2]
            if e1 != e2:
                return _cf({e1: c1, e2: c2}, self.param)
            c = c1 + c2
            return _cf({e1: c}, self.param) if c else _ZEROS[self.param]
        out = dict(st)
        for e, c in ot.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _cf(out, self.param)

    __radd__ = __add__

    def __neg__(self) -> "CoeffFn":
        if not self.terms:
            return self
        return _cf({e: -c for e, c in self.terms.items()}, self.param)

    def __sub__(self, other) -> "CoeffFn":
        o = other
        if o.__class__ is not CoeffFn or o.param != self.param:
            o = self._join(o)
        st, ot = self.terms, o.terms
        if not ot:
            return self
        if not st:
            return -o
        if len(st) == 1 and len(ot) == 1:
            e1, = st
            e2, = ot
            c1, c2 = st[e1], ot[e2]
            if e1 != e2:
                return _cf({e1: c1, e2: -c2}, self.param)
            c = c1 - c2
            return _cf({e1: c}, self.param) if c else _ZEROS[self.param]
        out = dict(st)
        for e, c in ot.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _cf(out, self.param)

    def __rsub__(self, other) -> "CoeffFn":
        return self._join(other) - self

    def __mul__(self, other) -> "CoeffFn":
        if other.__class__ is not CoeffFn:
            return self._scale(QScalar.of(other))
        o = other if other.param == self.param else self._join(other)
        st, ot = self.terms, o.terms
        if not st:
            return self
        if not ot:
            return o
        if len(st) == 1 and len(ot) == 1:
            e1, = st
            e2, = ot
            c1, c2 = st[e1], ot[e2]
            return _cf({e1 + e2: c1 * c2}, self.param)
        if ot.keys() == {0}:
            return self._scale(ot[0])
        if st.keys() == {0}:
            return o._scale(st[0])
        out: Dict[int, QScalar] = {}
        for e1, c1 in st.items():
            for e2, c2 in ot.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _cf(out, self.param)

    __rmul__ = __mul__

    def _scale(self, c: QScalar) -> "CoeffFn":
        """self * c for a field element c."""
        if not self.terms:
            return self
        if c.is_zero():
            return _ZEROS[self.param]
        return _cf({e: x * c for e, x in self.terms.items()}, self.param)

    def __eq__(self, other) -> bool:
        # like QScalar: an operand outside the ring is not equal, not an error
        if other.__class__ is CoeffFn and other.param == self.param:
            # no zero coefficient is stored and QScalar's form is unique
            return self.terms == other.terms
        if not isinstance(other, (CoeffFn, QScalar, int, Fraction)):
            return NotImplemented
        try:
            return (self - other).is_zero()
        except ValueError:
            return NotImplemented

    def __hash__(self):
        # a constant equals its QScalar value in every parameterization
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, QScalar.zero()))
        return hash((self.param, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def inverse(self) -> "CoeffFn":
        if len(self.terms) != 1:
            if not self.terms:
                raise DegenerateError("inverse of zero coefficient function")
            raise ValueError("only monomials are invertible in the Laurent ring")
        (e, c), = self.terms.items()
        return _cf({-e: c.inverse()}, self.param)

    def cbrt(self) -> "CoeffFn":
        """Exact cube root c^(1/3) s^(e/3) of a monomial c s^e.

        ValueError when self is not a monomial, when 3 does not divide e,
        or when c^(1/3) is not in Q(sqrt2, sqrt5)."""
        if len(self.terms) != 1:
            raise ValueError("cube root only for Laurent monomials")
        (e, c), = self.terms.items()
        if e % 3:
            raise ValueError("cube root exponent not divisible by 3")
        return _cf({e // 3: c.cbrt()}, self.param)

    def __truediv__(self, other) -> "CoeffFn":
        o = self._join(other)
        if len(o.terms) == 1:
            return self * o.inverse()
        q, r = self.divmod(o)
        if not r.is_zero():
            raise ValueError("inexact Laurent division")
        return q

    def divmod(self, other):
        """Laurent long division from the top term: self = q*other + r.

        For an exact quotient the r returned is zero; otherwise division
        stops once the candidate quotient exponent drops below the range
        an exact quotient could occupy.
        """
        o = self._join(other)
        if o.is_zero():
            raise DegenerateError("division by zero coefficient function")
        lead_e = o.max_exp()
        lead_inv = o.coeff(lead_e).inverse()
        q = CoeffFn.zero(self.param)
        rem = self
        if rem.is_zero():
            return q, rem
        floor_exp = self.min_exp() - o.min_exp()
        while not rem.is_zero():
            qe = rem.max_exp() - lead_e
            if qe < floor_exp:
                break
            t = _cf({qe: rem.coeff(rem.max_exp()) * lead_inv}, self.param)
            q = q + t
            rem = rem - t * o
        return q, rem

    # -- calculus ----------------------------------------------------------

    def d_ds(self) -> "CoeffFn":
        out = {}
        for e, c in self.terms.items():
            if e != 0:
                out[e - 1] = c * e
        return _cf(out, self.param)

    def d_drho(self) -> "CoeffFn":
        """Derivative with respect to rho in the active parameterization."""
        if self.param == PLAIN:
            return self.d_ds()
        out = {}
        sign = 1 if self.param == RHO_PLUS else -1
        for e, c in self.terms.items():
            if e != 0:
                # d/drho = (sign/(2s)) d/ds
                out[e - 2] = c * Fraction(e * sign, 2)
        return _cf(out, self.param)

    # -- evaluation / conversion -------------------------------------------

    def eval(self, s_value) -> QScalar:
        s_value = QScalar.of(s_value)
        out = QScalar.zero()
        for e, c in self.terms.items():
            out = out + c * (s_value ** e)
        return out

    def substitute_rho(self, param: str) -> "CoeffFn":
        """Reinterpret a PLAIN (polynomial-in-rho) element in an s^2 chart."""
        if self.param != PLAIN:
            raise ValueError("substitute_rho expects a PLAIN element")
        if param == PLAIN:
            return self
        sign = 1 if param == RHO_PLUS else -1
        out: Dict[int, QScalar] = {}
        for e, c in self.terms.items():
            out[2 * e] = c if (sign == 1 or e % 2 == 0) else -c
        return _cf(out, param)

    def __float__(self):
        raise TypeError("evaluate CoeffFn at an explicit point instead of coercing")

    def __repr__(self):
        if not self.terms:
            return "0"
        var = "rho" if self.param == PLAIN else "s"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(f"({c})")
            else:
                bits.append(f"({c})*{var}^{e}")
        return " + ".join(bits)


# one zero and one rho per parameterization, shared by every
# CoeffFn.zero(param) and CoeffFn.rho(param)
_ZEROS = {p: _cf(MappingProxyType({}), p) for p in _MARKERS}
_RHOS = {p: _cf(MappingProxyType(t), p) for p, t in (
    (PLAIN, {1: QScalar.one()}), (RHO_PLUS, {2: QScalar.one()}), (RHO_MINUS, {2: QScalar(-1)}))}
