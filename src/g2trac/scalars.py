"""Exact arithmetic in the real field Q(sqrt2, sqrt5).

Every constant appearing in the structure tables, connection forms and
tensor displays handled by this package lies in the degree-4 extension
Q(sqrt2, sqrt5) = Q + Q*sqrt2 + Q*sqrt5 + Q*sqrt10.  Elements are stored
on that basis as four integer numerators over one shared denominator,
so equality and the zero test are exact and signs are decidable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

Rat = Union[int, Fraction]


# Largest |exponent| parse_monge_polynomial accepts, and the largest
# |decimal exponent| parse_rational accepts.  monge_check evaluates at
# y = 2 and at p = 3, so an exponent e costs an e-bit integer:
# y^100000000000 does not fit in memory.  Fraction expands a decimal
# exponent e into an e-digit integer: 1e10000000 takes minutes.
MAX_EXPONENT = 1000

_DECIMAL_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)\s*$")


def parse_rational(text: str) -> Fraction:
    """Fraction(text) for the rationals read from the command line, from
    tensor files and as the coefficients of a Monge polynomial.  A decimal
    exponent beyond MAX_EXPONENT in absolute value, or text Fraction does
    not read, raises ValueError."""
    exp = _DECIMAL_EXPONENT.search(text)
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"{text.strip()!r} has a decimal exponent beyond {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{text.strip()!r} is not a rational number") from exc


class DegenerateError(ZeroDivisionError):
    """Division by zero in the scalar field; signals degenerate geometric input."""


def _ratio(x):
    """Numerator and denominator of an int, Fraction or rational string."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot coerce {type(x).__name__} to a rational")
    return x.numerator, x.denominator


def _ints(x):
    """The reduced int tuple of a QScalar, int or Fraction; None otherwise."""
    if isinstance(x, QScalar):
        return x._v
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, 0, 0, x.denominator
    return None


def _tuple(v) -> "QScalar":
    """The QScalar whose int tuple is v, already in lowest terms."""
    q = object.__new__(QScalar)
    q._v = v
    return q


def _reduced(a: int, b: int, c: int, d: int, n: int) -> "QScalar":
    """(a + b*sqrt2 + c*sqrt5 + d*sqrt10) / n for n > 0, in lowest terms."""
    g = gcd(a, b, c, d, n)
    q = object.__new__(QScalar)
    q._v = (a // g, b // g, c // g, d // g, n // g)
    return q


def _rational(a: int, n: int) -> "QScalar":
    """a / n for n > 0, in lowest terms: _reduced with b = c = d = 0."""
    g = gcd(a, n)
    q = object.__new__(QScalar)
    q._v = (a // g, 0, 0, 0, n // g)
    return q


class QScalar:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d.

    Stored as the int tuple _v = (A, B, C, D, n) with a = A/n, ..., n > 0
    and gcd(A, B, C, D, n) = 1.  That form is unique, so equality compares
    tuples; a, b, c and d are read-only Fraction views of it.
    """

    __slots__ = ("_v",)

    a = property(lambda self: Fraction(self._v[0], self._v[4]))
    b = property(lambda self: Fraction(self._v[1], self._v[4]))
    c = property(lambda self: Fraction(self._v[2], self._v[4]))
    d = property(lambda self: Fraction(self._v[3], self._v[4]))

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        (na, da), (nb, db), (nc, dc), (nd, dd) = _ratio(a), _ratio(b), _ratio(c), _ratio(d)
        # reduced denominators over their lcm leave the tuple in lowest terms
        n = lcm(da, db, dc, dd)
        self._v = (na * (n // da), nb * (n // db), nc * (n // dc), nd * (n // dd), n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "QScalar":
        if isinstance(x, QScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _tuple((x.numerator, 0, 0, 0, x.denominator))
        return QScalar(x)

    @staticmethod
    def zero() -> "QScalar":
        return _ZERO

    @staticmethod
    def one() -> "QScalar":
        return _ONE

    @staticmethod
    def sqrt2() -> "QScalar":
        return QScalar(0, 1)

    @staticmethod
    def sqrt5() -> "QScalar":
        return QScalar(0, 0, 1)

    @staticmethod
    def sqrt10() -> "QScalar":
        return QScalar(0, 0, 0, 1)

    # -- ring structure ----------------------------------------------
    # A zero operand is rational, so the rational tests find it: 0 + x and
    # x - 0 return the other operand, 0 - x its negation and 0 * x the
    # shared zero, with no arithmetic and no gcd.  Both operands rational
    # (b = c = d = 0): one cross sum or one product over one denominator,
    # and a 2-way gcd.

    def __add__(self, other) -> "QScalar":
        o = _ints(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1, n1 = self._v
        a2, b2, c2, d2, n2 = o
        if not (b1 or c1 or d1):
            if not (b2 or c2 or d2):
                if a1 and a2:
                    return _rational(a1 * n2 + a2 * n1, n1 * n2)
                return _tuple(o) if a2 else self
            if not a1:
                return other
        elif not (a2 or b2 or c2 or d2):
            return self
        return _reduced(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                        c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        # negation keeps the tuple in lowest terms: no gcd
        a, b, c, d, n = self._v
        q = object.__new__(QScalar)
        q._v = (-a, -b, -c, -d, n)
        return q

    def __sub__(self, other) -> "QScalar":
        o = _ints(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1, n1 = self._v
        a2, b2, c2, d2, n2 = o
        if not (b1 or c1 or d1):
            if not (b2 or c2 or d2):
                if a1 and a2:
                    return _rational(a1 * n2 - a2 * n1, n1 * n2)
                return _tuple((-a2, 0, 0, 0, n2)) if a2 else self
            if not a1:
                return _tuple((-a2, -b2, -c2, -d2, n2))
        elif not (a2 or b2 or c2 or d2):
            return self
        return _reduced(a1 * n2 - a2 * n1, b1 * n2 - b2 * n1,
                        c1 * n2 - c2 * n1, d1 * n2 - d2 * n1, n1 * n2)

    def __rsub__(self, other) -> "QScalar":
        return NotImplemented if _ints(other) is None else -self + other

    def __mul__(self, other) -> "QScalar":
        o = _ints(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1, n1 = self._v
        a2, b2, c2, d2, n2 = o
        if not (b1 or c1 or d1):
            if not (b2 or c2 or d2):
                p = a1 * a2
                return _rational(p, n1 * n2) if p else _ZERO
            if not a1:
                return _ZERO
        elif not (a2 or b2 or c2 or d2):
            return _ZERO
        return _reduced(
            a1 * a2 + b1 * b2 * 2 + c1 * c2 * 5 + d1 * d2 * 10,
            a1 * b2 + b1 * a2 + (c1 * d2 + d1 * c2) * 5,
            a1 * c2 + c1 * a2 + (b1 * d2 + d1 * b2) * 2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            n1 * n2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        # u = a + b r2 + c r5 + d r10 times its conjugate u2 under r2 -> -r2
        # is e + f r5, and that times e - f r5 is the integer norm:
        # 1/u = u2 (e - f r5) / norm
        a, b, c, d, n = self._v
        e = a * a - 2 * b * b + 5 * c * c - 10 * d * d
        f = 2 * (a * c - 2 * b * d)
        norm = e * e - 5 * f * f
        if not norm:
            raise DegenerateError("inverse of zero in Q(sqrt2,sqrt5)")
        if norm < 0:
            norm, n = -norm, -n
        return _reduced(n * (a * e - 5 * c * f), n * (5 * d * f - b * e),
                        n * (c * e - a * f), n * (b * f - d * e), norm)

    def __truediv__(self, other) -> "QScalar":
        return self * QScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "QScalar":
        return QScalar.of(other) * self.inverse()

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base   # only while a higher bit is left to use it

    # -- predicates and order ----------------------------------------

    def is_zero(self) -> bool:
        return self._v == (0, 0, 0, 0, 1)

    def is_unit(self) -> bool:
        """Every nonzero element of the field is a unit."""
        return self._v != (0, 0, 0, 0, 1)

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._v
        return not (b or c or d)

    def bit_length(self) -> int:
        """Bits of the largest integer of the reduced form: a size bound."""
        return max(abs(i).bit_length() for i in self._v)

    def __eq__(self, other) -> bool:
        o = _ints(other)
        if o is None:
            return NotImplemented
        return self._v == o

    def __hash__(self):
        # a rational value hashes like its Fraction, as __eq__ requires
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return self._v != (0, 0, 0, 0, 1)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, by squaring.

        With x = A + B sqrt2 and y = C + D sqrt2 the value is (x + y sqrt5)/n,
        n > 0.  Where x and y differ in sign it has the sign of x times that
        of x^2 - 5 y^2, an element of Z[sqrt2], whose sign _sign2 decides
        the same way.
        """
        A, B, C, D, _ = self._v
        sx, sy = _sign2(A, B), _sign2(C, D)
        if sx * sy >= 0:
            return sx or sy
        return sx * _sign2(A * A + 2 * B * B - 5 * C * C - 10 * D * D, 2 * A * B - 10 * C * D)

    def __lt__(self, other):
        return (self - QScalar.of(other)).sign() < 0

    def __le__(self, other):
        return (self - QScalar.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QScalar.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - QScalar.of(other)).sign() >= 0

    # -- roots ---------------------------------------------------------

    def sqrt(self) -> "QScalar":
        """Exact nonnegative square root.

        Writes self = u + v*sqrt5 with u, v in Q(sqrt2) and denests twice,
        through Q(sqrt2) and then Q (see _denest).  A root is returned only
        once r*r == self holds exactly; ValueError when the square root
        does not lie in the field.
        """
        if self.sign() < 0:
            raise ValueError("square root of a negative value")
        if self.is_zero():
            return _ZERO
        u, v = QScalar(self.a, self.b), QScalar(self.c, self.d)
        for p, q in _denest(u, v, 5, _sqrt_q2):
            r = QScalar(p.a, p.b, q.a, q.b)
            if r * r == self:
                return r if r.sign() >= 0 else -r
        raise ValueError(f"square root of {self} not in Q(sqrt2,sqrt5)")

    def cbrt(self) -> "QScalar":
        """Exact cube root for monomial elements r, r*sqrt2, r*sqrt5, r*sqrt10."""
        if self.is_zero():
            return _ZERO
        nz = [(self.a, QScalar(1), 1), (self.b, QScalar.sqrt2(), 2),
              (self.c, QScalar.sqrt5(), 5), (self.d, QScalar.sqrt10(), 10)]
        nz = [(v, u, n) for v, u, n in nz if v != 0]
        if len(nz) == 1:
            v, unit, n = nz[0]
            # (t*sqrtn)^3 = t^3 * n * sqrtn
            r = _rat_cbrt(Fraction(v, n) if n > 1 else v)
            if r is not None:
                return QScalar(r) * unit
        raise ValueError(f"cube root of {self} not in Q(sqrt2,sqrt5)")

    # -- conversion ----------------------------------------------------

    def __float__(self) -> float:
        return (float(self.a) + float(self.b) * 2 ** 0.5
                + float(self.c) * 5 ** 0.5 + float(self.d) * 10 ** 0.5)

    def as_strings(self):
        return [str(self.a), str(self.b), str(self.c), str(self.d)]

    @staticmethod
    def from_strings(parts) -> "QScalar":
        if len(parts) != 4:
            raise ValueError("expected four rational strings")
        for p in parts:
            if not isinstance(p, str):
                raise ValueError(f"coefficient part {p!r} is not a rational string")
        return QScalar(*map(parse_rational, parts))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for coeff, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r5"), (self.d, "*r10")):
            if coeff:
                bits.append(f"{coeff}{tag}")
        return " + ".join(bits).replace("+ -", "- ")


def _sign2(p: int, q: int) -> int:
    """Sign of p + q sqrt2: the common sign of p and q, else that of p
    times that of p^2 - 2 q^2 (never 0: sqrt2 is irrational)."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > 2 * q * q else -sp


def _rat_sqrt(x: Fraction):
    if x < 0:
        return None
    x = Fraction(x)
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _denest(u, v, k: int, root):
    """Candidate square roots p + q*sqrt(k) of u + v*sqrt(k).

    u, v, p, q lie in a base field whose square roots root() returns (or
    None).  (p + q sqrt k)^2 = u + v sqrt k means p^2 + k q^2 = u and
    2pq = v, so with n^2 = u^2 - k v^2 the root has p^2 = (u + n)/2 and
    k q^2 = (u - n)/2; both signs of n are tried.
    """
    n = root(u * u - v * v * k)
    if n is None:
        return []
    out = []
    for m in (n, -n):
        p = root((u + m) / 2)
        if p is None:
            continue
        q = v / (2 * p) if p else root((u - m) / (2 * k))
        if q is not None:
            out.append((p, q))
    return out


def _sqrt_q2(y: "QScalar"):
    """A square root of y = a + b*sqrt2 inside Q(sqrt2), or None."""
    for p, q in _denest(y.a, y.b, 2, _rat_sqrt):
        r = QScalar(p, q)
        if r * r == y:
            return r
    return None


def _icbrt(n: int):
    """The integer cube root of n, or None when n is not a cube."""
    if n < 0:
        r = _icbrt(-n)
        return None if r is None else -r
    if n < 2:
        return n
    # integer Newton from above; it decreases to floor(cbrt(n))
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x if x ** 3 == n else None


def _rat_cbrt(x: Fraction):
    x = Fraction(x)
    pn, pd = _icbrt(x.numerator), _icbrt(x.denominator)
    if pn is not None and pd is not None:
        return Fraction(pn, pd)
    return None


_ZERO = QScalar(0)
_ONE = QScalar(1)

SQRT2 = QScalar.sqrt2()
SQRT5 = QScalar.sqrt5()
SQRT10 = QScalar.sqrt10()
