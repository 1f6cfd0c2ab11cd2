"""Exact arithmetic in the real field Q(sqrt2, sqrt5).

Every constant appearing in the structure tables, connection forms and
tensor displays handled by this package lies in the degree-4 extension
Q(sqrt2, sqrt5) = Q + Q*sqrt2 + Q*sqrt5 + Q*sqrt10.  Elements are stored
on that basis with Fraction coordinates, so equality and the zero test
are exact and signs are decidable.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Rat = Union[int, Fraction]


class DegenerateError(ZeroDivisionError):
    """Division by zero in the scalar field; signals degenerate geometric input."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _FZERO
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


_FZERO = Fraction(0)


def _q(a: Fraction, b: Fraction = _FZERO, c: Fraction = _FZERO,
       d: Fraction = _FZERO) -> "QScalar":
    """QScalar from coordinates that are already Fractions (no coercion)."""
    q = object.__new__(QScalar)
    q.a = a
    q.b = b
    q.c = c
    q.d = d
    return q


class QScalar:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d.

    Sums and products with a rational operand (b = c = d = 0), including
    int and Fraction operands, skip the four-coordinate formulas.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "QScalar":
        if isinstance(x, QScalar):
            return x
        return _q(_frac(x))

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
    #
    # Every coordinate is a Fraction and Fraction arithmetic returns
    # Fractions, so results are built with _q.  A rational operand r
    # changes only the a coordinate of a sum and scales all four
    # coordinates of a product.

    def __add__(self, other) -> "QScalar":
        if isinstance(other, QScalar):
            if not (other.b or other.c or other.d):
                return _q(self.a + other.a, self.b, self.c, self.d)
            if not (self.b or self.c or self.d):
                return _q(self.a + other.a, other.b, other.c, other.d)
            return _q(self.a + other.a, self.b + other.b,
                      self.c + other.c, self.d + other.d)
        if isinstance(other, (int, Fraction)):
            return _q(self.a + other, self.b, self.c, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        b, c, d = self.b, self.c, self.d
        return _q(-self.a, -b if b else b, -c if c else c, -d if d else d)

    def __sub__(self, other) -> "QScalar":
        if isinstance(other, QScalar):
            if not (other.b or other.c or other.d):
                return _q(self.a - other.a, self.b, self.c, self.d)
            return _q(self.a - other.a, self.b - other.b,
                      self.c - other.c, self.d - other.d)
        if isinstance(other, (int, Fraction)):
            return _q(self.a - other, self.b, self.c, self.d)
        return NotImplemented

    def __rsub__(self, other) -> "QScalar":
        if isinstance(other, (QScalar, int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other) -> "QScalar":
        if isinstance(other, QScalar):
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            if not (b2 or c2 or d2):
                return self._scale(a2)
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            if not (b1 or c1 or d1):
                return other._scale(a1)
            return _q(
                a1 * a2 + b1 * b2 * 2 + c1 * c2 * 5 + d1 * d2 * 10,
                a1 * b2 + b1 * a2 + (c1 * d2 + d1 * c2) * 5,
                a1 * c2 + c1 * a2 + (b1 * d2 + d1 * b2) * 2,
                a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            )
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _scale(self, r: Rat) -> "QScalar":
        """self * r for a rational r."""
        if not r:
            return _ZERO
        b, c, d = self.b, self.c, self.d
        if not (b or c or d):
            a = self.a
            return _q(a * r) if a else _ZERO
        return _q(self.a * r, b * r, c * r, d * r)

    def conj2(self) -> "QScalar":
        """Galois conjugate sending sqrt2 -> -sqrt2."""
        return _q(self.a, -self.b, self.c, -self.d)

    def conj5(self) -> "QScalar":
        """Galois conjugate sending sqrt5 -> -sqrt5."""
        return _q(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "QScalar":
        if self.is_zero():
            raise DegenerateError("inverse of zero in Q(sqrt2,sqrt5)")
        if self.is_rational():
            return _q(1 / self.a)
        # multiply through by the three nontrivial Galois conjugates;
        # the product of all four lies in Q
        p = self.conj2() * self.conj5() * self.conj2().conj5()
        norm = (self * p).a
        return _q(p.a / norm, p.b / norm, p.c / norm, p.d / norm)

    def __truediv__(self, other) -> "QScalar":
        return self * QScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "QScalar":
        return QScalar.of(other) * self.inverse()

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and order ----------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def __eq__(self, other) -> bool:
        # the basis representation is unique: compare coordinates
        if isinstance(other, QScalar):
            return (self.a == other.a and self.b == other.b
                    and self.c == other.c and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return self.a == other and not (self.b or self.c or self.d)
        return NotImplemented

    def __hash__(self):
        # a rational value hashes like its Fraction, as __eq__ requires
        if not (self.b or self.c or self.d):
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        The basis representation is unique, so zero is decided exactly;
        nonzero values get adaptive rational interval bounds on the surds
        until zero is excluded.
        """
        if self.is_zero():
            return 0
        prec = 30
        while True:
            lo, hi = self._bounds(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _bounds(self, digits: int):
        scale = 10 ** digits
        lo = hi = self.a
        for coeff, n in ((self.b, 2), (self.c, 5), (self.d, 10)):
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
        u, v = _q(self.a, self.b), _q(self.c, self.d)
        for p, q in _denest(u, v, 5, _sqrt_q2):
            r = _q(p.a, p.b, q.a, q.b)
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
        try:
            return QScalar(*[Fraction(p) for p in parts])
        except ZeroDivisionError:
            raise ValueError(f"rational strings {list(parts)} have a zero denominator") from None

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for coeff, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r5"), (self.d, "*r10")):
            if coeff:
                bits.append(f"{coeff}{tag}")
        return " + ".join(bits).replace("+ -", "- ")


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
        r = _q(p, q)
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


def rational(p, q=1) -> QScalar:
    return QScalar(Fraction(p, q))
