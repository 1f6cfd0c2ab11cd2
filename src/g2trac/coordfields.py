"""Exact polynomial vector fields on the jet coordinates (x, y, p, q, z).

Supports the Monge-form distribution analysis and the symmetry-field
bookkeeping.  Monomials carry integer exponents in x, y, p, z and a
rational exponent in q (so powers q^m with a fixed rational m stay
exact); differentiation and Lie brackets are closed on this class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .scalars import MAX_EXPONENT, QScalar, parse_rational

VARS = ("x", "y", "p", "q", "z")
Key = Tuple[int, int, int, Fraction, int]


class CoordPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Key, QScalar]] = None):
        self.terms: Dict[Key, QScalar] = {}
        if terms:
            for k, v in terms.items():
                v = QScalar.of(v)
                if not v.is_zero():
                    kk = (int(k[0]), int(k[1]), int(k[2]), Fraction(k[3]), int(k[4]))
                    self.terms[kk] = v

    @staticmethod
    def const(c) -> "CoordPoly":
        return CoordPoly({(0, 0, 0, Fraction(0), 0): QScalar.of(c)})

    @staticmethod
    def var(name: str, power=1) -> "CoordPoly":
        if name not in VARS:
            raise ValueError(f"unknown coordinate {name!r}")
        key = [0, 0, 0, Fraction(0), 0]
        idx = VARS.index(name)
        e = Fraction(power)
        if name != "q" and e.denominator != 1:
            raise ValueError(f"{name}^{e}: only q takes non-integer powers")
        key[idx] = e if name == "q" else int(e)
        return CoordPoly({tuple(key): QScalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "CoordPoly") -> "CoordPoly":
        out = dict(self.terms)
        for k, v in o.terms.items():
            s = out.get(k, QScalar.zero()) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return CoordPoly(out)

    def __neg__(self) -> "CoordPoly":
        return CoordPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, o: "CoordPoly") -> "CoordPoly":
        return self + (-o)

    def __mul__(self, o) -> "CoordPoly":
        if isinstance(o, (QScalar, int, Fraction)):
            c = QScalar.of(o)
            return CoordPoly({k: v * c for k, v in self.terms.items()})
        out: Dict[Key, QScalar] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in o.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2],
                     k1[3] + k2[3], k1[4] + k2[4])
                s = out.get(k, QScalar.zero()) + v1 * v2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return CoordPoly(out)

    __rmul__ = __mul__

    def diff(self, name: str) -> "CoordPoly":
        idx = VARS.index(name)
        out: Dict[Key, QScalar] = {}
        for k, v in self.terms.items():
            e = k[idx]
            if e == 0:
                continue
            nk = list(k)
            nk[idx] = e - 1
            key = tuple(nk)
            s = out.get(key, QScalar.zero()) + v * QScalar(Fraction(e))
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return CoordPoly(out)

    def eval(self, point: Dict[str, QScalar]) -> QScalar:
        """Exact evaluation; rational q-exponents need a point with q = r^k
        compatible with the exponents present (q > 0 sample points are
        chosen so that q-powers stay in the field, e.g. q = 1)."""
        out = QScalar.zero()
        for k, v in self.terms.items():
            term = v
            for idx, name in enumerate(VARS):
                e = k[idx]
                if e == 0:
                    continue
                base = QScalar.of(point[name])
                if name == "q":
                    e = Fraction(e)
                    if e.denominator == 1:
                        term = term * base ** int(e)
                    elif base == QScalar.one():
                        pass
                    else:
                        raise ValueError(
                            "fractional q-exponent requires sample point q = 1")
                else:
                    term = term * base ** int(e)
            out = out + term
        return out

    def __repr__(self):
        bits = []
        for k, v in sorted(self.terms.items(), key=str):
            mono = "".join(f"{n}^{e}" for n, e in zip(VARS, k) if e != 0)
            bits.append(f"({v}){mono}")
        return " + ".join(bits) if bits else "0"


class CoordField:
    """Vector field sum_i comp[i] d/d(coordinate i)."""

    __slots__ = ("comps",)

    def __init__(self, comps: Optional[Dict[str, CoordPoly]] = None):
        self.comps: Dict[str, CoordPoly] = {}
        for name, p in (comps or {}).items():
            if name not in VARS:
                raise ValueError(f"unknown coordinate {name!r}")
            if not p.is_zero():
                self.comps[name] = p

    def comp(self, name: str) -> CoordPoly:
        return self.comps.get(name, CoordPoly())

    def __add__(self, o: "CoordField") -> "CoordField":
        return CoordField({n: self.comp(n) + o.comp(n) for n in VARS})

    def __sub__(self, o: "CoordField") -> "CoordField":
        return CoordField({n: self.comp(n) - o.comp(n) for n in VARS})

    def scale(self, c) -> "CoordField":
        return CoordField({n: p * c for n, p in self.comps.items()})

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps.values())

    def apply(self, f: CoordPoly) -> CoordPoly:
        out = CoordPoly()
        for name, p in self.comps.items():
            out = out + p * f.diff(name)
        return out

    def bracket(self, o: "CoordField") -> "CoordField":
        out = {}
        for name in VARS:
            out[name] = self.apply(o.comp(name)) - o.apply(self.comp(name))
        return CoordField(out)

    def eval(self, point: Dict[str, QScalar]) -> List[QScalar]:
        return [self.comp(n).eval(point) for n in VARS]

    def __repr__(self):
        bits = [f"({p}) d/d{n}" for n, p in self.comps.items() if not p.is_zero()]
        return " + ".join(bits) if bits else "0"


def monge_fields(F: CoordPoly) -> Tuple[CoordField, CoordField]:
    """Spanning fields of ker{dy - p dx, dp - q dx, dz - F dx}."""
    one = CoordPoly.const(1)
    V1 = CoordField({"q": one})
    V2 = CoordField({"x": one, "y": CoordPoly.var("p"), "p": CoordPoly.var("q"), "z": F})
    return V1, V2


def parse_monge_polynomial(text: str) -> CoordPoly:
    """Tiny parser for expressions like 'q^2 + 3*p^3 - z' (rational
    coefficients, coordinates x, y, p, q, z; integer powers, and rational
    ones of q, at most MAX_EXPONENT in absolute value).  Terms are
    joined by single signs, with one optional sign in front; a sign right
    after ^ belongs to the exponent, as in 'q^-1', and one right after e
    or E to a decimal exponent, as in '5e-3*q^2'.  An empty term or
    factor, or a larger exponent, raises ValueError."""
    parts = re.split(r"(?<![\^eE])([+-])", text.replace(" ", ""))
    parts = parts[1:] if len(parts) > 1 and not parts[0] else ["+"] + parts
    out = CoordPoly()
    for sign, chunk in zip(parts[::2], parts[1::2]):
        if not chunk:
            raise ValueError("empty term")
        coeff = Fraction(1 if sign == "+" else -1)
        mono = CoordPoly.const(1)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor[0].isalpha():
                if "^" in factor:
                    name, power = factor.split("^")
                    e = parse_rational(power)
                    if abs(e) > MAX_EXPONENT:
                        raise ValueError(f"exponent {power} exceeds {MAX_EXPONENT}")
                    mono = mono * CoordPoly.var(name, e)
                else:
                    mono = mono * CoordPoly.var(factor)
            else:
                coeff *= parse_rational(factor)
        out = out + mono * QScalar(coeff)
    return out


def monge_check(F: CoordPoly, sample_points: Optional[List[Dict[str, QScalar]]] = None):
    """Bracket-growth analysis of the Monge distribution of F.

    Returns a dict with the genericity flag (the second q-derivative of F
    nonvanishing at every sample), and the exact growth dims at each
    sample point.
    """
    from . import linalg
    V1, V2 = monge_fields(F)
    L1 = V1.bracket(V2)
    L2a = V1.bracket(L1)
    L2b = V2.bracket(L1)
    fqq = F.diff("q").diff("q")
    if sample_points is None:
        sample_points = [
            {"x": QScalar.zero(), "y": QScalar.zero(), "p": QScalar.zero(),
             "q": QScalar.one(), "z": QScalar.zero()},
            {"x": QScalar.one(), "y": QScalar(2), "p": QScalar(Fraction(1, 2)),
             "q": QScalar.one(), "z": QScalar(-1)},
            {"x": QScalar(-1), "y": QScalar.one(), "p": QScalar(3),
             "q": QScalar.one(), "z": QScalar(Fraction(2, 3))},
        ]
    points = []
    is235 = True
    for pt in sample_points:
        rows2 = [V1.eval(pt), V2.eval(pt)]
        rows3 = rows2 + [L1.eval(pt)]
        rows5 = rows3 + [L2a.eval(pt), L2b.eval(pt)]
        dims = (linalg.rank(rows2), linalg.rank(rows3), linalg.rank(rows5))
        good = dims == (2, 3, 5)
        fqq_val = fqq.eval(pt)
        points.append({"point": {k: str(v) for k, v in pt.items()},
                       "growth": dims, "fqq_nonzero": not fqq_val.is_zero(),
                       "is235_here": good})
        if not good or fqq_val.is_zero():
            is235 = False
    return {"is235": is235, "samples": points}
