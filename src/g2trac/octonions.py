"""(Split) octonions by doubling quaternions, and the 7-dim cross product.

xi = +1 selects the definite algebra, xi = -1 the split one.  Imaginary
basis conventions are tied to the classical multiplication table whose
quadratic form is diag(1,1,1,xi,xi,xi,xi); the doubling construction is
mapped onto that basis once and for all by _CD_SIGNS below.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .scalars import QScalar
from .tensors import AltTensor

# Basis element i sits at position i of the quaternion pair (a, b), read
# as eight components (w, x, y, z) of a then b, with this sign; chosen so
# the doubled product reproduces the classical table for both xi.
_CD_SIGNS = (1, 1, 1, 1, -1, 1, 1, -1)


def _signed(comps):
    """Octonion components to the pair's, and back: the signs are involutive."""
    return [c if s > 0 else -c for s, c in zip(_CD_SIGNS, comps)]


def _qmul(p, q):
    """Quaternion product of the 4-lists (w, x, y, z)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return [
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ]


def _qconj(p):
    return [p[0], -p[1], -p[2], -p[3]]


class _Vector:
    """Components over QScalar plus the algebra flag xi, with the
    vector-space operations; basis(i) is the component at i - FIRST."""

    __slots__ = ("comps", "xi")
    SIZE = FIRST = 0
    NAME = ""

    def __init__(self, comps: Sequence, xi: int = -1):
        if xi not in (1, -1):
            raise ValueError("xi must be +1 or -1")
        comps = list(comps)
        if len(comps) != self.SIZE:
            raise ValueError(f"{self.NAME} needs {self.SIZE} components")
        self.comps = [QScalar.of(c) for c in comps]
        self.xi = xi

    @classmethod
    def basis(cls, i: int, xi: int = -1):
        comps = [0] * cls.SIZE
        comps[i - cls.FIRST] = 1
        return cls(comps, xi)

    def _check(self, other):
        if self.xi != other.xi:
            raise ValueError("mixing definite and split octonions")

    def __add__(self, o):
        self._check(o)
        return type(self)([a + b for a, b in zip(self.comps, o.comps)], self.xi)

    def __sub__(self, o):
        self._check(o)
        return type(self)([a - b for a, b in zip(self.comps, o.comps)], self.xi)

    def __neg__(self):
        return type(self)([-a for a in self.comps], self.xi)

    def scale(self, c):
        c = QScalar.of(c)
        return type(self)([a * c for a in self.comps], self.xi)

    def __eq__(self, o):
        if not isinstance(o, type(self)):
            return NotImplemented
        return self.xi == o.xi and all((a - b).is_zero() for a, b in zip(self.comps, o.comps))

    def is_zero(self):
        return all(a.is_zero() for a in self.comps)


class Octonion(_Vector):
    """Eight components on the basis (1, e1..e7) plus the algebra flag xi."""

    __slots__ = ()
    SIZE, FIRST, NAME = 8, 0, "octonion"

    def __mul__(self, o: "Octonion") -> "Octonion":
        """Doubled product (a,b)(c,d) = (ac -+ d b*, a* d + c b); -+ is -
        for the definite algebra and + for the split one."""
        self._check(o)
        ab, cd = _signed(self.comps), _signed(o.comps)
        a, b, c, d = ab[:4], ab[4:], cd[:4], cd[4:]
        ac, t = _qmul(a, c), _qmul(d, _qconj(b))
        first = [x - y if self.xi == 1 else x + y for x, y in zip(ac, t)]
        second = [x + y for x, y in zip(_qmul(_qconj(a), d), _qmul(c, b))]
        return Octonion(_signed(first + second), self.xi)

    def conj(self) -> "Octonion":
        return Octonion([self.comps[0]] + [-c for c in self.comps[1:]], self.xi)

    def im(self) -> "Octonion":
        return Octonion([QScalar.zero()] + self.comps[1:], self.xi)

    def __repr__(self):
        tags = ["1"] + [f"e{i}" for i in range(1, 8)]
        bits = [f"({c})*{t}" for c, t in zip(self.comps, tags) if not c.is_zero()]
        return " + ".join(bits) if bits else "0"


class ImaginaryVector(_Vector):
    """Element of the 7-dimensional imaginary part, components on e1..e7."""

    __slots__ = ()
    SIZE, FIRST, NAME = 7, 1, "imaginary vector"

    def to_octonion(self) -> Octonion:
        return Octonion([QScalar.zero()] + self.comps, self.xi)

    @staticmethod
    def from_octonion(o: Octonion) -> "ImaginaryVector":
        return ImaginaryVector(o.comps[1:], o.xi)


def cross_cd(x: ImaginaryVector, y: ImaginaryVector) -> ImaginaryVector:
    """x X y = -Im(x ybar) = (xy - yx)/2, through the doubling product."""
    x._check(y)
    prod = x.to_octonion() * y.to_octonion().conj()
    return ImaginaryVector.from_octonion(-prod.im())


def dot(x: ImaginaryVector, y: ImaginaryVector) -> QScalar:
    """x . y through the diagonal form the doubling product induces.

    Agrees with Re(x ybar) through the doubling product everywhere
    (tested), without paying that product per evaluation."""
    x._check(y)
    acc = QScalar.zero()
    for i in range(7):
        xi_c, yi_c = x.comps[i], y.comps[i]
        if xi_c.is_zero() or yi_c.is_zero():
            continue
        t = xi_c * yi_c
        acc = acc + t if (i < 3 or x.xi == 1) else acc - t
    return acc


def dot_matrix(xi: int):
    """Gram matrix of the imaginary inner product: diag(1,1,1,xi,xi,xi,xi)."""
    out = [[QScalar.zero() for _ in range(7)] for _ in range(7)]
    for i in range(7):
        out[i][i] = QScalar.of(1 if i < 3 else xi)
    return out


def jmap(x: ImaginaryVector):
    """Matrix of y -> -x X y on the basis e1..e7.  Each entry (k, b) has
    one term e_a X e_b = +-e_k of the table, so it is -+x_a."""
    out = [[QScalar.zero()] * 7 for _ in range(7)]
    for (k, a, b), s in _sign_table(x.xi).items():
        xa = x.comps[a]
        if not xa.is_zero():
            out[k][b] = -xa if s > 0 else xa
    return out


def cross_structure_constants(xi: int):
    """xup[(k, a, b)] = e_k-component of e_{a+1} X e_{b+1} (0-based keys),
    derived from the doubling product."""
    table = {}
    for a in range(1, 8):
        for b in range(1, 8):
            v = cross_cd(ImaginaryVector.basis(a, xi), ImaginaryVector.basis(b, xi))
            for k in range(7):
                if not v.comps[k].is_zero():
                    table[(k, a - 1, b - 1)] = v.comps[k]
    return table


_STRUCTURE_CACHE = {}
_SIGN_CACHE = {}


def _structure_table(xi: int):
    table = _STRUCTURE_CACHE.get(xi)
    if table is None:
        table = cross_structure_constants(xi)
        _STRUCTURE_CACHE[xi] = table
    return table


def _sign_table(xi: int):
    """Same data with the (+-1)-valued coefficients as machine integers."""
    signs = _SIGN_CACHE.get(xi)
    if signs is None:
        signs = {}
        for key, v in _structure_table(xi).items():
            if v == QScalar.one():
                signs[key] = 1
            elif v == -QScalar.one():
                signs[key] = -1
            else:
                raise RuntimeError("structure constants are not unimodular")
        _SIGN_CACHE[xi] = signs
    return signs


def g2_form(xi: int) -> AltTensor:
    """The model 3-form phi(e_a, e_b, e_c) = <e_a x e_b, e_c> on the legs
    e1..e7 (numbered 0..6): e123 + xi(e145 + e167 + e246 - e257 - e347 - e356)."""
    G = dot_matrix(xi)
    phi = AltTensor.form(7, 3)
    for (k, a, b), v in _structure_table(xi).items():
        if k < a < b:
            phi.set((), (k, a, b), v * G[k][k])
    return phi


class NullFiltration:
    """Exact filtration <x> < ker J < (ker J)^perp < <x>^perp of a nilpotent
    endomorphism J with J x = 0, perps taken with the Gram matrix G: the
    split-octonion one of a null x, and the boundary's degenerate tractor
    endomorphism with the canonical tractor X.

    One elimination of J gives its reduced form R: the kernel basis, one
    vector per free column of R, and the image, J's pivot columns as row
    vectors.  Each step after the line is the kernel of equations fixed
    here from the computed bases: the nonzero rows of R, G u for u in
    ker J (a zero row, the whole space's, if ker J = 0) and G x."""

    def __init__(self, J, G, x):
        self.J = J
        self.line = [list(x)]
        R, pivots = linalg.rref(J)
        cols = len(J[0])
        self.kernel = linalg.rref_kernel(R, pivots, cols)
        self.image = [[row[c] for row in J] for c in pivots]  # independent, spanning col J
        self._free = [c for c in range(cols) if c not in pivots]
        lowered = [linalg.mat_vec(G, u) for u in self.kernel] or [[QScalar.zero()] * len(G)]
        self.equations = {"kernel": R[:len(pivots)], "kernel_perp": lowered,
                          "line_perp": [linalg.mat_vec(G, x)]}
        self.kernel_perp = linalg.nullspace(lowered)
        self.line_perp = linalg.nullspace(self.equations["line_perp"])

    def dims(self):
        return (len(self.line), len(self.kernel), len(self.kernel_perp), len(self.line_perp))

    def kernel_isotropic(self) -> bool:
        return linalg.kills(self.equations["kernel_perp"], self.kernel)

    def chain_ok(self) -> bool:
        """Each step lies in the next: the next step's equations kill it."""
        eqs = self.equations
        return (linalg.kills(eqs["kernel"], self.line)
                and linalg.kills(eqs["kernel_perp"], self.kernel)
                and linalg.kills(eqs["line_perp"], self.kernel_perp))

    def mapping_ok(self) -> bool:
        """im J = (ker J)^perp, J(<x>^perp) = ker J, J((ker J)^perp) = <x>.

        The image basis lies in (ker J)^perp and has its dimension.  The
        images of <x>^perp lie in ker J, and their rank is that of their
        free columns, which are their coordinates in the kernel basis.
        The images of (ker J)^perp are multiples of x, one of them nonzero."""
        J, eqs = self.J, self.equations
        to_kernel = [linalg.mat_vec(J, v) for v in self.line_perp]
        to_line = [linalg.mat_vec(J, v) for v in self.kernel_perp]
        return (linalg.kills(eqs["kernel_perp"], self.image)
                and len(self.image) == len(self.kernel_perp)
                and linalg.kills(eqs["kernel"], to_kernel)
                and linalg.rank([[w[c] for c in self._free] for w in to_kernel]) == len(self.kernel)
                and _spans_line(self.line[0], to_line))


def _spans_line(x, vectors) -> bool:
    """Do the vectors span <x>?  With x_k != 0, v is the multiple
    (v_k / x_k) x exactly when x_k v_i = v_k x_i for every i (v = 0 when
    v_k = 0), and that multiple is nonzero exactly when v_k is."""
    k = next((i for i, c in enumerate(x) if c), None)
    if k is None:
        return False
    xk = x[k]
    return (all(xk * vi == v[k] * xi if v[k] else not vi
                for v in vectors for vi, xi in zip(v, x) if vi or xi)
            and any(v[k] for v in vectors))


def null_filtration(x: ImaginaryVector) -> NullFiltration:
    """The filtration of J_x = -x X . for a nonzero null split x."""
    if x.xi != -1:
        raise ValueError("null filtration lives in the split imaginary octonions")
    if x.is_zero():
        raise ValueError("filtration needs a nonzero vector")
    if not dot(x, x).is_zero():
        raise ValueError("filtration needs a null vector")
    return NullFiltration(jmap(x), dot_matrix(-1), x.comps)

