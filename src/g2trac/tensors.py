"""Dense multilinear tensors over a framed 5/6/7-dimensional space.

Components live in any ring with +/-/* and is_zero (QScalar or CoeffFn).
Alternating tensors store only strictly increasing covariant tuples and
reconstruct every other component by permutation sign; symmetric ones
store nondecreasing tuples.  The trace, the wedge and the pullback read
only stored components (the trace expands alternating and symmetric
storage to raw components first; the pullback, defined for alternating
forms only, contracts one slot at a time and skips the zero entries of
the matrix); insertion, alternation, as_matrix and contract iterate
densely over index tuples, which is affordable at these dimensions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .linalg import signature as matrix_signature
from .scalars import QScalar

NONE = "none"
ALT = "alt"
SYM = "sym"


def perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def sort_with_sign(idx: Tuple[int, ...]):
    """Sorted tuple and the sign of the sorting permutation; None if repeated.

    Memoised: every alternating component access sorts its index tuple,
    the tuples range over dimensions up to 7 (a full battery meets about
    300 of them), and the result is an immutable pair."""
    if len(set(idx)) != len(idx):
        return None, 0
    sign = perm_sign(idx)
    return tuple(sorted(idx)), sign


class AltTensor:
    """Tensor with n_up contravariant and n_down covariant slots.

    sym applies to the covariant block: 'alt' and 'sym' enforce canonical
    storage, 'none' stores raw tuples.
    """

    __slots__ = ("dim", "n_up", "n_down", "sym", "comps", "zero")

    def __init__(self, dim: int, n_up: int, n_down: int, sym: str = NONE, zero=None):
        if sym not in (NONE, ALT, SYM):
            raise ValueError(f"unknown symmetry tag {sym!r}")
        self.dim = dim
        self.n_up = n_up
        self.n_down = n_down
        self.sym = sym
        self.zero = QScalar.zero() if zero is None else zero
        self.comps: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], object] = {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def form(dim: int, degree: int, zero=None) -> "AltTensor":
        return AltTensor(dim, 0, degree, ALT, zero)

    def copy(self) -> "AltTensor":
        out = AltTensor(self.dim, self.n_up, self.n_down, self.sym, self.zero)
        out.comps = dict(self.comps)
        return out

    def _canon(self, up, down):
        if type(up) is not tuple:
            up = tuple(up)
        if type(down) is not tuple:
            down = tuple(down)
        if len(up) != self.n_up or len(down) != self.n_down:
            raise ValueError("index tuple lengths do not match valence")
        if self.sym == ALT:
            canon, sign = sort_with_sign(down)
            return (up, canon), sign
        if self.sym == SYM:
            return (up, tuple(sorted(down))), 1
        return (up, down), 1

    def get(self, up: Tuple[int, ...] = (), down: Tuple[int, ...] = ()):
        key, sign = self._canon(up, down)
        if sign == 0:
            return self.zero
        v = self.comps.get(key)
        if v is None:
            return self.zero
        return v if sign > 0 else -v

    def set(self, up: Tuple[int, ...], down: Tuple[int, ...], value) -> None:
        key, sign = self._canon(up, down)
        if sign == 0:
            if not value.is_zero():
                raise ValueError("nonzero value at repeated alternating indices")
            return
        if sign < 0:
            value = -value
        if value.is_zero():
            self.comps.pop(key, None)
        else:
            self.comps[key] = value

    def add_to(self, up, down, value) -> None:
        self.set(up, down, self.get(up, down) + value)

    def items(self) -> Iterable:
        return self.comps.items()

    def raw_items(self) -> Iterable:
        """((up, down), value) for every nonzero component under raw
        indexing: the stored components, and for alternating or symmetric
        storage each distinct reordering of the covariant block too (with
        the permutation's sign for alternating storage)."""
        if self.sym == NONE:
            yield from self.comps.items()
            return
        alt = self.sym == ALT
        for (up, down), v in self.comps.items():
            neg = None
            for p in dict.fromkeys(permutations(down)):
                if alt and sort_with_sign(p)[1] < 0:
                    if neg is None:
                        neg = -v
                    yield (up, p), neg
                else:
                    yield (up, p), v

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comps.values())

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "AltTensor") -> "AltTensor":
        self._compat(other)
        out = self.copy()
        for (up, down), v in other.comps.items():
            out.add_to(up, down, v)
        return out

    def __neg__(self) -> "AltTensor":
        out = AltTensor(self.dim, self.n_up, self.n_down, self.sym, self.zero)
        out.comps = {k: -v for k, v in self.comps.items()}
        return out

    def __sub__(self, other: "AltTensor") -> "AltTensor":
        return self + (-other)

    def scale(self, c) -> "AltTensor":
        out = AltTensor(self.dim, self.n_up, self.n_down, self.sym, self.zero)
        for k, v in self.comps.items():
            w = v * c
            if not w.is_zero():
                out.comps[k] = w
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltTensor):
            return NotImplemented
        try:
            self._compat(other)
        except ValueError:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return id(self)

    def _compat(self, other: "AltTensor"):
        if (self.dim, self.n_up, self.n_down, self.sym) != (
                other.dim, other.n_up, other.n_down, other.sym):
            raise ValueError("tensor shape/symmetry mismatch")

    # -- exterior algebra --------------------------------------------------

    def wedge(self, other: "AltTensor") -> "AltTensor":
        if self.n_up or other.n_up or self.sym != ALT or other.sym != ALT:
            raise ValueError("wedge expects covariant alternating tensors")
        if self.dim != other.dim:
            raise ValueError("wedge: dimension mismatch")
        k, l = self.n_down, other.n_down
        out = AltTensor.form(self.dim, k + l, self.zero)
        if k + l > self.dim:
            return out
        for (_, a_idx), av in self.comps.items():
            for (_, b_idx), bv in other.comps.items():
                merged = a_idx + b_idx
                canon, sign = sort_with_sign(merged)
                if sign == 0:
                    continue
                term = av * bv
                if sign < 0:
                    term = -term
                out.add_to((), canon, term)
        return out

    def interior(self, vec) -> "AltTensor":
        """Insertion of a vector (component list) into the first slot."""
        if self.n_up or self.sym != ALT or self.n_down == 0:
            raise ValueError("interior product expects a covariant form of positive degree")
        out = AltTensor.form(self.dim, self.n_down - 1, self.zero)
        for rest in combinations(range(self.dim), self.n_down - 1):
            acc = None
            for a in range(self.dim):
                va = vec[a]
                if hasattr(va, "is_zero") and va.is_zero():
                    continue
                term = self.get((), (a,) + rest)
                if term.is_zero():
                    continue
                term = va * term
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                out.set((), rest, acc)
        return out

    def pullback(self, A) -> "AltTensor":
        """(A^* T)(v_1..v_k) = T(A v_1, .., A v_k) for a covariant alternating
        T; A is a matrix.

        T is pulled back one slot at a time: its stored components are
        expanded over their k! signed orderings, and slot i of each partial
        term, keyed (targets so far, sources left), is replaced by every
        target t with A[s][t] nonzero and t above the previous target, so
        only strictly increasing keys reach the end."""
        if self.n_up or self.sym != ALT:
            raise ValueError("pullback expects a covariant alternating tensor")
        out = AltTensor(self.dim, 0, self.n_down, ALT, self.zero)
        k = self.n_down
        rows = [[(t, a) for t, a in enumerate(row) if a] for row in A]
        orders = [(p, perm_sign(p)) for p in permutations(range(k))]
        terms = {}
        for (_, idx), v in self.comps.items():
            for p, sign in orders:
                terms[tuple(idx[i] for i in p)] = v if sign > 0 else -v
        for i in range(k):
            nxt = {}
            for key, v in terms.items():
                floor = key[i - 1] if i else -1
                head, rest = key[:i], key[i + 1:]
                for t, a in rows[key[i]]:
                    if t > floor:
                        nk = head + (t,) + rest
                        term = v * a
                        prev = nxt.get(nk)
                        nxt[nk] = term if prev is None else prev + term
            terms = nxt
        for key, v in terms.items():
            if not v.is_zero():
                out.comps[((), key)] = v
        return out

    def alternation(self) -> "AltTensor":
        """Full alternation of the covariant block of a (0,k) tensor."""
        if self.n_up:
            raise ValueError("alternation expects a covariant tensor")
        k = self.n_down
        out = AltTensor.form(self.dim, k, self.zero)
        norm = Fraction(1)
        for i in range(2, k + 1):
            norm /= i
        for idx in combinations(range(self.dim), k):
            acc = None
            for p in permutations(idx):
                term = self.get((), p)
                if term.is_zero():
                    continue
                if perm_sign_rel(idx, p) < 0:
                    term = -term
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                out.set((), idx, acc * QScalar(norm))
        return out

    # -- contraction --------------------------------------------------------

    def trace(self, up_slot: int, down_slot: int) -> "AltTensor":
        """Contraction of one up slot with one down slot: the raw
        components whose two traced indices agree, summed (raw storage)."""
        acc = {}
        for (up, down), v in self.raw_items():
            if up[up_slot] != down[down_slot]:
                continue
            key = (up[:up_slot] + up[up_slot + 1:], down[:down_slot] + down[down_slot + 1:])
            prev = acc.get(key)
            acc[key] = v if prev is None else prev + v
        out = AltTensor(self.dim, self.n_up - 1, self.n_down - 1, NONE, self.zero)
        out.comps = {k: v for k, v in acc.items() if not v.is_zero()}
        return out

    def as_matrix(self):
        """Dense matrix of a valence-2 tensor ((0,2), (1,1) or (2,0))."""
        n = self.dim
        out = [[self.zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if self.n_up == 0:
                    out[i][j] = self.get((), (i, j))
                elif self.n_up == 1:
                    out[i][j] = self.get((i,), (j,))
                else:
                    out[i][j] = self.get((i, j), ())
        return out

    @staticmethod
    def from_matrix(M, dim, n_up, sym=NONE, zero=None) -> "AltTensor":
        t = AltTensor(dim, n_up, 2 - n_up, sym, zero)
        for i in range(dim):
            for j in range(dim):
                v = M[i][j]
                if v.is_zero():
                    continue
                if n_up == 0:
                    if sym == ALT and i >= j:
                        continue
                    if sym == SYM and i > j:
                        continue
                    t.set((), (i, j), v)
                elif n_up == 1:
                    t.set((i,), (j,), v)
                else:
                    t.set((i, j), (), v)
        return t

    def signature_at(self, s_value):
        """Sylvester signature of a symmetric (0,2) tensor at an evaluation point."""
        if self.n_up or self.n_down != 2:
            raise ValueError("signature expects a (0,2) tensor")
        M = self.as_matrix()
        Me = [[v.eval(s_value) if hasattr(v, "eval") else v for v in row] for row in M]
        for i in range(self.dim):
            for j in range(i):
                if not (Me[i][j] - Me[j][i]).is_zero():
                    raise ValueError("signature expects a symmetric tensor")
        return matrix_signature(Me)

    def __repr__(self):
        body = ", ".join(
            f"{up}{down}: {v}" for (up, down), v in sorted(self.comps.items())) or "0"
        return f"<AltTensor {self.dim}d ({self.n_up},{self.n_down}) {self.sym} {body}>"


def perm_sign_rel(base, perm) -> int:
    """Sign of the permutation taking base (distinct entries) to perm."""
    pos = {v: i for i, v in enumerate(base)}
    return perm_sign([pos[v] for v in perm])


# -- module-level operations ------------------------------------------------


def wedge(a: AltTensor, b: AltTensor) -> AltTensor:
    return a.wedge(b)


def contract(a: AltTensor, b: AltTensor, pairs, metric: Optional[AltTensor] = None) -> AltTensor:
    """Contract slot pairs between two tensors.

    Slots are addressed ('u', i) or ('d', i).  A mixed pair contracts
    directly; a both-covariant pair is weighted by the inverse of the
    supplied metric and a both-contravariant pair by the metric itself.
    Free slots keep their variance, a-side first.
    """
    if a.dim != b.dim:
        raise ValueError("contract: dimension mismatch")
    g = ginv = None
    kinds = []
    for sa, sb in pairs:
        if sa[0] == sb[0]:
            kinds.append(sa[0])
        else:
            kinds.append("mixed")
    if any(k != "mixed" for k in kinds):
        if metric is None:
            raise ValueError("metric required for same-variance contraction")
        from .linalg import inverse as inv_field, inverse_laurent
        g = metric.as_matrix()
        ginv = inv_field(g) if isinstance(g[0][0], QScalar) else inverse_laurent(g)

    def slots(t):
        return [("u", i) for i in range(t.n_up)] + [("d", i) for i in range(t.n_down)]

    pa = [p[0] for p in pairs]
    pb = [p[1] for p in pairs]
    free_a = [s for s in slots(a) if s not in pa]
    free_b = [s for s in slots(b) if s not in pb]
    n_up = sum(1 for s in free_a + free_b if s[0] == "u")
    n_down = sum(1 for s in free_a + free_b if s[0] == "d")
    out = AltTensor(a.dim, n_up, n_down, NONE, a.zero)
    rng = range(a.dim)

    def read(t, assign):
        up = tuple(assign[("u", i)] for i in range(t.n_up))
        down = tuple(assign[("d", i)] for i in range(t.n_down))
        return t.get(up, down)

    n_free = len(free_a) + len(free_b)
    for free_vals in product(rng, repeat=n_free):
        fa = dict(zip(free_a, free_vals[:len(free_a)]))
        fb = dict(zip(free_b, free_vals[len(free_a):]))
        acc = None
        # mixed pairs use one dummy index; same-variance pairs use two
        dummy_count = sum(1 if k == "mixed" else 2 for k in kinds)
        for dummies in product(rng, repeat=dummy_count):
            aa = dict(fa)
            bb = dict(fb)
            weight = None
            pos = 0
            for (sa, sb), kind in zip(pairs, kinds):
                if kind == "mixed":
                    aa[sa] = bb[sb] = dummies[pos]
                    pos += 1
                else:
                    k, l = dummies[pos], dummies[pos + 1]
                    pos += 2
                    aa[sa] = k
                    bb[sb] = l
                    w = ginv[k][l] if kind == "d" else g[k][l]
                    if hasattr(w, "is_zero") and w.is_zero():
                        weight = None
                        aa = None
                        break
                    weight = w if weight is None else weight * w
            if aa is None:
                continue
            va = read(a, aa)
            if va.is_zero():
                continue
            vb = read(b, bb)
            if vb.is_zero():
                continue
            term = va * vb
            if weight is not None:
                term = term * weight
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            up = tuple(v for v, s in zip(free_vals, free_a + free_b) if s[0] == "u")
            down = tuple(v for v, s in zip(free_vals, free_a + free_b) if s[0] == "d")
            out.set(up, down, acc)
    return out
