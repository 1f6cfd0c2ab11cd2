"""Multilinear tensors over a framed 5/6/7-dimensional space.

Components live in any ring with +/-/* and is_zero (QScalar or CoeffFn).
Alternating tensors store only strictly increasing covariant tuples and
reconstruct every other component by permutation sign; symmetric ones
store nondecreasing tuples.

Every operation reads only stored components: it walks comps (or
raw_items, which expands alternating and symmetric storage to raw
components) and sends each term to the component it lands on through
the one accumulator _scatter, and _tensor keeps the nonzero sums.  The
curvature, tractor and boundary kernels use the same pair.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .linalg import inverse, signature as matrix_signature
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


def _scatter(acc: dict, key, v, sign: int = 1) -> None:
    """acc[key] += sign * v, starting from v itself."""
    prev = acc.get(key)
    if prev is None:
        acc[key] = v if sign > 0 else -v
    else:
        acc[key] = prev + v if sign > 0 else prev - v


def _tensor(dim, n_up, n_down, sym, zero, acc: dict) -> "AltTensor":
    """The tensor whose stored components are the nonzero values of acc."""
    out = AltTensor(dim, n_up, n_down, sym, zero)
    out.comps = {k: v for k, v in acc.items() if not v.is_zero()}
    return out


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
        acc = dict(self.comps)
        for key, v in other.comps.items():
            _scatter(acc, key, v)
        return _tensor(self.dim, self.n_up, self.n_down, self.sym, self.zero, acc)

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
        acc = {}
        if self.n_down + other.n_down <= self.dim:
            for (_, a_idx), av in self.comps.items():
                for (_, b_idx), bv in other.comps.items():
                    canon, sign = sort_with_sign(a_idx + b_idx)
                    if sign:
                        _scatter(acc, ((), canon), av * bv, sign)
        return _tensor(self.dim, 0, self.n_down + other.n_down, ALT, self.zero, acc)

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
                if not v:
                    continue   # a partial term that cancelled: every product would be 0
                floor = key[i - 1] if i else -1
                head, rest = key[:i], key[i + 1:]
                for t, a in rows[key[i]]:
                    if t > floor:
                        _scatter(nxt, head + (t,) + rest, v * a)
            terms = nxt
        return _tensor(self.dim, 0, k, ALT, self.zero,
                       {((), key): v for key, v in terms.items()})

    def alternation(self) -> "AltTensor":
        """Full alternation of the covariant block of a (0,k) tensor: each
        raw component goes to its sorted indices with the sort's sign, and
        the sums are divided by k!."""
        if self.n_up:
            raise ValueError("alternation expects a covariant tensor")
        k = self.n_down
        norm = Fraction(1)
        for i in range(2, k + 1):
            norm /= i
        acc = {}
        for (_, idx), v in self.raw_items():
            canon, sign = sort_with_sign(idx)
            if sign:
                _scatter(acc, ((), canon), v, sign)
        return _tensor(self.dim, 0, k, ALT, self.zero,
                       {key: v * QScalar(norm) for key, v in acc.items()})

    # -- contraction --------------------------------------------------------

    def trace(self, up_slot: int, down_slot: int) -> "AltTensor":
        """Contraction of one up slot with one down slot: the raw
        components whose two traced indices agree, summed (raw storage)."""
        acc = {}
        for (up, down), v in self.raw_items():
            if up[up_slot] == down[down_slot]:
                _scatter(acc, (up[:up_slot] + up[up_slot + 1:],
                               down[:down_slot] + down[down_slot + 1:]), v)
        return _tensor(self.dim, self.n_up - 1, self.n_down - 1, NONE, self.zero, acc)

    def as_matrix(self):
        """Dense matrix of a valence-2 tensor ((0,2), (1,1) or (2,0))."""
        n = self.dim
        out = [[self.zero for _ in range(n)] for _ in range(n)]
        for (up, down), v in self.raw_items():
            i, j = up + down
            out[i][j] = v
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

    Each raw component of a meets the raw components of b whose
    contracted indices match its own (mixed pair) or meet a nonzero
    weight entry (same-variance pair), and their product goes to the
    free indices."""
    if a.dim != b.dim:
        raise ValueError("contract: dimension mismatch")
    weights = [None] * len(pairs)
    if any(sa[0] == sb[0] for sa, sb in pairs):
        if metric is None:
            raise ValueError("metric required for same-variance contraction")
        g = metric.as_matrix()
        ginv = inverse(g)
        for p, (sa, sb) in enumerate(pairs):
            if sa[0] == sb[0]:
                M = ginv if sa[0] == "d" else g
                weights[p] = [[(l, w) for l, w in enumerate(row) if not w.is_zero()] for row in M]

    def read(key, slot):
        """The index that slot ('u', i) or ('d', i) holds in a raw key (up, down)."""
        return key[0 if slot[0] == "u" else 1][slot[1]]

    def free_slots(t, contracted):
        return ([i for i in range(t.n_up) if ("u", i) not in contracted],
                [i for i in range(t.n_down) if ("d", i) not in contracted])

    a_up, a_down = free_slots(a, [sa for sa, _ in pairs])
    b_up, b_down = free_slots(b, [sb for _, sb in pairs])
    # b's raw components by the indices in their contracted slots
    by_pair = {}
    for key, vb in b.raw_items():
        by_pair.setdefault(tuple(read(key, sb) for _, sb in pairs), []).append(
            (tuple(key[0][i] for i in b_up), tuple(key[1][i] for i in b_down), vb))
    acc = {}
    for key, va in a.raw_items():
        up = tuple(key[0][i] for i in a_up)
        down = tuple(key[1][i] for i in a_down)
        choices = [[(read(key, sa), None)] if rows is None else rows[read(key, sa)]
                   for (sa, _), rows in zip(pairs, weights)]
        for choice in product(*choices):
            weight = None
            for _, w in choice:
                if w is not None:
                    weight = w if weight is None else weight * w
            for b_u, b_d, vb in by_pair.get(tuple(l for l, _ in choice), ()):
                term = va * vb
                _scatter(acc, (up + b_u, down + b_d), term if weight is None else term * weight)
    return _tensor(a.dim, len(a_up) + len(b_up), len(a_down) + len(b_down), NONE, a.zero, acc)
