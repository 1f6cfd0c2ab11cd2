"""Framed charts: structure functions, a distinguished connection, curvature.

A FrameChart is a frame E_1..E_n with bracket structure functions,
a torsion-free connection given in frame components, and a derivation
table saying which frame directions differentiate the coefficient ring
(for the collar charts: only the transverse direction acts, as d/drho).

Conventions: [E_a, E_b] = c^c_{ab} E_c and nabla_{E_a} E_c = G^b_{ac} E_b
(direction first); curvature (nabla_a nabla_b - nabla_b nabla_a) U^c =
R_{ab}{}^c{}_d U^d includes the -nabla_{[E_a,E_b]} frame correction.

cov_deriv differentiates along E_a with a connection matrix A on the
tensor's index range, A[b][e] being the e-component of nabla_a of basis
element b: a covariant slot b gets -sum_e A[b][e] (slot -> e) and a
contravariant slot b gets +sum_e A[e][b] (slot -> e).  The default A is
the frame connection G[a]; tractor.tractor_connection supplies the
(n+1)x(n+1) matrix of the tractor connection, so one kernel serves both.

The kernels read only stored nonzeros, through the accumulator of
tensors.py: cov_deriv and d_exterior scatter from the tensor's stored
components, the curvature is one function of the connection matrices
over their nonzero entries, the Weyl and Cotton tensors are built from
the stored components of R and P (and of nabla P), the Jacobi defect
walks the nonzero bracket rows, and the Levi-Civita connection is
scattered from the nonzero metric and bracket entries.  The inverse
metric that connection takes is kept on its chart (metric_inverse), and
substitute_param carries it into the s-parameterisation, so the readers
that raise indices with it do not invert g again.  substitute_param
carries the curvature too: rho -> +-s^2 is a ring map that commutes
with d/drho, so the substituted chart's curvature is the substitution of
the curvature in rho.  negated_metric gives the Levi-Civita chart of -g
from that of g without a second build.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .laurent import PLAIN, CoeffFn
from .linalg import inverse_laurent, mat_mul
from .tensors import ALT, NONE, AltTensor, _scatter, _tensor, sort_with_sign


def _nonzero_rows(M) -> List[List[List[Tuple[int, CoeffFn]]]]:
    """For a list of matrices M[i][j][k], the (k, M[i][j][k]) with nonzero entry."""
    return [[[(k, v) for k, v in enumerate(row) if not v.is_zero()] for row in Mi] for Mi in M]


def _connection_curvature(M, C, rho_directions) -> Dict[Tuple[int, int], Dict[tuple, CoeffFn]]:
    """F_ab = E_a(M_b) - E_b(M_a) + M_b M_a - M_a M_b - sum_e C^e_ab M_e for
    a < b, each as {(d, c): nonzero F_ab[d][c]}.

    M[a] is the connection matrix of direction a (M[a][d][c] the
    c-component of nabla_a of basis element d), C the chart's brackets,
    and only the rho_directions differentiate the coefficients.  Only the
    nonzero entries of each M_a and C_ab are visited."""
    n = len(M)
    rows = _nonzero_rows(M)
    entries = [[(d, c, v) for d, row in enumerate(Ma) for c, v in row] for Ma in rows]
    brackets = _nonzero_rows(C)
    out = {}
    for a, b in combinations(range(n), 2):
        acc: Dict[Tuple[int, int], CoeffFn] = {}
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            if x in rho_directions:
                for d, c, v in entries[y]:
                    dv = v.d_drho()
                    if not dv.is_zero():
                        _scatter(acc, (d, c), dv, sign)
        for x, y, sign in ((b, a, 1), (a, b, -1)):
            for d, e, v in entries[x]:
                for c, w in rows[y][e]:
                    _scatter(acc, (d, c), v * w, sign)
        for e, f in brackets[a][b]:
            for d, c, v in entries[e]:
                _scatter(acc, (d, c), f * v, -1)
        out[(a, b)] = {k: v for k, v in acc.items() if not v.is_zero()}
    return out


class FrameChart:
    def __init__(self, dim: int, param: str = PLAIN, rho_directions: Iterable[int] = ()):
        self.dim = dim
        self.param = param
        self.rho_directions = frozenset(rho_directions)
        z = self.zero()
        self.C = [[[z for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        self.G = [[[z for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        # scale 1-form: the connection form of the weight-1 density bundle
        # relative to the frame trivialization (zero when the frame volume
        # is parallel, accumulated under projective changes of scale)
        self.weight_form: List[CoeffFn] = [z for _ in range(dim)]
        # g^-1 of the metric whose Levi-Civita connection this chart carries
        # (set by levi_civita and kept by substitute_param; None otherwise)
        self.metric_inverse: Optional[List[List[CoeffFn]]] = None
        self._cache: Dict[str, object] = {}

    # -- ring helpers ------------------------------------------------------

    def zero(self) -> CoeffFn:
        return CoeffFn.zero(self.param)

    def one(self) -> CoeffFn:
        return CoeffFn.one(self.param)

    def lift(self, x) -> CoeffFn:
        return CoeffFn.of(x, self.param)

    def rho(self) -> CoeffFn:
        return CoeffFn.rho(self.param)

    # -- data entry ---------------------------------------------------------

    def set_bracket(self, a: int, b: int, comps: Dict[int, object]) -> None:
        """[E_a, E_b] = sum comps[c] * E_c (and the skew partner)."""
        for c, v in comps.items():
            v = self.lift(v)
            self.C[a][b][c] = v
            self.C[b][a][c] = -v
        self._cache.clear()

    def set_gamma(self, a: int, c: int, comps: Dict[int, object]) -> None:
        """nabla_{E_a} E_c = sum comps[b] * E_b."""
        for b, v in comps.items():
            self.G[a][c][b] = self.lift(v)
        self._cache.clear()

    # -- derivation table ----------------------------------------------------

    def dir_deriv(self, a: int, f: CoeffFn) -> CoeffFn:
        if a in self.rho_directions:
            return f.d_drho()
        return self.zero()

    def bracket(self, U: List[CoeffFn], V: List[CoeffFn]) -> List[CoeffFn]:
        """Frame components of [U, V] for fields U = U^a E_a and V = V^b E_b:
        U^a V^b C^c_ab + U^x E_x(V^c) - V^x E_x(U^c), x over the rho
        directions.  Only the nonzero U^a, V^b and bracket entries are
        visited."""
        us = [(a, u) for a, u in enumerate(U) if not u.is_zero()]
        vs = [(b, v) for b, v in enumerate(V) if not v.is_zero()]
        acc: Dict[int, CoeffFn] = {}
        for a, u in us:
            for b, v in vs:
                row = [(c, f) for c, f in enumerate(self.C[a][b]) if not f.is_zero()]
                if row:
                    uv = u * v
                    for c, f in row:
                        _scatter(acc, c, uv * f)
        for x in self.rho_directions:
            for W, Y, sign in ((U, vs, 1), (V, us, -1)):
                if not W[x].is_zero():
                    for c, y in Y:
                        dy = y.d_drho()
                        if not dy.is_zero():
                            _scatter(acc, c, W[x] * dy, sign)
        z = self.zero()
        return [acc.get(c, z) for c in range(self.dim)]

    # -- tensor covariant derivative -----------------------------------------

    def cov_deriv(self, T: AltTensor, a: int, weight: int = 0, conn=None) -> AltTensor:
        """Frame components of nabla_{E_a} T (same valence).

        conn is the connection matrix A of direction a on T's index range
        (default self.G[a], so A[b][e] = G^e_{ab}): a covariant slot b
        subtracts sum_e A[b][e] T_{..e..} and a contravariant slot b adds
        sum_e A[e][b] T^{..e..}.  weight is the projective density weight
        of the components; it couples through the chart's scale 1-form
        (zero in a scale whose frame volume is parallel).  The result is
        scattered from T's stored components: each one sends its terms to
        the components whose index it carries in one slot.  Alternating
        input gives an alternating result, scattered from the increasing
        index sets alone; any other input is expanded to raw components
        and gives raw components."""
        A = self.G[a] if conn is None else conn
        rng = range(T.dim)
        # index e in an up slot feeds index b with A[e][b], in a down slot with -A[b][e]
        ups = [[(b, g) for b, g in enumerate(A[e]) if not g.is_zero()] for e in rng]
        downs = [[(b, -A[b][e]) for b in rng if not A[b][e].is_zero()] for e in rng]
        wform = self.weight_form[a] * weight
        alt = T.sym == ALT
        acc: Dict[tuple, CoeffFn] = {}
        for (up, down), t in (T.comps.items() if alt else T.raw_items()):
            base = self.dir_deriv(a, t)
            if not wform.is_zero():
                base = base + wform * t
            if not base.is_zero():
                _scatter(acc, (up, down), base)
            for s, e in enumerate(up):
                for b, g in ups[e]:
                    _scatter(acc, (up[:s] + (b,) + up[s + 1:], down), g * t)
            for s, e in enumerate(down):
                for b, g in downs[e]:
                    key, sign = down[:s] + (b,) + down[s + 1:], 1
                    if alt:
                        key, sign = sort_with_sign(key)
                        if not sign:
                            continue
                    _scatter(acc, (up, key), g * t, sign)
        return _tensor(T.dim, T.n_up, T.n_down, ALT if alt else NONE, self.zero(), acc)

    # -- structural checks ------------------------------------------------------

    def jacobi_defect(self) -> List[CoeffFn]:
        """All components of sum_cyc [[E_a,E_b],E_c], for a < b < c and then
        d; empty chart data is fine because the structure functions here
        never depend on group directions."""
        n = self.dim
        zero = self.zero()
        brackets = _nonzero_rows(self.C)
        out = []
        for a, b, c in combinations(range(n), 3):
            acc: Dict[int, CoeffFn] = {}
            for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                # [[E_x,E_y],E_z]^d, structure functions may depend on rho
                for e, f in brackets[x][y]:
                    for d, g in brackets[e][z]:
                        _scatter(acc, d, f * g)
                if z in self.rho_directions:
                    for d, f in brackets[x][y]:
                        _scatter(acc, d, f.d_drho(), -1)
            out.extend(acc.get(d, zero) for d in range(n))
        return out

    def is_jacobi(self) -> bool:
        return all(v.is_zero() for v in self.jacobi_defect())

    def torsion_defect(self) -> List[CoeffFn]:
        out = []
        for a in range(self.dim):
            for c in range(a + 1, self.dim):
                for b in range(self.dim):
                    out.append(self.G[a][c][b] - self.G[c][a][b] - self.C[a][c][b])
        return out

    def is_torsion_free(self) -> bool:
        return all(v.is_zero() for v in self.torsion_defect())

    def volume_defect(self) -> List[CoeffFn]:
        """Per-direction trace sum_b G^b_{ab}; zero iff the frame volume is parallel."""
        out = []
        for a in range(self.dim):
            acc = self.zero()
            for b in range(self.dim):
                acc = acc + self.G[a][b][b]
            out.append(acc)
        return out

    def is_special(self) -> bool:
        return all(v.is_zero() for v in self.volume_defect())

    # -- curvature tower -----------------------------------------------------------

    def curvature(self) -> AltTensor:
        """R_{ab}{}^c{}_d stored with up slot (c,) and down slots (a, b, d):
        the curvature F_ab[d][c] of the connection matrices G[a]."""
        if "R" in self._cache:
            return self._cache["R"]
        R = AltTensor(self.dim, 1, 3, NONE, self.zero())
        F = _connection_curvature(self.G, self.C, self.rho_directions)
        for (a, b), Fab in F.items():
            for (d, c), v in Fab.items():
                R.comps[((c,), (a, b, d))] = v
                R.comps[((c,), (b, a, d))] = -v
        self._cache["R"] = R
        return R

    def ricci(self) -> AltTensor:
        if "Ric" in self._cache:
            return self._cache["Ric"]
        out = self.curvature().trace(0, 0)
        self._cache["Ric"] = out
        return out

    def schouten(self) -> AltTensor:
        if "P" in self._cache:
            return self._cache["P"]
        ric = self.ricci()
        out = ric.scale(self.lift(Fraction(1, self.dim - 1)))
        self._cache["P"] = out
        return out

    def weyl(self) -> AltTensor:
        """W^c_{abd} = R^c_{abd} - delta^c_a P_bd + delta^c_b P_ad."""
        if "W" in self._cache:
            return self._cache["W"]
        acc = dict(self.curvature().comps)
        for (_, (x, d)), p in self.schouten().comps.items():
            for y in range(self.dim):
                if y != x:
                    _scatter(acc, ((y,), (y, x, d)), p, -1)
                    _scatter(acc, ((y,), (x, y, d)), p)
        W = _tensor(self.dim, 1, 3, NONE, self.zero(), acc)
        self._cache["W"] = W
        return W

    def cotton(self) -> AltTensor:
        """C_{abd} = nabla_a P_{bd} - nabla_b P_{ad}."""
        if "Cot" in self._cache:
            return self._cache["Cot"]
        P = self.schouten()
        acc: Dict[tuple, CoeffFn] = {}
        for a in range(self.dim):
            for (_, (b, d)), v in self.cov_deriv(P, a).comps.items():
                _scatter(acc, ((), (a, b, d)), v)
                _scatter(acc, ((), (b, a, d)), v, -1)
        out = _tensor(self.dim, 0, 3, NONE, self.zero(), acc)
        self._cache["Cot"] = out
        return out

    def weyl_trace_defects(self) -> Tuple[List[CoeffFn], List[CoeffFn]]:
        """Both traces of W: over (c,a) and over (c,d)."""
        W = self.weyl()
        return tuple([v for row in W.trace(0, slot).as_matrix() for v in row]
                     for slot in (0, 2))

    def is_projectively_flat(self) -> bool:
        return self.weyl().is_zero() and self.cotton().is_zero()

    # -- constructions ----------------------------------------------------------

    def levi_civita(self, g: AltTensor) -> "FrameChart":
        """Chart with the same brackets and the Levi-Civita connection of g;
        it keeps g^-1 as metric_inverse.

        K[a][c][d] = 2 g(nabla_a E_c, E_d) is scattered from the nonzero
        entries alone: each E_x-derivative of a nonzero g_cd (x a rho
        direction) goes to (x, c, d), (c, x, d) and -(c, d, x), and each
        nonzero bracket entry C^e_ac times a nonzero g_ed to (a, c, d),
        -(a, d, c) and -(d, a, c)."""
        n = self.dim
        gm = g.as_matrix()
        ginv = inverse_laurent(gm)
        half = self.lift(Fraction(1, 2))
        grows = [[(d, v) for d, v in enumerate(row) if not v.is_zero()] for row in gm]
        acc: Dict[Tuple[int, int, int], CoeffFn] = {}
        for x in self.rho_directions:
            for c, row in enumerate(grows):
                for d, v in row:
                    dv = v.d_drho()
                    if not dv.is_zero():
                        _scatter(acc, (x, c, d), dv)
                        _scatter(acc, (c, x, d), dv)
                        _scatter(acc, (c, d, x), dv, -1)
        for a, Ca in enumerate(_nonzero_rows(self.C)):
            for c, bracket in enumerate(Ca):
                for e, f in bracket:
                    for d, v in grows[e]:
                        fv = f * v
                        _scatter(acc, (a, c, d), fv)
                        _scatter(acc, (a, d, c), fv, -1)
                        _scatter(acc, (d, a, c), fv, -1)
        z = self.zero()
        K = [[[z] * n for _ in range(n)] for _ in range(n)]
        for (a, c, d), v in acc.items():
            K[a][c][d] = v
        # G[a][c][b] = (1/2) g^{bd} K[a][c][d], and g^-1 is symmetric
        G = [[[x * half for x in row] for row in mat_mul(Ka, ginv)] for Ka in K]
        out = FrameChart(self.dim, self.param, self.rho_directions)
        out.C = [[list(col) for col in row] for row in self.C]
        out.G = G
        out.metric_inverse = ginv
        return out

    def change_scale(self, upsilon: List[CoeffFn]) -> "FrameChart":
        """Projective change nabla -> nabla + Upsilon terms (same geodesics).

        The new chart keeps the original frame trivialization, so its
        scale 1-form picks up Upsilon (weight-1 densities obey
        nabla-hat sigma = nabla sigma + Upsilon sigma)."""
        n = self.dim
        out = FrameChart(self.dim, self.param, self.rho_directions)
        out.C = [[list(col) for col in row] for row in self.C]
        G = [[[self.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for c in range(n):
                for b in range(n):
                    acc = self.G[a][c][b]
                    if b == c:
                        acc = acc + upsilon[a]
                    if b == a:
                        acc = acc + upsilon[c]
                    G[a][c][b] = acc
        out.G = G
        out.weight_form = [self.weight_form[a] + upsilon[a] for a in range(n)]
        return out

    def substitute_param(self, param: str) -> "FrameChart":
        """Reinterpret a PLAIN chart in an s^2 parameterization of rho; a
        Levi-Civita chart stays one, its metric_inverse substituted too.

        The substitution is a ring map that commutes with d/drho, so the
        new chart's curvature is this chart's curvature substituted: it
        is computed here once (and cached on this chart) rather than
        again in s."""
        if self.param != PLAIN:
            raise ValueError("substitute_param expects a PLAIN chart")
        out = FrameChart(self.dim, param, self.rho_directions)
        out.C = [[[v.substitute_rho(param) for v in col] for col in row] for row in self.C]
        out.G = [[[v.substitute_rho(param) for v in col] for col in row] for row in self.G]
        if self.metric_inverse is not None:
            out.metric_inverse = [[v.substitute_rho(param) for v in row]
                                  for row in self.metric_inverse]
        R = self.curvature()
        out._cache["R"] = _tensor(R.dim, R.n_up, R.n_down, R.sym, out.zero(),
                                  {k: v.substitute_rho(param) for k, v in R.comps.items()})
        return out

    def negated_metric(self) -> "FrameChart":
        """For the Levi-Civita chart of g, that of -g: a constant factor
        leaves the Levi-Civita connection unchanged, so the new chart
        shares this one's brackets, connection and curvature cache (the
        chart of g is never changed in place), and its metric_inverse is
        -g^-1."""
        if self.metric_inverse is None:
            raise ValueError("negated_metric expects a Levi-Civita chart")
        out = FrameChart(self.dim, self.param, self.rho_directions)
        out.C, out.G, out.weight_form, out._cache = self.C, self.G, self.weight_form, self._cache
        out.metric_inverse = [[-v for v in row] for row in self.metric_inverse]
        return out

    def d_exterior(self, form: AltTensor) -> AltTensor:
        """Frame exterior derivative of a covariant alternating form,
        scattered from each stored omega_J: E_x(omega_J) goes to the sorted
        (x,) + J with the sort's sign, and C^e_ij (-1)^s omega_J for
        e = J_s, i < j to the sorted (i, j) + J minus e with the opposite
        sign.  It reads the brackets alone, not the connection."""
        n = self.dim
        by_e = [[] for _ in range(n)]
        for i, j in combinations(range(n), 2):
            for e, f in enumerate(self.C[i][j]):
                if not f.is_zero():
                    by_e[e].append((i, j, f))
        acc: Dict[tuple, CoeffFn] = {}
        for (_, J), w in form.comps.items():
            for x in self.rho_directions:
                key, sign = sort_with_sign((x,) + J)
                if sign:
                    _scatter(acc, ((), key), w.d_drho(), sign)
            for s, e in enumerate(J):
                rest = J[:s] + J[s + 1:]
                for i, j, f in by_e[e]:
                    key, sign = sort_with_sign((i, j) + rest)
                    if sign:
                        _scatter(acc, ((), key), f * w, sign if s % 2 else -sign)
        return _tensor(n, 0, form.n_down + 1, ALT, self.zero(), acc)
