import importlib.util
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from typing import List

import pytest

from g2trac import linalg, stable_forms as sf
from g2trac.frames import FrameChart
from g2trac.laurent import PLAIN
from g2trac.octonions import ImaginaryVector, g2_form
from g2trac.qm_family import REGRESSION_PARAMETERS, model_3form
from g2trac.scalars import DegenerateError, QScalar, SQRT2
from g2trac.stable_forms import (DEGENERATE, ClassificationError, cross_matrix, jtilde_matrix,
                                 lam, metric_from_3form7, slices)
from g2trac.tensors import ALT, NONE, SYM, AltTensor, _scatter, _tensor
from g2trac.tractor import slots, tractor_metric_from_phi
from support import _phi_norm_with, cross, dense_htilde, dense_jtilde


# -- insertion and the SU(3)-pair chain ------------------------------------------
# Oracles of these tests alone: the verifier never splits a 7-dim form
# into a compatible pair or inserts a vector into a form.


def interior(t: AltTensor, vec) -> AltTensor:
    """Insertion of a vector (component list) into the first slot: each
    stored T_K sends (-1)^s vec[K_s] T_K to K minus K_s."""
    if t.n_up or t.sym != ALT or t.n_down == 0:
        raise ValueError("interior product expects a covariant form of positive degree")
    acc = {}
    for (_, idx), v in t.comps.items():
        for s, a in enumerate(idx):
            va = vec[a]
            if not (hasattr(va, "is_zero") and va.is_zero()):
                _scatter(acc, ((), idx[:s] + idx[s + 1:]), va * v, -1 if s % 2 else 1)
    return _tensor(t.dim, 0, t.n_down - 1, ALT, t.zero, acc)


def eps_complex_from_3form(beta: AltTensor, orientation: int = 1):
    """(J, eps, vol) for a stable 3-form; J^2 = eps id exactly.

    orientation fixes the positive square root used for the volume
    normalization.  Unstable input raises ValueError.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    l = lam(beta)
    s = l.sign()
    if s == 0:
        raise ValueError("3-form is not stable (lambda vanishes)")
    eps = 1 if s > 0 else -1
    vol_coeff = (l * QScalar.of(eps)).sqrt()
    if orientation < 0:
        vol_coeff = -vol_coeff
    Jt = jtilde_matrix(beta)
    inv = vol_coeff.inverse()
    J = [[x * inv for x in row] for row in Jt]
    # defining identity
    J2 = linalg.mat_mul(J, J)
    for i in range(6):
        for j in range(6):
            want = QScalar.of(eps) if i == j else QScalar.zero()
            if not (J2[i][j] - want).is_zero():
                raise ClassificationError("induced endomorphism fails J^2 = eps id")
    if eps == 1:
        for target in (1, -1):
            M = [[J[i][j] - (QScalar.of(target) if i == j else QScalar.zero())
                  for j in range(6)] for i in range(6)]
            if len(linalg.nullspace(M)) != 3:
                raise ClassificationError("paracomplex eigenspaces are not (3,3)")
    vol = AltTensor.form(6, 6)
    vol.set((), tuple(range(6)), vol_coeff)
    return J, eps, vol


def _normalized_metric(phi: AltTensor, purpose: str):
    """(H, class) of a stable 7-dim 3-form; raises when the form is
    degenerate or its normalizer lies outside the coefficient field."""
    H, _, cls = metric_from_3form7(phi)
    if cls == DEGENERATE:
        raise DegenerateError(f"{purpose} needs a stable 3-form")
    if H is None:
        raise ValueError(f"{purpose} needs the normalizer (s/42)^(1/3) of the "
                         "3-form, which is not in Q(sqrt2,sqrt5)")
    return H, cls


def cross_from_3form7(phi: AltTensor):
    """Structure constants x^c_{ab} = H^{ck} phi_{kab}; the form-to-product
    side of the dictionary."""
    H, cls = _normalized_metric(phi, "a cross product")
    hinv = linalg.inverse(H.as_matrix())
    table = {}
    for a in range(7):
        X = cross_matrix(phi, hinv, a)
        for c in range(7):
            for b in range(7):
                if not X[c][b].is_zero():
                    table[(c, a, b)] = X[c][b]
    return table, cls


def is_compatible(omega: AltTensor, beta: AltTensor) -> bool:
    return omega.wedge(beta).is_zero()


def is_normalized(omega: AltTensor, beta: AltTensor, orientation: int = 1) -> bool:
    J, eps, _ = eps_complex_from_3form(beta, orientation)
    lhs = beta.pullback(J).wedge(beta)
    rhs = omega.wedge(omega).wedge(omega).scale(QScalar(Fraction(2, 3)))
    return (lhs - rhs).is_zero()


def normalized_orientation(omega: AltTensor, beta: AltTensor):
    """The orientation for which the pair is normalized, or None."""
    for orientation in (1, -1):
        if is_normalized(omega, beta, orientation):
            return orientation
    return None


def hermitian_metric_from_pair(omega: AltTensor, beta: AltTensor, orientation: int = 1):
    """g = eps omega(., J.) for the eps-complex structure J of beta."""
    J, eps, _ = eps_complex_from_3form(beta, orientation)
    oj = linalg.mat_mul(omega.as_matrix(), J)
    # symmetry of g is equivalent to compatibility; verify
    if any(not (oj[i][j] - oj[j][i]).is_zero() for i in range(6) for j in range(i + 1, 6)):
        raise ValueError("omega(., J.) is not symmetric; pair is incompatible")
    g = AltTensor.from_matrix([[v * QScalar.of(eps) for v in row] for row in oj], 6, 0, SYM)
    return g, J, eps


def assemble_g2_form(alpha: AltTensor, omega: AltTensor, beta: AltTensor) -> AltTensor:
    """Phi = alpha ^ omega + beta on the 7-dim extension.

    alpha is a 7-dim 1-form annihilating the 6-dim block; omega, beta are
    6-dim forms (compatible and normalized for one of the two
    orientations, verified).  Violations raise ValueError naming the
    failed identity.
    """
    if not is_compatible(omega, beta):
        raise ValueError("pair violates compatibility: omega ^ beta != 0")
    if normalized_orientation(omega, beta) is None:
        raise ValueError("pair violates normalization: J*beta ^ beta != (2/3) omega^3")
    omega7 = _extend_form(omega)
    beta7 = _extend_form(beta)
    return alpha.wedge(omega7) + beta7


def _extend_form(form: AltTensor) -> AltTensor:
    out = AltTensor.form(7, form.n_down)
    for (_, idx), v in form.comps.items():
        out.set((), idx, v)
    return out


def _restrict_form(form: AltTensor) -> AltTensor:
    out = AltTensor.form(6, form.n_down)
    for (_, idx), v in form.comps.items():
        if all(i < 6 for i in idx):
            out.set((), idx, v)
    return out


def split_by_unit_vector(phi: AltTensor, n: List[QScalar]):
    """(omega, beta) = (iota^*(n . Phi), iota^* Phi) for a unit/pseudo-unit n.

    n must satisfy H(n,n) = +-1 exactly; the complement is realized by an
    exact H-orthogonal change of basis sending n to the last basis leg.
    """
    Hm = _normalized_metric(phi, "split_by_unit_vector")[0].as_matrix()
    nn = linalg.sum_prod(linalg.mat_vec(Hm, n), n)
    if not (nn - QScalar.one()).is_zero() and not (nn + QScalar.one()).is_zero():
        raise ValueError("H(n, n) must be exactly +1 or -1")
    # basis of <n>^perp
    rows = [linalg.mat_vec(Hm, n)]
    comp = linalg.nullspace(rows)
    if len(comp) != 6:
        raise DegenerateError("orthocomplement of n is not 6-dimensional")
    # change of basis: columns = complement basis then n
    A = [[comp[j][i] for j in range(6)] + [n[i]] for i in range(7)]
    phi_ad = phi.pullback(A)
    omega = AltTensor.from_matrix([row[:6] for row in slices(phi_ad)[6][:6]], 6, 0, ALT)
    beta = _restrict_form(phi_ad)
    return omega, beta, A


def form(dim, degree, entries):
    t = AltTensor.form(dim, degree)
    for idx, c in entries:
        t.set((), tuple(i - 1 for i in idx), QScalar.of(c))
    return t


def beta_eps(eps):
    return form(6, 3, [((1, 3, 5), 1), ((1, 4, 6), eps), ((2, 3, 6), eps), ((2, 4, 5), eps)])


def phi_xi(xi):
    return form(7, 3, [((1, 2, 3), 1), ((1, 4, 5), xi), ((1, 6, 7), xi), ((2, 4, 6), xi),
                       ((2, 5, 7), -xi), ((3, 4, 7), -xi), ((3, 5, 6), -xi)])


NORMAL_FORMS = {
    sf.B1: form(6, 3, [((1, 2, 3), 1), ((4, 5, 6), 1)]),
    sf.B2: beta_eps(-1),
    sf.B3: form(6, 3, [((1, 5, 6), 1), ((2, 6, 4), 1), ((3, 4, 5), 1)]),
    sf.B4: form(6, 3, [((1, 2, 5), 1), ((3, 4, 5), 1)]),
    sf.B5: form(6, 3, [((1, 2, 3), 1)]),
    sf.B6: AltTensor.form(6, 3),
}


@pytest.mark.parametrize("eps", [1, -1])
def test_lambda_of_normal_stable_forms(eps):
    assert sf.lam(beta_eps(eps)) == QScalar(4 * eps)


def test_classification_of_all_six_normal_forms():
    for cls, beta in NORMAL_FORMS.items():
        assert sf.classify6(beta)["class"] == cls


def test_beta4_kernel_by_brute_force():
    beta = NORMAL_FORMS[sf.B4]
    # kernel = vectors whose insertion kills the form, found by enumeration
    count = 0
    for a in range(6):
        vec = [QScalar(1 if i == a else 0) for i in range(6)]
        if interior(beta, vec).is_zero():
            count += 1
    assert count == 1 and sf.classify6(beta)["kernel_dim"] == 1


def random_sl(rng, n):
    A = linalg.eye(n, QScalar(1), QScalar.zero())
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = linalg.eye(n, QScalar(1), QScalar.zero())
        E[i][j] = QScalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        A = linalg.mat_mul(A, E)
    return A


def test_classify6_constant_on_gl_orbits():
    rng = random.Random(13)
    for cls, beta in NORMAL_FORMS.items():
        for _ in range(50):
            A = random_sl(rng, 6)
            assert sf.classify6(beta.pullback(A))["class"] == cls


@pytest.mark.parametrize("eps", [1, -1])
def test_eps_complex_structure_action(eps):
    J, e, vol = eps_complex_from_3form(beta_eps(eps))
    assert e == eps
    for i in (0, 2, 4):
        assert J[i + 1][i] == QScalar(eps)
        assert J[i][i + 1] == QScalar(1)
    J2 = linalg.mat_mul(J, J)
    for i in range(6):
        for j in range(6):
            want = QScalar(eps) if i == j else QScalar.zero()
            assert (J2[i][j] - want).is_zero()
    assert vol.get((), tuple(range(6))) == QScalar(2)


def test_paracomplex_eigenspaces_have_dims_3_3():
    J, eps, _ = eps_complex_from_3form(beta_eps(1))
    assert eps == 1
    for target in (1, -1):
        M = [[J[i][j] - (QScalar(target) if i == j else QScalar.zero())
              for j in range(6)] for i in range(6)]
        assert len(linalg.nullspace(M)) == 3


def test_unstable_input_rejected():
    with pytest.raises(ValueError):
        eps_complex_from_3form(NORMAL_FORMS[sf.B4])


@pytest.mark.parametrize("xi", [1, -1])
def test_metric_from_phi_xi(xi):
    H, vol, cls = sf.metric_from_3form7(phi_xi(xi))
    assert cls == (sf.DEFINITE if xi == 1 else sf.SPLIT)
    M = H.as_matrix()
    for i in range(7):
        for j in range(7):
            want = QScalar(1 if i < 3 else xi) if i == j else QScalar.zero()
            assert (M[i][j] - want).is_zero()
    assert vol.get((), tuple(range(7))) == QScalar(1)


def test_phi_norm_is_42():
    for xi in (1, -1):
        phi = phi_xi(xi)
        H, _, _ = sf.metric_from_3form7(phi)
        hinv = linalg.inverse(H.as_matrix())
        assert _phi_norm_with(phi, hinv) == QScalar(42)


def phi_norm_by_slices(phi, hinv):
    """The sum of h^{aa'} <S_a, hinv S_a' hinv> over the slice matrices."""
    S = sf.slices(phi)
    raised = [linalg.mat_mul(hinv, linalg.mat_mul(s, hinv)) for s in S]
    acc = phi.zero
    for a, row in enumerate(hinv):
        for b, h in enumerate(row):
            if not h.is_zero():
                acc = acc + h * linalg.sum_prod([v for r in S[a] for v in r],
                                                [v for r in raised[b] for v in r])
    return acc


def _classify_workload_inputs(seed):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.classify_inputs(seed)


@pytest.mark.parametrize("xi", [1, -1])
def test_phi_norm_matches_slice_oracle_on_seed1_conjugates(xi):
    (A,) = _classify_workload_inputs(1)["sl7"][xi]
    phi = phi_xi(xi).pullback([[QScalar(x) for x in row] for row in A])
    hinv = linalg.inverse(sf.htilde_matrix(phi))
    got = _phi_norm_with(phi, hinv)
    assert not got.is_zero() and got == phi_norm_by_slices(phi, hinv)


def test_phi_norm_matches_slice_oracle_on_laurent_form(pkg_half):
    full = pkg_half.phi
    hinv = linalg.inverse_laurent(pkg_half.H.as_matrix())
    got = _phi_norm_with(full, hinv)
    assert got == phi_norm_by_slices(full, hinv) == pkg_half.chart.lift(42)


def test_degenerate_3form_returns_class_not_error():
    phi = form(7, 3, [((1, 2, 3), 1)])
    H, vol, cls = sf.metric_from_3form7(phi)
    assert cls == sf.DEGENERATE and H is None


def test_gl_congruence_of_H():
    rng = random.Random(17)
    for xi in (1, -1):
        phi = phi_xi(xi)
        H0, _, cls0 = sf.metric_from_3form7(phi)
        for _ in range(25):
            A = random_sl(rng, 7)
            HA, _, clsA = sf.metric_from_3form7(phi.pullback(A))
            assert clsA == cls0
            want = linalg.congruence(A, H0.as_matrix())
            got = HA.as_matrix()
            assert all((want[i][j] - got[i][j]).is_zero()
                       for i in range(7) for j in range(7))


@pytest.mark.parametrize("xi", [1, -1])
def test_metric_scaling_makes_no_zero_operand_field_op(xi):
    # htilde_matrix scales by 1/6 and metric_from_3form7 by the cube root
    # a matrix with zero entries: H_A = A^T H_0 A
    A = random_sl(random.Random(f"scale-zeros-{xi}"), 7)
    phi = phi_xi(xi).pullback(A)
    want = linalg.congruence(A, sf.metric_from_3form7(phi_xi(xi))[0].as_matrix())
    H, _, cls = sf.metric_from_3form7(phi)
    assert cls == (sf.DEFINITE if xi == 1 else sf.SPLIT) and H.as_matrix() == want
    assert any(not x for row in want for x in row)


@pytest.mark.parametrize("xi", [1, -1])
def test_signature_and_phi_norm_make_no_zero_operand_field_op(xi):
    # the signature's update meets zero entries of the active block, and
    # the phi-norm's sum starts at zero
    phi = phi_xi(xi).pullback(random_sl(random.Random(f"scale-zeros-{xi}"), 7))
    _, _, cls = sf.metric_from_3form7(phi)
    assert cls == (sf.DEFINITE if xi == 1 else sf.SPLIT)


@pytest.mark.parametrize("cls", [sf.B3, sf.B4, sf.B5, sf.B6])
def test_lambda_of_a_zero_trace_makes_no_zero_operand_field_op(cls):
    # tr(Jtilde^2) = 0 on the lambda = 0 strata, and lambda with it
    beta = NORMAL_FORMS[cls].pullback(random_sl(random.Random(f"lam-zeros-{cls}"), 6))
    got = sf.lam(beta)
    assert got.is_zero()
    assert sf.classify6(beta)["class"] == cls


def test_volume_coefficient_is_sl7_invariant():
    # A^* of the volume form is det(A) vol = vol, and A^* phi has metric A^T H0 A
    rng = random.Random(29)
    for xi in (1, -1):
        phi = phi_xi(xi)
        H0 = sf.metric_from_3form7(phi)[0].as_matrix()
        assert sf.phi_volume_with(phi, linalg.inverse(H0)) == QScalar(Fraction(1, 210))
        for _ in range(3):
            A = random_sl(rng, 7)
            hinv = linalg.inverse(linalg.congruence(A, H0))
            got = sf.phi_volume_with(phi.pullback(A), hinv)
            assert got == QScalar(Fraction(1, 210))


def phi_volume_by_alternation(phi, hinv):
    """The volume coefficient by its definition, as an oracle: with
    Psi_{ABCD} = phi_{KAB} h^{KL} phi_{LCD}, the signed sum over all
    orderings of the seven legs is 144 (Alt Psi ^ phi), and
    42 * 7! / 144 = 1470."""
    n = phi.dim
    S = sf.slices(phi)
    pairs = list(combinations(range(n), 2))
    stacked = [[s[c][d] for c, d in pairs] for s in S]
    psi = AltTensor(n, 0, 4, NONE, phi.zero)
    for a in range(n):
        for b, row in enumerate(linalg.mat_mul(linalg.mat_mul(S[a], hinv), stacked)):
            for (c, d), v in zip(pairs, row):
                if not v.is_zero():
                    psi.set((), (a, b, c, d), v)
                    psi.set((), (a, b, d, c), -v)
    top = psi.alternation().wedge(phi).get((), tuple(range(n)))
    return top * QScalar(Fraction(1, 1470))


def _random_symmetric(rng, n):
    A = [[QScalar.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = QScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return A


def test_phi_volume_trace_matches_alternation_on_sl7_conjugates():
    rng = random.Random(1)
    for xi in (1, -1):
        phi = phi_xi(xi)
        H0 = sf.metric_from_3form7(phi)[0].as_matrix()
        A = random_sl(rng, 7)
        conj = phi.pullback(A)
        for hinv in (linalg.inverse(linalg.congruence(A, H0)), _random_symmetric(rng, 7)):
            assert sf.phi_volume_with(conj, hinv) == phi_volume_by_alternation(conj, hinv)


def test_phi_volume_trace_matches_alternation_on_laurent_form(pkg_half):
    full = pkg_half.phi
    hinv = linalg.inverse_laurent(pkg_half.H.as_matrix())
    got = sf.phi_volume_with(full, hinv)
    assert not got.is_zero() and got == phi_volume_by_alternation(full, hinv)


@pytest.mark.parametrize("xi", [1, -1])
def test_model_3form_is_the_octonions_g2_form(xi):
    assert g2_form(xi) == phi_xi(xi)
    chart = FrameChart(6, PLAIN, rho_directions=(5,))
    lifted = AltTensor.form(7, 3, chart.zero())
    for (_, idx), v in phi_xi(xi).comps.items():
        lifted.set((), idx, chart.lift(v))
    assert model_3form(xi, chart) == lifted


@pytest.mark.parametrize("xi", [1, -1])
def test_class_needs_no_cube_root(xi):
    # t phi has H = t^(2/3) H0: its class follows sign s even when the
    # normalizer t^(-7/3) is not in the field
    phi = phi_xi(xi)
    H0, _, cls0 = sf.metric_from_3form7(phi)
    for t, factor in ((-1, 1), (8, 4), (-8, 4)):
        H, _, cls = sf.metric_from_3form7(phi.scale(QScalar(t)))
        assert cls == cls0 and (H - H0.scale(QScalar(factor))).is_zero()
    two_phi = phi.scale(QScalar(2))
    assert sf.metric_from_3form7(two_phi) == (None, None, cls0)
    with pytest.raises(ValueError, match="normalizer"):
        cross_from_3form7(two_phi)
    with pytest.raises(ValueError, match="normalizer"):
        split_by_unit_vector(two_phi, [QScalar.zero()] * 6 + [QScalar.one()])


@pytest.mark.parametrize("xi", [1, -1])
def test_dictionary_cross_product_from_form(xi):
    table, cls = cross_from_3form7(phi_xi(xi))
    for a in range(1, 8):
        for b in range(1, 8):
            want = cross(ImaginaryVector.basis(a, xi), ImaginaryVector.basis(b, xi)).comps
            for k in range(7):
                got = table.get((k, a - 1, b - 1), QScalar.zero())
                assert (got - want[k]).is_zero()


@pytest.mark.parametrize("xi", [1, -1])
def test_split_and_reassemble_round_trip(xi):
    phi = phi_xi(xi)
    n = [QScalar.zero()] * 6 + [QScalar.one()]
    omega, beta, A = split_by_unit_vector(phi, n)
    assert is_compatible(omega, beta)
    orient = normalized_orientation(omega, beta)
    assert orient is not None
    g, J, eps = hermitian_metric_from_pair(omega, beta, orient)
    assert eps == -xi
    assert g.signature_at(QScalar(1)) == ((6, 0) if xi == 1 else (3, 3))
    alpha = AltTensor.form(7, 1)
    alpha.set((), (6,), QScalar.one())
    rebuilt = assemble_g2_form(alpha, omega, beta)
    assert (rebuilt - phi.pullback(A)).is_zero()


def test_assemble_rejects_incompatible_pair():
    omega = form(6, 2, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])
    bad = form(6, 3, [((1, 2, 5), 1), ((1, 3, 5), 1)])
    alpha = AltTensor.form(7, 1)
    alpha.set((), (6,), QScalar.one())
    with pytest.raises(ValueError):
        assemble_g2_form(alpha, omega, bad)


def test_split_rejects_null_vector():
    phi = phi_xi(-1)
    null = [QScalar.one(), QScalar.zero(), QScalar.zero(),
            QScalar.one(), QScalar.zero(), QScalar.zero(), QScalar.zero()]
    with pytest.raises(ValueError):
        split_by_unit_vector(phi, null)


def test_adapted_frame_pair_assembles_to_stable_form():
    # the canonical (omega, nabla omega) pair of an adapted hermitian frame
    for eps in (1, -1):
        omega = form(6, 2, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])
        beta = beta_eps(eps)
        assert is_compatible(omega, beta)
        orient = normalized_orientation(omega, beta)
        assert orient is not None
        alpha = AltTensor.form(7, 1)
        alpha.set((), (6,), QScalar.one())
        phi = assemble_g2_form(alpha, omega, beta)
        H, vol, cls = sf.metric_from_3form7(phi)
        assert cls == (sf.SPLIT if eps == 1 else sf.DEFINITE)
        # H = g - eps alpha (x) alpha
        g, J, e2 = hermitian_metric_from_pair(omega, beta, orient)
        M = H.as_matrix()
        for i in range(6):
            for j in range(6):
                assert (M[i][j] - g.get((), (i, j))).is_zero()
            assert M[i][6].is_zero()
        assert (M[6][6] + QScalar(eps)).is_zero()


# -- slice forms against their direct index sums --------------------------------


def _sqrt2_hinv(rng, n=7):
    """Seeded symmetric invertible matrix with entries in Q(sqrt2)."""
    while True:
        M = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = QScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                v = v + SQRT2 * Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                M[i][j] = M[j][i] = v
        if linalg.rank(M) == n:
            return M


def _slice_inputs(case, pkg_half):
    if case == "laurent":
        full = pkg_half.phi
        return full, linalg.inverse_laurent(pkg_half.H.as_matrix())
    rng = random.Random(41)
    phi = phi_xi(-1).pullback(random_sl(rng, 7))
    hinv = _sqrt2_hinv(rng)
    # not the normalized metric of the conjugate
    H = sf.metric_from_3form7(phi)[0].as_matrix()
    assert linalg.inverse(H) != hinv
    return phi, hinv


def _nonzero_components(phi):
    n = phi.dim
    return [((a, b, c), phi.get((), (a, b, c))) for a in range(n) for b in range(n)
            for c in range(n) if not phi.get((), (a, b, c)).is_zero()]


@pytest.mark.parametrize("case", ["sl7", "laurent"])
def test_slice_forms_match_direct_index_sums(case, pkg_half):
    phi, hinv = _slice_inputs(case, pkg_half)
    n, zero = phi.dim, phi.zero
    S = sf.slices(phi)
    assert all(S[a][b][c] == phi.get((), (a, b, c))
               for a in range(n) for b in range(n) for c in range(n))
    for a in range(n):
        X = sf.cross_matrix(phi, hinv, a)
        for c in range(n):
            for b in range(n):
                want = zero
                for k in range(n):
                    want = want + hinv[c][k] * phi.get((), (k, a, b))
                assert X[c][b] == want
    comps = _nonzero_components(phi)
    want = zero
    for (a, b, c), v in comps:
        for (d, e, f), w in comps:
            h = hinv[a][d] * hinv[b][e] * hinv[c][f]
            if not h.is_zero():
                want = want + v * w * h
    assert not want.is_zero() and _phi_norm_with(phi, hinv) == want


# -- the split sums against the wedge definitions --------------------------------


def _unit(n, a):
    return [QScalar.one() if i == a else QScalar.zero() for i in range(n)]


def htilde_by_wedges(phi):
    """(1/6)(e_i . phi) ^ (e_j . phi) ^ phi on e^{1..7}, by interior and wedge."""
    ins = [interior(phi, _unit(7, a)) for a in range(7)]
    top = tuple(range(7))
    return [[ins[i].wedge(ins[j]).wedge(phi).get((), top) * QScalar(Fraction(1, 6))
             for j in range(7)] for i in range(7)]


def jtilde_by_wedges(beta):
    """Column a is kappa((e_a . beta) ^ beta): the 5-form's component on the
    legs other than r, times (-1)^r, in row r."""
    cols = []
    for a in range(6):
        gamma = interior(beta, _unit(6, a)).wedge(beta)
        cols.append([gamma.get((), tuple(i for i in range(6) if i != r)) * QScalar((-1) ** r)
                     for r in range(6)])
    return [[cols[a][r] for a in range(6)] for r in range(6)]


def _assert_same_matrix(got, want):
    assert all(got[i][j] == want[i][j] for i in range(len(want)) for j in range(len(want)))


def _assert_typed_like(M, form):
    assert all(type(x) is type(form.zero) for row in M for x in row)


def _assert_htilde_matches_wedges(phi):
    got = sf.htilde_matrix(phi)
    _assert_typed_like(got, phi)
    _assert_same_matrix(got, htilde_by_wedges(phi))
    _assert_same_matrix(got, dense_htilde(phi))


def _assert_jtilde_matches_wedges(beta):
    got = sf.jtilde_matrix(beta)
    _assert_typed_like(got, beta)
    _assert_same_matrix(got, jtilde_by_wedges(beta))
    _assert_same_matrix(got, dense_jtilde(beta))


def test_htilde_matches_wedge_definition_on_sl7_conjugates():
    rng = random.Random(53)
    for xi in (1, -1):
        for _ in range(2):
            _assert_htilde_matches_wedges(phi_xi(xi).pullback(random_sl(rng, 7)))


def test_htilde_matches_wedge_definition_on_laurent_form(pkg_half):
    _assert_htilde_matches_wedges(pkg_half.phi)


def test_jtilde_matches_wedge_definition_on_laurent_form(pkg_half):
    # the 3-form slot mu_bcd = Phi_bcd of the family on its 6-dim chart,
    # and the six legs of the family form after a constant change of frame
    _assert_jtilde_matches_wedges(slots(pkg_half.phi)[1])
    conj = pkg_half.phi.pullback(random_sl(random.Random("laurent-0"), 7))
    _assert_jtilde_matches_wedges(_tensor(6, 0, 3, ALT, conj.zero, {
        key: v for key, v in conj.comps.items() if max(key[1]) < 6}))


def test_jtilde_matches_wedge_definition():
    rng = random.Random(59)
    for beta in NORMAL_FORMS.values():
        for _ in range(2):
            _assert_jtilde_matches_wedges(beta.pullback(random_sl(rng, 6)))


# -- the trace identity against the full contraction ----------------------------


def trace_form(phi, hinv):
    """M_ab = phi_acd phi_bef h^ce h^df at every entry, from the dense slices:
    the sum of S_a[c][d] (h S_b h)[c][d] over all c, d."""
    S = sf.slices(phi)
    raised = [[v for r in linalg.mat_mul(hinv, linalg.mat_mul(s, hinv)) for v in r] for s in S]
    flat = [[v for r in s for v in r] for s in S]
    return [[linalg.sum_prod(fa, rb) for rb in raised] for fa in flat]


def _assert_trace_identity(phi, inverse):
    """M = (s/7) htilde entry for entry, and the s read at one entry is the
    full contraction phi_abc phi_def h^ad h^be h^cf."""
    ht, hinv, s = sf._trace_normalised(phi, inverse)
    assert hinv == inverse(sf.htilde_matrix(phi))
    assert type(s) is type(phi.zero) and not s.is_zero()
    assert s == _phi_norm_with(phi, hinv)
    seventh = s * QScalar(Fraction(1, 7))
    _assert_same_matrix(trace_form(phi, hinv), [[seventh * x for x in row] for row in ht])
    return ht, s


def _sl7_conjugates(xi):
    (A,) = _classify_workload_inputs(1)["sl7"][xi]
    rng = random.Random(f"trace-identity-{xi}")
    return [[[QScalar(x) for x in row] for row in A]] + [random_sl(rng, 7) for _ in range(25)]


@pytest.mark.parametrize("xi", [1, -1])
def test_trace_identity_on_phi_and_its_sl7_conjugates(xi):
    phi = phi_xi(xi)
    _, s = _assert_trace_identity(phi, linalg.inverse)
    assert s == QScalar(42)
    for A in _sl7_conjugates(xi):
        # s is an SL(7) invariant
        assert _assert_trace_identity(phi.pullback(A), linalg.inverse)[1] == s


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_trace_identity_on_the_family_form(family_package, m):
    _assert_trace_identity(family_package(m).phi, linalg.inverse_laurent)


def test_trace_identity_reads_s_through_laurent_long_division(pkg_half):
    # a constant SL(7, Q) change of frame mixes the monomial entries of the
    # family's htilde, so the entry s is read at has two terms and the
    # quotient needs CoeffFn's long division; s is unchanged
    phi = pkg_half.phi
    s = sf._trace_normalised(phi, linalg.inverse_laurent)[2]
    conj = phi.pullback(random_sl(random.Random("laurent-0"), 7))
    ht, got = _assert_trace_identity(conj, linalg.inverse_laurent)
    first = next(x for row in ht for x in row if x)
    assert len(first.terms) == 2
    assert got == s == pkg_half.chart.lift(-42)


def test_stable_metrics_raise_phi_by_no_pullback_and_take_no_congruence(monkeypatch, pkg_half):
    # htilde and s are read off the stored components: no dense U N U^T
    # congruence and no phi raised by a pullback
    forms = [phi_xi(1), phi_xi(-1).pullback(random_sl(random.Random(61), 7))]
    want = [sf.metric_from_3form7(phi) for phi in forms]
    want_tractor = tractor_metric_from_phi(pkg_half.chart, pkg_half.phi)

    def dense_route(*args):
        raise AssertionError("dense stable-form route")

    monkeypatch.setattr(AltTensor, "pullback", dense_route)
    monkeypatch.setattr(linalg, "congruence", dense_route)
    assert [sf.metric_from_3form7(phi) for phi in forms] == want
    assert tractor_metric_from_phi(pkg_half.chart, pkg_half.phi) == want_tractor
