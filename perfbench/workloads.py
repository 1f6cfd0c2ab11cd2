"""Seeded inputs, items and output checks for the three benchmark workloads.

An item is one call into g2trac whose output is checked after it returns;
a pass is the list of items a workload runs once.  The seed picks the
inputs; the program only ever sees the generated inputs.

* verify_full: one item per pass, `build_qm(1/2)` and the full battery,
  the path of `g2trac verify-family --m 1/2`.  The only workload that runs
  the symmetry solver, the nearly (para-)Kahler and compactness checks
  and the zero-locus checks.
* quick_sweep: one item per regression parameter, `build_qm` and the
  quick battery.  It never reaches the symmetry solver, so it is the
  control on which a solver or `rref` change must show no change.
* classify_orbits: SL(6,Q) and SL(7,Q) conjugates of the normal forms
  and null split-octonion vectors; pointwise field arithmetic with growing
  denominators and no Laurent layer.

In the verify workloads the seed picks only the sample points, so their
Laurent work is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

# Program functions are called through their modules, so that the tracer's
# wrappers on the module attributes see every call.
from g2trac import octonions, qm_family, stable_forms
from g2trac import verify as battery
from g2trac.octonions import ImaginaryVector
from g2trac.qm_family import REGRESSION_PARAMETERS, FamilyParams
from g2trac.scalars import QScalar
from g2trac.tensors import AltTensor

WORKLOADS = ("verify_full", "quick_sweep", "classify_orbits")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
FULL_PARAMETER = Fraction(1, 2)
# Verify workload -> (battery depth, parameters m, one item each).
VERIFY = {"verify_full": ("full", (FULL_PARAMETER,)),
          "quick_sweep": ("quick", REGRESSION_PARAMETERS)}

# Items of the three kinds cost about 0.04-0.28 s (classify6), 0.25-0.6 s
# (null_filtration) and 0.9-1.4 s (metric_from_3form7).  The counts put the
# median item inside the classify6 cluster and keep fewer than ten
# metric_from_3form7 items in a run, so that neither item_ref_s.p50 nor
# item_ref_s.tail sits in a gap between two kinds, where it would jump.
SL6_PER_FORM = 4
SL7_PER_FORM = 1
NULL_VECTORS = 14


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    items: List[Item]            # one pass
    warmup: List[Item]           # untimed; fills module-level lazy caches


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def report_digest(rep) -> str:
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def record_list(rep):
    return [f"{r.status} {r.name}" for r in rep.records]


# -- verify workloads ----------------------------------------------------------


def verify_samples(seed: int) -> List[Fraction]:
    """Three nonzero rationals with distinct absolute values: s = 0 is the zero
    locus of tau, so every sample lies on an open orbit."""
    rng = random.Random(f"verify:{seed}")
    out: List[Fraction] = []
    while len(out) < 3:
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if abs(s) not in {abs(t) for t in out}:
            out.append(s)
    return out


def verify_item(m: Fraction, depth: str, samples: List[Fraction], expected: Optional[dict],
                seed_digest: Optional[str]) -> Item:
    """build_qm + verify at m; the report must pass, carry the expected records
    and serialize to the same bytes on every pass (and to the stored bytes at
    the seed the digests were recorded with)."""
    pts = tuple(QScalar(s) for s in samples)
    seen = []

    def run():
        pkg = qm_family.build_qm(FamilyParams(m, samples=pts))
        return battery.verify(pkg, depth=depth, samples=list(pts))

    def check(rep) -> bool:
        digest = report_digest(rep)
        if not seen:
            seen.append(digest)
        ok = rep.all_ok() and digest == seen[0]
        if expected is not None:
            ok = ok and record_list(rep) == expected["records"]
        if seed_digest is not None:
            ok = ok and digest == seed_digest
        return ok

    return Item(f"{depth}:m={m}", run, check)


def _verify_workload(name: str, seed: int) -> Workload:
    samples = verify_samples(seed)
    depth, params = VERIFY[name]
    expected_all = load_expected()
    expected = expected_all[name]
    at_seed = seed == expected_all["seed"]
    items = [verify_item(m, depth, samples, expected[str(m)],
                          expected[str(m)]["sha256"] if at_seed else None)
             for m in params]
    # The quick battery at 1/2 touches every module-level lazy cache the
    # battery uses (tractor._psr_cache); the per-chart FrameChart cache is
    # rebuilt inside every item, as in every CLI call.
    quick = expected_all["quick_sweep"][str(FULL_PARAMETER)]
    warm = verify_item(FULL_PARAMETER, "quick", samples, quick, None)
    return Workload(name, items, [warm])


# -- classify_orbits -----------------------------------------------------------


def _form(dim: int, degree: int, entries) -> AltTensor:
    t = AltTensor.form(dim, degree)
    for idx, c in entries:
        t.set((), tuple(i - 1 for i in idx), QScalar(c))
    return t


def normal_forms6():
    """The six orbit normal forms of 3-forms on R^6, by class."""
    return {
        stable_forms.B1: _form(6, 3, [((1, 2, 3), 1), ((4, 5, 6), 1)]),
        stable_forms.B2: _form(6, 3, [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1),
                                      ((2, 4, 5), -1)]),
        stable_forms.B3: _form(6, 3, [((1, 5, 6), 1), ((2, 6, 4), 1), ((3, 4, 5), 1)]),
        stable_forms.B4: _form(6, 3, [((1, 2, 5), 1), ((3, 4, 5), 1)]),
        stable_forms.B5: _form(6, 3, [((1, 2, 3), 1)]),
        stable_forms.B6: AltTensor.form(6, 3),
    }


def phi_xi(xi: int) -> AltTensor:
    """The G2 3-form phi_{+1} (definite) or phi_{-1} (split); its metric is
    H0 = diag(1,1,1,xi,xi,xi,xi)."""
    return _form(7, 3, [((1, 2, 3), 1), ((1, 4, 5), xi), ((1, 6, 7), xi), ((2, 4, 6), xi),
                        ((2, 5, 7), -xi), ((3, 4, 7), -xi), ((3, 5, 6), -xi)])


def random_sl(rng: random.Random, n: int) -> List[List[Fraction]]:
    """Product of 2n elementary matrices with entries p/q, |p| <= 2, q <= 3."""
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        # A <- A E with E = 1 + f e_ij: column j gains f times column i
        for r in range(n):
            A[r][j] += f * A[r][i]
    return A


def random_null_vector(rng: random.Random) -> List[Fraction]:
    """Rational point on the split null cone (form diag(1,1,1,-1,-1,-1,-1)),
    by projection from the null vector e1 + e4."""
    g = [1, 1, 1, -1, -1, -1, -1]
    base = [1, 0, 0, 1, 0, 0, 0]
    while True:
        w = [Fraction(rng.randint(-9, 9)) for _ in range(7)]
        qw = sum(gi * x * x for gi, x in zip(g, w))
        if qw == 0:
            if any(w):
                return w
            continue
        bw = sum(gi * b * x for gi, b, x in zip(g, base, w))
        t = -2 * bw / qw
        x = [b + t * wi for b, wi in zip(base, w)]
        if any(x):
            return x


def _as_matrix(A):
    return [[QScalar(x) for x in row] for row in A]


def _congruence(A, xi: int):
    """A^T H0 A over Q, H0 = diag(1,1,1,xi,...)."""
    n = len(A)
    h = [1, 1, 1, xi, xi, xi, xi]
    return [[sum(A[k][i] * h[k] * A[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _is_rational_matrix(M, want) -> bool:
    return all(M[i][j].as_strings() == [str(want[i][j]), "0", "0", "0"]
               for i in range(len(want)) for j in range(len(want)))


def _spread(groups):
    """Interleave item groups so that any prefix of a pass has every kind in
    proportion."""
    keyed = [((k + 0.5) / len(g), gi, item) for gi, g in enumerate(groups)
             for k, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def classify_inputs(seed: int):
    """The seeded inputs: SL matrices and null vectors over Q."""
    rng = random.Random(f"classify:{seed}")
    sl6 = {cls: [random_sl(rng, 6) for _ in range(SL6_PER_FORM)] for cls in normal_forms6()}
    sl7 = {xi: [random_sl(rng, 7) for _ in range(SL7_PER_FORM)] for xi in (1, -1)}
    null = [random_null_vector(rng) for _ in range(NULL_VECTORS)]
    return {"sl6": sl6, "sl7": sl7, "null": null}


def _classify_workload(seed: int) -> Workload:
    inputs = classify_inputs(seed)
    forms = normal_forms6()
    g6 = []
    for cls, mats in inputs["sl6"].items():
        for k, A in enumerate(mats):
            beta, QA = forms[cls], _as_matrix(A)
            g6.append(Item(f"classify6:{cls}:{k}",
                           lambda beta=beta, QA=QA: stable_forms.classify6(beta.pullback(QA)),
                           lambda out, cls=cls: out["class"] == cls))
    g7 = []
    for xi, mats in inputs["sl7"].items():
        phi = phi_xi(xi)
        want_cls = stable_forms.DEFINITE if xi == 1 else stable_forms.SPLIT
        for k, A in enumerate(mats):
            QA, want_H = _as_matrix(A), _congruence(A, xi)
            g7.append(Item(
                f"metric7:{xi:+d}:{k}",
                lambda phi=phi, QA=QA: stable_forms.metric_from_3form7(phi.pullback(QA)),
                lambda out, c=want_cls, w=want_H: (out[2] == c and
                                                    _is_rational_matrix(out[0].as_matrix(), w))))
    gn = []
    for k, x in enumerate(inputs["null"]):
        vec = ImaginaryVector([QScalar(c) for c in x], -1)

        def run(vec=vec):
            f = octonions.null_filtration(vec)
            return f.dims(), f.kernel_isotropic(), f.chain_ok(), f.mapping_ok()

        gn.append(Item(f"null:{k}", run, lambda out: out == ((1, 3, 4, 6), True, True, True)))
    items = _spread([g6, g7, gn])
    # One untimed item of each kind; the null item fills the octonion
    # structure table.
    warmup = [g6[0], g7[0], gn[0]]
    return Workload("classify_orbits", items, warmup)


def make_workload(name: str, seed: int) -> Workload:
    if name == "classify_orbits":
        return _classify_workload(seed)
    if name in VERIFY:
        return _verify_workload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
