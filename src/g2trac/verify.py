"""The verification battery over a geometry package, with reporting.

Every check lands in the report as pass/fail/skipped with a reason;
nothing is silently omitted.  Reports serialize deterministically
(identical inputs give byte-identical JSON; wall-clock time is shown
only in text output).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .boundary import (bgg_round_trip_defect, boundary_3form, boundary_connection_checks,
                       conformal_parallel_defect, distribution_checks, extract_distribution,
                       j0_checks, restrict_to_zero_locus)
from .geometry import (GeometryPackage, compactness_check, jfield_identity_defects,
                       normal_form_check, npk_extract, npk_verify, stratify)
from .linalg import signature as sig_of
from .qm_family import DEFAULT_SAMPLES, dw_checksum_defect
from .scalars import QScalar
from .stable_forms import DEFINITE, DEGENERATE, SIGNATURES
from .symmetries import (dilation_negative_control, frame_symmetry_system,
                         is_distribution_symmetry, symmetry_fields)
from .tractor import (d_cotractor_tensor, d_tractor_3form, phi_volume_ratio,
                      tractor_metric_hhdef, tractor_volume)


@dataclass
class Record:
    name: str
    status: str              # pass | fail | skipped
    detail: str = ""
    residual_max_degree: Optional[int] = None   # None <=> residual identically zero

    def as_dict(self):
        return {"name": self.name, "pass": self.status == "pass",
                "status": self.status, "detail": self.detail,
                "residual_max_degree": self.residual_max_degree}


@dataclass
class VerificationReport:
    records: List[Record] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    runtime: Optional[float] = None

    def add(self, name: str, ok: bool, detail: str = "", residual_max_degree=None):
        self.records.append(Record(name, "pass" if ok else "fail", detail,
                                   residual_max_degree))

    def skip(self, name: str, reason: str):
        self.records.append(Record(name, "skipped", reason))

    def all_ok(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_json(self) -> str:
        payload = {
            "meta": {k: str(v) for k, v in sorted(self.meta.items())},
            "records": [r.as_dict() for r in self.records],
            "zero_locus": [r.as_dict() for r in self.records
                           if r.name.startswith("zero_locus.")],
            "all_pass": self.all_ok(),
            "runtime": None,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.records), default=10)
        for k, v in sorted(self.meta.items()):
            lines.append(f"# {k} = {v}")
        for r in self.records:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[r.status]
            detail = f"  ({r.detail})" if r.detail else ""
            lines.append(f"[{mark}] {r.name:<{width}}{detail}")
        lines.append(f"=> {'ALL PASS' if self.all_ok() else 'FAILURES PRESENT'}"
                     + (f"  [{self.runtime:.1f}s]" if self.runtime is not None else ""))
        return "\n".join(lines)


# the per-side records of an open orbit, in report order
_ORBIT_RECORDS = ("hermitian", "killing-yano", "einstein", "scalar-curvature-sign",
                  "constant-type", "weyl-identity", "nijenhuis", "canonical-torsion-skew",
                  "nabla-j-norm-constant", "projectively-compact-order-2", "order-1-fails")

_NO_FAMILY_PARAMETER = ("no family parameter m in the package: the coordinate generators "
                        "are those of the family member z' = q^m")


def verify(pkg: GeometryPackage, depth: str = "full",
           samples: Optional[List[QScalar]] = None) -> VerificationReport:
    t0 = time.time()
    rep = VerificationReport()
    meta = dict(pkg.meta)
    samples = list(samples or meta.get("samples") or DEFAULT_SAMPLES)
    rep.meta["kind"] = meta.get("kind", "custom")
    if "m" in meta:
        rep.meta["m"] = meta["m"]
    rep.meta["samples"] = ",".join(str(s) for s in samples)
    rep.meta["depth"] = depth
    chart = pkg.chart
    is_qm = meta.get("kind") == "qm"

    rep.add("chart.jacobi", chart.is_jacobi())
    rep.add("chart.torsion-free", chart.is_torsion_free())
    rep.add("chart.special-scale", chart.is_special(),
            "frame volume parallel for the distinguished connection")
    ric = chart.ricci()
    rep.add("chart.ricci-symmetric",
            all(ric.get((), (a, b)) == ric.get((), (b, a))
                for a in range(pkg.dim) for b in range(a + 1, pkg.dim)))
    t1, t2 = chart.weyl_trace_defects()
    rep.add("chart.weyl-tracefree", all(v.is_zero() for v in t1 + t2))

    if is_qm:
        rep.add("family.transcription-checksum", dw_checksum_defect(pkg).is_zero(),
                "3-form slot re-derived from the 2-form and structure constants")

    if meta.get("algebraic_only"):
        rep.skip("tractor.parallel-3form",
                 "algebraic model package: the parallel model 3-form has "
                 "position-dependent components outside the one-variable "
                 "coefficient ring; algebraic identities are checked instead")
    else:
        worst_deg = None
        ok = True
        for a in range(pkg.dim):
            d = d_tractor_3form(chart, pkg.phi, a)
            if not d.is_zero():
                ok = False
                degs = [v.max_exp() for v in d.comps.values() if not v.is_zero()]
                if degs:
                    worst_deg = max(degs) if worst_deg is None else max(worst_deg, max(degs))
        rep.add("tractor.parallel-3form", ok, "all frame directions, all 35 slots",
                residual_max_degree=worst_deg)

    # tractor metric consistency and genericity typing
    ratio = phi_volume_ratio(chart, pkg.phi, pkg.Hinv, pkg.htilde)
    orient = 1 if ratio.coeff(ratio.min_exp()).sign() > 0 else -1
    rep.meta["phi_volume_ratio"] = repr(ratio)
    H2 = tractor_metric_hhdef(chart, pkg.phi, orient)
    rep.add("tractor.metric-consistency", (H2 - pkg.H).is_zero(),
            f"epsilon-contraction route agrees at orientation {orient:+d}")
    sigs = {pkg.H.signature_at(s) for s in samples}
    if len(sigs) == 1:
        sig = sigs.pop()
        cls = next((k for k, v in SIGNATURES.items() if v == sig), None)
        rep.add("tractor.generic-type", cls is not None, f"signature {sig} -> {cls}")
    else:
        cls = None
        rep.add("tractor.generic-type", False, f"signature varies across samples: {sigs}")
    rep.meta["generic_type"] = cls or DEGENERATE

    rep.add("tractor.j-identities",
            all(v.is_zero() for v in jfield_identity_defects(pkg)),
            "J X = 0 and J^2 = -tau id + X (x) X-flat")
    vol = tractor_volume(chart)
    volp = all(d_cotractor_tensor(chart, vol, a).is_zero() for a in range(pkg.dim))
    rep.add("tractor.volume-parallel", volp)

    st = stratify(pkg, samples=[s for s in samples] + [-s for s in samples])
    rep.meta["tau"] = repr(st.tau)
    if cls == DEFINITE:
        rep.add("orbits.single-orbit", not st.zero_locus_nonempty
                and all(v == "M+" for v in st.labels.values()),
                "tau positive everywhere; zero locus empty")
        # Einstein sign via the block form of H in the tau-scale
        Hm = pkg.H.as_matrix()
        tau0 = pkg.tau.constant_value() if pkg.tau.is_constant() else None
        blk_ok = tau0 is not None and tau0.sign() > 0
        if blk_ok:
            block = [[(Hm[a][b] * tau0.inverse()).constant_value()
                      for b in range(6)] for a in range(6)]
            blk_ok = sig_of(block) == (6, 0)
        rep.add("orbits.definite-positive-einstein", bool(blk_ok),
                "block form of H in the tau-scale: metric definite, "
                "scalar curvature sign positive")
    else:
        rep.add("orbits.stratification", st.zero_locus_nonempty and st.dtau_nonzero_on_zero_locus,
                f"labels {st.labels}; boundary regular (d tau nonzero)")
        nf = normal_form_check(pkg)
        rep.add("orbits.collar-normal-form", nf["ok"], str(nf))

    if depth == "quick" or cls == DEFINITE:
        if depth != "quick":
            rep.skip("orbits.npk", "no collar stratification on the definite model")
        rep.runtime = time.time() - t0
        return rep

    # open-orbit nearly (para-)Kahler structure, both sides
    for side, tag in ((1, "M+"), (-1, "M-")):
        pre = f"orbits.{tag}"
        if not nf["ok"]:
            for name in _ORBIT_RECORDS:
                rep.skip(f"{pre}.{name}", "H is not in collar normal form: "
                                          "no collar metric g_side to extract")
            continue
        nrep = npk_verify(npk_extract(pkg, side))
        rep.add(f"{pre}.hermitian", nrep.hermitian_ok, f"eps = {nrep.eps:+d}")
        rep.add(f"{pre}.killing-yano", nrep.ky_residual_zero)
        rep.add(f"{pre}.einstein", nrep.einstein_zero, f"alpha = {nrep.alpha}")
        want = 1 if side > 0 else -1
        rep.add(f"{pre}.scalar-curvature-sign", nrep.scalar_curvature_sign == want,
                f"sign {nrep.scalar_curvature_sign} (expected {want:+d})")
        rep.add(f"{pre}.constant-type", nrep.constant_type_ok)
        rep.add(f"{pre}.weyl-identity", nrep.weyl_identity_zero)
        rep.add(f"{pre}.nijenhuis", nrep.nijenhuis_ok)
        rep.add(f"{pre}.canonical-torsion-skew", nrep.canonical_torsion_skew)
        rep.add(f"{pre}.nabla-j-norm-constant", nrep.nabla_j_norm_constant,
                f"<dJ,dJ> = {nrep.nabla_j_norm}")
        c2 = compactness_check(pkg, side, Fraction(2))
        c1 = compactness_check(pkg, side, Fraction(1))
        rep.add(f"{pre}.projectively-compact-order-2", c2.regular)
        rep.add(f"{pre}.order-1-fails", not c1.regular,
                f"pole order {c1.worst_pole} remains at order 1")

    flat = chart.is_projectively_flat()
    if "flat_expected" in meta:
        rep.add("curvature.flatness-discrimination", flat == bool(meta["flat_expected"]),
                f"tractor curvature {'vanishes' if flat else 'nonzero'}"
                f" (expected {'flat' if meta['flat_expected'] else 'nonflat'})")
    else:
        rep.add("curvature.flatness-computed", True, f"flat = {flat}")

    # zero locus geometry
    bd = restrict_to_zero_locus(pkg)
    rep.add("zero_locus.conformal-signature",
            bd.conformal.g0.signature_at(QScalar.zero()) == (2, 3))
    jc = j0_checks(bd)
    rep.add("zero_locus.j0-identities", all(jc.values()),
            ", ".join(k for k, v in jc.items() if not v) or "rank 2, kernel 3, filtration (1,3,4,6)")
    try:
        dist = extract_distribution(bd)
        dc = distribution_checks(bd, dist)
        rep.add("zero_locus.distribution-three-ways", True,
                "im J0 = ker omega = declared span")
        rep.add("zero_locus.distribution-facts", all(dc.values()),
                ", ".join(k for k, v in dc.items() if not v) or f"growth {dist.growth}")
    except RuntimeError as exc:
        rep.add("zero_locus.distribution-three-ways", False, str(exc))
    bc = boundary_connection_checks(pkg, bd)
    rep.add("zero_locus.connection-compatibility", all(bc.values()),
            ", ".join(k for k, v in bc.items() if not v) or "ambient data encodes the conformal connection")
    trip = bgg_round_trip_defect(bd)
    rep.add("zero_locus.bgg-round-trip", trip.is_zero(), "all four slots")
    par = conformal_parallel_defect(boundary_3form(bd), bd.conformal)
    rep.add("zero_locus.bgg-output-parallel", all(v.is_zero() for v in par))

    # symmetries: the coordinate generators are those of the family member m
    names = ("xi1", "xi2", "xi3", "xi4", "xi5", "xi6")
    if "m" not in meta:
        for name in names:
            rep.skip(f"symmetry.{name}-preserves-distribution", _NO_FAMILY_PARAMETER)
        rep.skip("symmetry.xi7", _NO_FAMILY_PARAMETER)
    else:
        m = Fraction(meta["m"])
        fields = symmetry_fields(m)
        for name in names:
            rep.add(f"symmetry.{name}-preserves-distribution",
                    is_distribution_symmetry(fields[name], m))
        if fields["xi7"] is None:
            rep.skip("symmetry.xi7", "antiderivative leaves the polynomial class at this m; "
                                     "stored as None, not verified")
        else:
            rep.skip("symmetry.xi7", "stored with antiderivative constant 0; excluded "
                                     "from assertions (undetermined constant)")
    sym2, kernel_dim = frame_symmetry_system(pkg, Fraction(2))
    rep.add("symmetry.dilation-weight-2", sym2 is not None,
            "constant frame action with weight-2 dilation preserves "
            "brackets, connection and the parallel 3-form")
    rep.add("symmetry.action-unique", kernel_dim == 0)
    rep.add("symmetry.bare-sixth-fails", dilation_negative_control(pkg, sym2),
            "same group action without the dilation does not preserve the 3-form")

    rep.runtime = time.time() - t0
    return rep
