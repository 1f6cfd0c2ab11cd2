import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2trac import cli
from g2trac.qm_family import REGRESSION_PARAMETERS, build_model
from g2trac.scalars import QScalar
from g2trac.tensor_io import dump_tensor, load_tensor, tensor_from_json
from g2trac.tensors import AltTensor
from g2trac.verify import verify


def test_report_json_deterministic(pkg_half):
    rep1 = verify(pkg_half, depth="quick")
    rep2 = verify(pkg_half, depth="quick")
    assert rep1.to_json() == rep2.to_json()
    assert '"runtime": null' in rep1.to_json()


def test_quick_report_passes(pkg_half):
    rep = verify(pkg_half, depth="quick")
    assert rep.all_ok()
    names = [r.name for r in rep.records]
    assert "tractor.parallel-3form" in names
    assert "tractor.j-identities" in names


def test_full_report_structure(pkg_half):
    rep = verify(pkg_half, depth="full")
    assert rep.all_ok()
    payload = json.loads(rep.to_json())
    assert payload["all_pass"] is True
    statuses = {r["status"] for r in payload["records"]}
    assert statuses <= {"pass", "skipped"}
    # no silent omissions: skip records carry a reason
    for r in payload["records"]:
        if r["status"] == "skipped":
            assert r["detail"]


def test_full_report_of_a_package_without_family_parameter(pkg_half):
    # a package built from (chart, phi) alone carries no meta["m"]: the
    # coordinate generators belong to a family member, so their records are
    # skipped with a reason, and the frame-symmetry records still run
    from g2trac.geometry import build_package
    rep = verify(build_package(pkg_half.chart, pkg_half.phi), depth="full")
    assert rep.all_ok() and "m" not in rep.meta
    records = {r.name: r for r in rep.records}
    coordinate = [f"symmetry.xi{i}-preserves-distribution" for i in range(1, 7)]
    for name in coordinate + ["symmetry.xi7"]:
        assert records[name].status == "skipped" and records[name].detail
    for name in ("dilation-weight-2", "action-unique", "bare-sixth-fails"):
        assert records[f"symmetry.{name}"].status == "pass"


# sha256 of each full report: every byte of a report (values, details, record
# order) is fixed for identical inputs, so a refactor of a check must keep these.
FULL_REPORT_SHA256 = {
    Fraction(-1): "5072f5833f77078bc6aec623ac2245ab3f96a7ed4571acf0766f091cd163a302",
    Fraction(1, 3): "e1efc0bee8ae91c398327ade1937d7dfc431c1ff1987e15df16d00d6fa9bddb7",
    Fraction(1, 2): "1709f2dc609ec2b455cf0703648e280f746fc6e743bcee5275686ddaaef5bd3c",
    Fraction(7, 12): "62cfd59ed1e9d38e787bb5f35f58280fe74589f32eae48e968ba51e7309f6bdf",
    Fraction(2, 3): "b5299e39bd88f2649216a39a7c0ea76180c664de7ca499437e1e298d3046fdb2",
    Fraction(5, 6): "483495d8a25e109da6ff443df1b4e156ca6a8c92eaed5a0e3eead95bb4cfea7a",
    Fraction(2): "992d52d3856f999da375a1885013b6639057643ebcc7712e893b1be2b9737b32",
    Fraction(3): "630d88259eeec7f0dea16c0b258c1f0ae557ff12e0569212fbf1cb827b5c2dd8",
}


@pytest.mark.parametrize("m", REGRESSION_PARAMETERS, ids=str)
def test_full_report_bytes_are_pinned(family_package, m):
    report = verify(family_package(m), depth="full").to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == FULL_REPORT_SHA256[m]


ORBIT_REPORT_SHA256 = {
    (Fraction(-1), 1): "80fc1d57f706523f2f074231146fb0f63b13791aa00e0cd42074c9c3da49b2cb",
    (Fraction(-1), -1): "1dc695df458e7fd6ee21a0c80fd194042f143d439c491231c1d43404c870f4eb",
    (Fraction(1, 3), 1): "b79a1066333295ea6b1ad8c5d762aa665c143151ab078b09783913eaef87bb8b",
    (Fraction(1, 3), -1): "e8718f71873dab4fc8b1e8464b5faa62f68da3bbb4905213425a76d8724fb99b",
    (Fraction(1, 2), 1): "3311bb63e453f05c66423898e108be8b34e8a57734d8f9645b3836d948799b09",
    (Fraction(1, 2), -1): "8e728534b42e0167e8a1144f54ed9e7e623cdfc7d430e5356cdb44bb19602508",
    (Fraction(7, 12), 1): "949d8fe447d8492c71a04b4b38d4b36bbd49dfaf13596e215a6663e412268993",
    (Fraction(7, 12), -1): "28cf53abc4f2e95d469d1e763532415bd6478579e92f2c8b3cd48e157ba08afa",
    (Fraction(2, 3), 1): "9ce9d1db400f2a8b511b2d1d97d89d6e0de3c7085f500eb93c9289ecc9bf0b28",
    (Fraction(2, 3), -1): "6f32be22df223a6479382c43b88a6a468e432348e538785fe53e2354b99bd788",
    (Fraction(5, 6), 1): "42e43329295f615e301952419e90457e9c53b14f67e2a7d47cfedab1e0798375",
    (Fraction(5, 6), -1): "070cac8cc9fcb5ca5484d269910e01e02c090c3a5687230ba1666fd9d21cd469",
    (Fraction(2), 1): "b27614d01ee0041cb7467503fd0acad5e7db9e6f29609680b3e6cd8a70b053ea",
    (Fraction(2), -1): "bf0d3e12e127ae33d1a2c546b113cd7cf246fad560f9fd509deb3488ff5f8484",
    (Fraction(3), 1): "a83268878863f8c17482433a31e9cb90c7838f77f649299df76ae750d4fbceb5",
    (Fraction(3), -1): "f9981cfb1cdd3eced0038e99b1e0203886c579327660eca812e468797ed38daa",
}


@pytest.mark.parametrize("m, s", ORBIT_REPORT_SHA256, ids=str)
def test_orbit_report_bytes_are_pinned(capsys, m, s):
    assert cli.main(["orbit", "--m", str(m), "--s", str(s), "--report", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_REPORT_SHA256[m, s]


# sha256 of each file `g2trac export --m 1/2 --out DIR` writes
EXPORT_FILE_SHA256 = {
    "H_m_1_2.json": "147e714114980ea85f25d26971d56527a5c375a3a0ff6c666689b70f01058e87",
    "J_m_1_2.json": "ac5e5a4f711700ca7cf34ba494480536e9a62c8fd54dc36879641d02359d05a1",
    "phi_m_1_2.json": "c59feb519de52823e69c5b44316fd04778c4d5b36d643b86f1ab64cb483c3004",
}


def test_export_file_bytes_are_pinned(tmp_path, capsys):
    assert cli.main(["export", "--m", "1/2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(tmp_path)}
    assert got == EXPORT_FILE_SHA256


def test_definite_model_report():
    pkg = build_model(1)
    rep = verify(pkg, depth="full")
    assert rep.all_ok()
    names = {r.name: r for r in rep.records}
    assert names["tractor.parallel-3form"].status == "skipped"
    assert names["orbits.single-orbit"].status == "pass"
    assert names["orbits.definite-positive-einstein"].status == "pass"
    assert rep.meta["generic_type"] == "definite"


def test_split_model_report_quick():
    pkg = build_model(-1)
    rep = verify(pkg, depth="quick")
    assert rep.all_ok()
    assert rep.meta["generic_type"] == "split"


# -- tensor io ----------------------------------------------------------------


def test_tensor_json_round_trip(tmp_path):
    t = AltTensor.form(7, 3)
    t.set((), (0, 1, 2), QScalar(1))
    t.set((), (0, 3, 4), QScalar(0, 1))  # sqrt2
    path = tmp_path / "phi.json"
    dump_tensor(t, str(path))
    back = load_tensor(str(path))
    assert (back - t).is_zero()
    doc = json.loads(path.read_text())
    assert doc["dim"] == 7 and doc["valence"] == [0, 3] and doc["alt"] is True
    assert doc["entries"][0]["idx"] == [1, 2, 3]


def test_laurent_coefficients_round_trip(pkg_half, tmp_path):
    full = pkg_half.phi
    path = tmp_path / "family_phi.json"
    dump_tensor(full, str(path))
    back = load_tensor(str(path))
    assert (back - full).is_zero()


# -- CLI ------------------------------------------------------------------------


def write_phi_file(tmp_path, xi):
    t = AltTensor.form(7, 3)
    for idx, c in [((1, 2, 3), 1), ((1, 4, 5), xi), ((1, 6, 7), xi), ((2, 4, 6), xi),
                   ((2, 5, 7), -xi), ((3, 4, 7), -xi), ((3, 5, 6), -xi)]:
        t.set((), tuple(i - 1 for i in idx), QScalar(c))
    path = tmp_path / f"phi_{xi}.json"
    dump_tensor(t, str(path))
    return str(path)


def test_cli_classify_form_7d(tmp_path, capsys):
    rc = cli.main(["classify-form", "--file", write_phi_file(tmp_path, -1),
                   "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["class"] == "split" and out["signature"] == [3, 4]


def test_cli_classify_form_degenerate_exit_2(tmp_path, capsys):
    t = AltTensor.form(7, 3)
    t.set((), (0, 1, 2), QScalar(1))
    path = tmp_path / "deg.json"
    dump_tensor(t, str(path))
    rc = cli.main(["classify-form", "--file", str(path)])
    assert rc == 2


def test_cli_classify_form_6d(tmp_path, capsys):
    t = AltTensor.form(6, 3)
    for idx, c in [((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)]:
        t.set((), tuple(i - 1 for i in idx), QScalar(c))
    path = tmp_path / "beta.json"
    dump_tensor(t, str(path))
    rc = cli.main(["classify-form", "--file", str(path), "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["class"] == "beta2" and out["stable"]


def test_cli_verify_family_quick(capsys):
    rc = cli.main(["verify-family", "--m", "2/3", "--depth", "quick",
                   "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["all_pass"] is True


def test_cli_verify_family_invalid_m(capsys):
    assert cli.main(["verify-family", "--m", "1"]) == 2


def test_cli_orbit(capsys):
    rc = cli.main(["orbit", "--m", "1/2", "--s", "-1", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["orbit"] == "M-" and out["alpha"] == "-1"
    assert out["einstein_residual_zero"] and out["killing_yano_residual_zero"]


def test_cli_orbit_boundary_point(capsys):
    rc = cli.main(["orbit", "--m", "1/2", "--s", "0"])
    out = capsys.readouterr().out
    assert rc == 0 and "M0" in out


def test_cli_monge_check(capsys):
    assert cli.main(["monge-check", "--poly", "q^2 + p^3"]) == 0
    assert cli.main(["monge-check", "--poly", "q"]) == 1
    # a leading minus is a sign, not an empty term
    assert cli.main(["monge-check", "--poly", "-q^2 + p"]) == 0
    # a minus right after ^ is the exponent's: F = q^-1 is the member m = -1
    assert cli.main(["monge-check", "--poly", "q^-1"]) == 0
    assert capsys.readouterr().out.startswith("is235: True")


def test_cli_export_round_trip(tmp_path, capsys):
    rc = cli.main(["export", "--m", "1/2", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 3
    for name in files:
        doc = json.loads((tmp_path / name).read_text())
        t = tensor_from_json(doc)
        assert t.dim in (6, 7)
    capsys.readouterr()
    # exported coefficient-function 3-form classifies pointwise
    rc = cli.main(["classify-form", "--file", str(tmp_path / "phi_m_1_2.json"),
                   "--at", "1", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["class"] == "split"
    capsys.readouterr()
    # still split-generic on the zero locus (only the canonical direction
    # becomes null there, not the metric)
    rc = cli.main(["classify-form", "--file", str(tmp_path / "phi_m_1_2.json"),
                   "--at", "0", "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["class"] == "split"


def test_samples_env_override(monkeypatch, capsys):
    monkeypatch.setenv("G2TRAC_SAMPLES", "1,3")
    rc = cli.main(["verify-family", "--m", "2/3", "--depth", "quick",
                   "--report", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["meta"]["samples"] == "1,3"


@pytest.mark.parametrize("env", ["5,7/3", "0", "1,x"])
def test_orbit_does_not_read_the_samples_env(env, monkeypatch, capsys):
    # orbit reports one point: no sample list reaches its output
    monkeypatch.setenv("G2TRAC_SAMPLES", env)
    assert cli.main(["orbit", "--m", "1/2", "--s", "-1", "--report", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_REPORT_SHA256[Fraction(1, 2), -1]


VERIFY_QUICK = ["verify-family", "--m", "1/2", "--depth", "quick"]


@pytest.mark.parametrize("argv, env", [
    (VERIFY_QUICK + ["--samples", "0"], None),
    (VERIFY_QUICK + ["--samples", "1,0"], None),
    (VERIFY_QUICK + ["--samples", "abc"], None),
    (VERIFY_QUICK + ["--samples", "1/0"], None),
    (VERIFY_QUICK, "1,x"),
    (VERIFY_QUICK, "0"),
    (VERIFY_QUICK + ["--samples", ",,"], None),
    (VERIFY_QUICK + ["--samples", ""], None),
    (VERIFY_QUICK, ","),
])
def test_cli_bad_samples_exit_2(argv, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("G2TRAC_SAMPLES", env)
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


PHI_PLUS = [([1, 2, 3], 1), ([1, 4, 5], 1), ([1, 6, 7], 1), ([2, 4, 6], 1),
            ([2, 5, 7], -1), ([3, 4, 7], -1), ([3, 5, 6], -1)]


def tensor_doc(dim, degree, entries):
    """Tensor document with one coefficient row (one s-power) per entry."""
    return {"dim": dim, "valence": [0, degree], "alt": True, "param": "plain",
            "entries": [{"idx": idx, "coeff": [[str(c), "0", "0", "0"] for c in row]}
                        for idx, row in entries]}


def scaled_phi(xi, t):
    """t times the 3-form of the xi-algebra (write_phi_file's form)."""
    return tensor_doc(7, 3, [(idx, [t * c * (xi if i else 1)])
                             for i, (idx, c) in enumerate(PHI_PLUS)])


# 1 + s times the first component of the xi = 1 form: a Laurent file
LAURENT_PHI = tensor_doc(7, 3, [([1, 2, 3], [1, 1])] + [(i, [c]) for i, c in PHI_PLUS[1:]])
POLE = tensor_doc(6, 3, [([1, 2, 3], [1, 1]), ([4, 5, 6], [1])])
POLE["entries"][0]["offset"] = -1     # 1/s + 1: undefined at s = 0


def with_first_entry(doc, **fields):
    """doc with fields of its first entry replaced."""
    entries = [dict(doc["entries"][0], **fields)] + doc["entries"][1:]
    return dict(doc, entries=entries)


# (doc, extra argv, exit code, expected payload for exit 0)
CLASSIFY_CASES = {
    "2phi+": (scaled_phi(1, 2), [], 0, {"class": "definite", "signature": [7, 0]}),
    "2phi-": (scaled_phi(-1, 2), [], 0, {"class": "split", "signature": [3, 4]}),
    "2-form": (tensor_doc(7, 2, [([1, 2], [1])]), [], 2, None),
    "at-1/0": (LAURENT_PHI, ["--at", "1/0"], 2, None),
    "at-abc": (LAURENT_PHI, ["--at", "abc"], 2, None),
    # a file of rational entries is never evaluated, but --at is still read
    "at-abc-rational": (scaled_phi(1, 1), ["--at", "abc"], 2, None),
    "at-1/0-rational": (scaled_phi(1, 1), ["--at", "1/0"], 2, None),
    "json-list": ([1, 2, 3], [], 2, None),
    "index-9-in-dim-6": (tensor_doc(6, 3, [([1, 2, 9], [1])]), [], 2, None),
    "pole-at-0": (POLE, ["--at", "0"], 2, None),
    "coeff-1/0": (tensor_doc(7, 3, [([1, 2, 3], ["1/0"])] + [(i, [c]) for i, c in PHI_PLUS[1:]]),
                  [], 2, None),
    # [2, 1, 3] names e^{123} again, with the opposite sign
    "repeated-component": (tensor_doc(7, 3, [([1, 2, 3], [1]), ([2, 1, 3], [1])]
                                      + [(i, [c]) for i, c in PHI_PLUS[1:]]), [], 2, None),
    # a JSON number 0.1 would enter as its binary expansion
    "coeff-number": (with_first_entry(scaled_phi(1, 1), coeff=[[0.1, 0, 0, 0]]), [], 2, None),
    # int() would read these as leg 1, leg 1 and offset 0
    "index-1.7": (with_first_entry(scaled_phi(1, 1), idx=[1.7, 2, 3]), [], 2, None),
    "index-true": (with_first_entry(scaled_phi(1, 1), idx=[True, 2, 3]), [], 2, None),
    "offset-0.9": (with_first_entry(scaled_phi(1, 1), offset=0.9), [], 2, None),
    # written as raw text: json.dumps would itself recurse
    "nested-json": ("[" * 100_000, [], 2, None),
}


@pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
def test_cli_classify_form_input_cases(case, tmp_path, capsys):
    doc, extra, want_rc, want = CLASSIFY_CASES[case]
    path = tmp_path / "form.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = cli.main(["classify-form", "--file", str(path), "--report", "json"] + extra)
    captured = capsys.readouterr()
    assert rc == want_rc and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == (1 if want_rc == 2 else 0)
    if want_rc == 2:
        # a bad --at is reported before the file is read
        prefix = "invalid --at: " if case.startswith("at-") else "invalid tensor file: "
        assert captured.err.startswith(prefix)
    if want is not None:
        # the normalizer of 2 phi is not in the field: no metric diagonal
        assert json.loads(captured.out) == dict(want, dim=7)


@pytest.mark.parametrize("poly", ["q^2 + x^1/2", "q^2 + p^2.5", "q**2", "", "q^2 +",
                                  "q^-", "q^--1"])
def test_cli_monge_check_rejects_fractional_powers(poly, capsys):
    # only q takes rational powers; x, y, p and z were truncated before.
    # An empty factor or term is malformed too: q**2 was read as 2q (exit
    # 1), and '' and 'q^2 +' were accepted.  An exponent that is a bare
    # sign (q^-) or has two (q^--1) is malformed.
    rc = cli.main(["monge-check", "--poly", poly])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("m", ["1", "0", "abc", "1/0"])
@pytest.mark.parametrize("argv", [["verify-family", "--depth", "quick"],
                                  ["orbit", "--s", "1"], ["export"]], ids=lambda a: a[0])
def test_cli_bad_family_parameter_exit_2(argv, m, capsys):
    rc = cli.main(argv + [f"--m={m}"])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, option, value", [
    (["verify-family", "--depth", "quick", "--report", "json"], "--m", "-5/2"),
    (VERIFY_QUICK + ["--report", "json"], "--samples", "-1/2,1"),
    (["orbit", "--m", "1/2", "--report", "json"], "--s", "-1/2"),
    (["classify-form", "--report", "json"], "--at", "-1/2"),
    (["monge-check", "--report", "json"], "--poly", "-q^2"),
    (VERIFY_QUICK + ["--report", "json"], "--sam", "-1/2,1"),
], ids=["m", "samples", "s", "at", "poly", "abbreviated"])
def test_cli_option_takes_a_negative_value(argv, option, value, tmp_path, capsys):
    # `--opt -1/2` reads like `--opt=-1/2`, not as an unknown option
    if argv[0] == "classify-form":
        assert cli.main(["export", "--m", "1/2", "--out", str(tmp_path)]) == 0
        argv = argv + ["--file", str(tmp_path / "phi_m_1_2.json")]
    capsys.readouterr()
    rc = cli.main(argv + [option, value])
    captured = capsys.readouterr()
    assert rc == 0 and not captured.err
    assert cli.main(argv + [f"{option}={value}"]) == 0
    assert capsys.readouterr().out == captured.out
    out = json.loads(captured.out)
    if option == "--m":
        assert out["meta"]["m"] == value
    elif option == "--samples":
        assert out["meta"]["samples"] == value
    elif option == "--s":
        assert out["s"] == value and out["orbit"] == "M-"


@pytest.mark.parametrize("argv, doc, env", [
    (["orbit", "--m", "1/2", "--s", "1e400"], None, None),
    (["classify-form"], scaled_phi(-1, 10 ** 600), None),      # H is about 10^400
    (["monge-check", "--poly", "y^100000000000"], None, None),
    (["orbit", "--m", "1e10000000", "--s", "1"], None, None),
    (["orbit", "--m", "1/2", "--s", "1e10000000"], None, None),
    (["orbit", "--m", "1/2", "--s", "-1E-1_000_000"], None, None),
    (VERIFY_QUICK + ["--samples", "1,1e10000000"], None, None),
    (["classify-form", "--at", "1e10000000"], POLE, None),
    (["classify-form"], with_first_entry(scaled_phi(1, 1), coeff=[["1e10000000", "0", "0", "0"]]),
     None),
    (VERIFY_QUICK, None, "1e10000000"),
    (["monge-check", "--poly", "q^2+1e10000000*p"], None, None),
    (["monge-check", "--poly", "q^1e10000000"], None, None),
    (["classify-form"], tensor_doc(6, 3, [([1, 2, 3], ["1" + "0" * 2200]), ([4, 5, 6], [1])]),
     None),
    (["classify-form", "--at", "3"], with_first_entry(scaled_phi(1, 1), offset=1000000), None),
    (["classify-form", "--at", "1"], with_first_entry(scaled_phi(1, 1), offset=-1001), None),
    (["classify-form", "--at=1e1000"], with_first_entry(scaled_phi(1, 1), offset=1000), None),
    (["classify-form", "--at", "2"],
     with_first_entry(scaled_phi(1, 1), coeff=[["1" + "0" * 4000, "0", "0", "0"]], offset=1000),
     None),
], ids=["orbit-s", "classify-metric", "monge-exponent", "m-decimal-exponent",
        "s-decimal-exponent", "s-negative-decimal-exponent", "samples-decimal-exponent",
        "at-decimal-exponent", "coeff-decimal-exponent", "env-samples-decimal-exponent", "poly-coefficient-exponent",
        "poly-power-decimal-exponent", "lambda-digits", "s-exponent", "s-exponent-at-1",
        "evaluated-power-digits", "evaluated-value-digits"])
def test_cli_values_too_large_exit_2(argv, doc, env, tmp_path, capsys, monkeypatch):
    # tau ~ 10^800 and H ~ 10^400 are beyond the float range of the report,
    # y^e at the sample y = 2 would not fit in memory, and Fraction would
    # expand a decimal exponent of 10^7 into ten million digits, also in a
    # tensor file's coefficient; lambda ~ 10^4400 has too many digits to
    # print, s^1000000 and s^-1001 are beyond the exponent bound (at s = 1
    # too, where the value stays small), and (10^1000)^1000 at
    # --at=1e1000 and 10^4000 2^1000 at --at 2 beyond the size bound of an
    # evaluated entry
    if env is not None:
        monkeypatch.setenv("G2TRAC_SAMPLES", env)
    if doc is not None:
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--file", str(path)]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err


@pytest.fixture(scope="module")
def laurent_phi_file(tmp_path_factory):
    """s^3 times the split 3-form: H = s^2 H_0 has a metric diagonal at every s != 0."""
    doc = scaled_phi(-1, 1)
    doc["entries"] = [dict(e, offset=3) for e in doc["entries"]]
    path = tmp_path_factory.mktemp("fuzz") / "laurent_phi.json"
    path.write_text(json.dumps(doc))
    return str(path)


_exponent_notation = st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-800, 800))
_cli_numbers = st.one_of(
    _exponent_notation,
    st.integers(-(10 ** 700), 10 ** 700).map(str),
    st.builds("{}/{}".format, st.integers(-(10 ** 400), 10 ** 400), st.integers(-3, 10 ** 6)),
    st.sampled_from(["0", "-0", "1e", "e5", "inf", "nan", "1/0", "--1", " 1", "1_000"]),
    st.text(max_size=6))
_exponents = st.one_of(st.integers(-3, 6).map(str), _exponent_notation,
                       st.sampled_from(["100000000000", "-100000000000", "1000", "1001",
                                        "1/2", "-3/2", "1e3", "", "-"]))
_factors = st.one_of(
    st.builds("{}^{}".format, st.sampled_from("xypqz"), _exponents),
    st.sampled_from("xypqz"), _exponent_notation, st.integers(-9, 9).map(str))
_polys = st.lists(st.lists(_factors, min_size=1, max_size=3).map("*".join),
                  min_size=1, max_size=3).flatmap(
    lambda terms: st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms))
    .map(lambda signs: "".join(s + t for s, t in zip(signs, terms))))


# malformed tensor files: the split 3-form's document truncated, or with its
# dim, or its first entry's idx, offset or coefficient row, replaced
_SPLIT_PHI = scaled_phi(-1, 1)
_SPLIT_PHI_TEXT = json.dumps(_SPLIT_PHI)
_json_values = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                         st.lists(st.integers(-2, 9), max_size=4))
_tensor_texts = st.one_of(
    st.integers(0, len(_SPLIT_PHI_TEXT) - 1).map(lambda k: _SPLIT_PHI_TEXT[:k]),
    st.one_of(st.integers(-2, 12), _json_values).map(lambda v: dict(_SPLIT_PHI, dim=v)),
    st.lists(st.one_of(st.integers(-2, 10), _json_values), max_size=4).map(
        lambda v: with_first_entry(_SPLIT_PHI, idx=v)),
    st.one_of(st.integers(-(10 ** 9), 10 ** 9), _json_values).map(
        lambda v: with_first_entry(_SPLIT_PHI, offset=v)),
    st.lists(st.one_of(_cli_numbers, _json_values), max_size=5).map(
        lambda v: with_first_entry(_SPLIT_PHI, coeff=[v]))).map(
    lambda doc: doc if isinstance(doc, str) else json.dumps(doc))


@pytest.fixture(scope="module")
def fuzzed_tensor_file(tmp_path_factory):
    """The file each fuzzed tensor text is written to in turn."""
    return tmp_path_factory.mktemp("fuzz") / "fuzzed_tensor.json"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _cli_numbers.map(lambda v: (["orbit", "--m", "1/2", f"--s={v}"], None)),
    _cli_numbers.map(lambda v: (["orbit", f"--m={v}", "--s", "1"], None)),
    _cli_numbers.map(lambda v: (["verify-family", "--depth", "quick", f"--m={v}"], None)),
    _cli_numbers.map(lambda v: (["export", f"--m={v}"], None)),
    st.lists(_cli_numbers, max_size=3).map(",".join).map(
        lambda v: (["verify-family", "--depth", "quick", "--m", "1/2", f"--samples={v}"], None)),
    _cli_numbers.map(lambda v: (["classify-form", "--report", "json", f"--at={v}"], None)),
    _tensor_texts.map(lambda text: (["classify-form", "--report", "json"], text)),
    st.one_of(_polys, st.text(max_size=12)).map(lambda v: (["monge-check", f"--poly={v}"], None))))
def test_cli_fuzzed_values_keep_the_exit_code_contract(laurent_phi_file, fuzzed_tensor_file, case):
    argv, text = case
    if text is not None:
        fuzzed_tensor_file.write_text(text)
        argv = argv + ["--file", str(fuzzed_tensor_file)]
    elif argv[0] == "classify-form":
        argv = argv + ["--file", laurent_phi_file]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:      # argparse rejecting the command line
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv
    # a degenerate form exits 2 with its class on stdout and nothing on stderr
    assert len(err.getvalue().strip().splitlines()) <= 1, (argv, err.getvalue())


def test_cli_export_out_is_a_file_exit_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    rc = cli.main(["export", "--m", "1/2", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err
    assert target.read_text() == "not a directory\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, want_rc", [
    (["verify-family", "--m", "1/2", "--depth", "quick", "--report", "json"], 0),
    (["orbit", "--m", "1/2", "--s", "1", "--report", "json"], 0),
    (["monge-check", "--poly", "q", "--report", "json"], 1),
    (["--help"], 0),
], ids=["verify-family", "orbit", "monge-check-fails", "help"])
def test_cli_reader_closing_the_pipe_early_keeps_the_exit_code(argv, want_rc, unbuffered):
    # as `g2trac ... | head -1` does once it has its line: here the read
    # end is closed before the first write, so every write finds it closed.
    # Buffered output meets the closed pipe only at the final flush.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "g2trac.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == want_rc
    assert "Traceback" not in err and "BrokenPipeError" not in err
