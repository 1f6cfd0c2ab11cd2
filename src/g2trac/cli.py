"""Command line interface.

Subcommands: classify-form, verify-family, orbit, monge-check, export.
Exit codes: 0 success / all checks pass, 1 verification failure,
2 invalid or degenerate input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .coordfields import parse_rational
from .scalars import DegenerateError, QScalar
from .laurent import PLAIN


def _parse_samples(text: str):
    """Comma-separated nonzero rationals, at least one; ValueError names
    the bad one."""
    out = []
    for chunk in text.split(","):
        if chunk.strip():
            s = parse_rational(chunk)
            if s == 0:
                raise ValueError("0 is excluded (samples must avoid s = 0)")
            out.append(QScalar(s))
    if not out:
        raise ValueError(f"{text!r} lists no sample")
    return out


# options whose value may begin with a minus sign, here and in scripts/:
# rationals, sample lists, orbit_profile.py's point list and Monge polynomials
_SIGNED_VALUE_OPTIONS = ("--m", "--s", "--samples", "--points", "--at", "--poly")


def _join_signed_values(argv):
    """Rewrite `--opt -1/2` as `--opt=-1/2` for the options above and
    their abbreviations.

    argparse reads a token that starts with '-' as an option unless it
    looks like a plain negative number, so `--m -1/2` or `--poly -q^2`
    would stop with "expected one argument"."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        signed = len(tok) > 2 and tok.startswith("--") \
            and any(o.startswith(tok) for o in _SIGNED_VALUE_OPTIONS)
        if signed and nxt and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _family_parameter(text: str):
    """--m as a Fraction, or None after one stderr line when it is not a
    rational other than 0 and 1 (the caller then exits 2)."""
    try:
        m = parse_rational(text)
    except ValueError as exc:
        print(f"invalid family parameter: {exc}", file=sys.stderr)
        return None
    if m in (0, 1):
        print("the family parameter must avoid 0 and 1", file=sys.stderr)
        return None
    return m


def _emit(*lines: str) -> None:
    """Print lines to stdout and flush.  Once the reader has closed the
    pipe (as `| head` does), stdout is pointed at os.devnull: the rest of
    the output is dropped, and the exit code stays the one the run
    reaches."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _default_samples():
    env = os.environ.get("G2TRAC_SAMPLES")
    if env:
        return _parse_samples(env)
    return None


# Size bound of an entry classify-form evaluates: an integer of at most
# MAX_BITS bits has at most 4,300 digits, CPython's default limit on
# int-string conversion, which the rational strings of a tensor file
# already meet.
MAX_BITS = (10 ** 4300).bit_length() - 1


def cmd_classify_form(args) -> int:
    from .laurent import CoeffFn
    from .tensor_io import load_tensor
    from .tensors import ALT, AltTensor
    from . import stable_forms as sf
    try:
        at = QScalar(parse_rational(args.at))
    except ValueError as exc:
        print(f"invalid --at: {exc}", file=sys.stderr)
        return 2
    try:
        t = load_tensor(args.file)
        if t.n_up or t.n_down != 3 or t.sym != ALT:
            raise ValueError("expected a 3-form: valence [0, 3] with alternating storage")
        if isinstance(t.zero, CoeffFn):
            # pointwise classification of a coefficient-function tensor
            pt = AltTensor(t.dim, t.n_up, t.n_down, t.sym)
            for (up, down), v in t.comps.items():
                idx = [i + 1 for i in tuple(up) + tuple(down)]
                if at.is_zero() and v.min_exp() < 0:
                    raise ValueError(f"component {idx} has a pole at s = 0")
                # neither a power of at nor the value may pass MAX_BITS bits
                if max(map(abs, v.terms), default=0) * (at.bit_length() - 1) >= MAX_BITS \
                        or (x := v.eval(at)).bit_length() > MAX_BITS:
                    raise ValueError(f"component {idx} passes {MAX_BITS} bits at s = {args.at}")
                pt.set(up, down, x)
            t = pt
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"invalid tensor file: {exc}", file=sys.stderr)
        return 2
    dim = args.dim or t.dim
    if dim != t.dim:
        print(f"file has dim {t.dim}, --dim says {dim}", file=sys.stderr)
        return 2
    if dim == 6:
        info = sf.classify6(t)
        try:
            lam = str(info["lambda"])
        except ValueError:      # more digits than int-to-string conversion allows
            print("lambda is too long to print", file=sys.stderr)
            return 2
        payload = {"dim": 6, "class": info["class"], "lambda": lam,
                   "kernel_dim": info["kernel_dim"], "stable": info["class"] in (sf.B1, sf.B2)}
        degenerate = not payload["stable"]
    elif dim == 7:
        H, vol, cls = sf.metric_from_3form7(t)
        payload = {"dim": 7, "class": cls}
        if cls != sf.DEGENERATE:
            payload["signature"] = list(sf.SIGNATURES[cls])
        if H is not None:
            # omitted when the normalizer is not in the field
            try:
                payload["metric_diagonal"] = [float(H.as_matrix()[i][i]) for i in range(7)]
            except OverflowError:
                print("metric entries are beyond the float range of the report", file=sys.stderr)
                return 2
        degenerate = cls == sf.DEGENERATE
    else:
        print("only dimensions 6 and 7 are supported", file=sys.stderr)
        return 2
    if args.report == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(*(f"{k}: {v}" for k, v in payload.items()))
    return 2 if degenerate else 0


def _build_package(m: Fraction, samples):
    from .qm_family import FamilyParams, build_qm
    params = FamilyParams(m, samples=tuple(samples) if samples else ())
    return build_qm(params)


def cmd_verify_family(args) -> int:
    from .verify import verify
    m = _family_parameter(args.m)
    if m is None:
        return 2
    try:
        samples = _parse_samples(args.samples) if args.samples is not None \
            else _default_samples()
    except ValueError as exc:
        print(f"invalid samples: {exc}", file=sys.stderr)
        return 2
    pkg = _build_package(m, samples)
    rep = verify(pkg, depth=args.depth, samples=samples)
    _emit(rep.to_json() if args.report == "json" else rep.to_text())
    return 0 if rep.all_ok() else 1


def cmd_orbit(args) -> int:
    from .geometry import npk_extract, npk_verify, orbit_label
    m = _family_parameter(args.m)
    if m is None:
        return 2
    try:
        s = parse_rational(args.s)
    except ValueError as exc:
        print(f"invalid --s: {exc}", file=sys.stderr)
        return 2
    pkg = _build_package(m, None)
    # s is the signed collar coordinate: the point has rho = s * |s|
    rho = QScalar(s * abs(s))
    tau_val = pkg.tau.eval(rho)       # PLAIN: the variable is rho itself
    try:
        tau_float = float(tau_val)
    except OverflowError:
        print("invalid --s: tau there is beyond the float range of the report", file=sys.stderr)
        return 2
    sign = tau_val.sign()
    payload = {"m": str(m), "s": str(s), "tau": tau_float, "orbit": orbit_label(sign)}
    if sign != 0:
        orb = npk_extract(pkg, 1 if sign > 0 else -1)
        rep = npk_verify(orb)
        payload.update({
            "eps": rep.eps,
            "killing_yano_residual_zero": rep.ky_residual_zero,
            "einstein_residual_zero": rep.einstein_zero,
            "alpha": str(rep.alpha),
            "scalar_curvature_sign": rep.scalar_curvature_sign,
            "weyl_identity_zero": rep.weyl_identity_zero,
            "nabla_j_norm": str(rep.nabla_j_norm),
        })
    if args.report == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(*(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_monge_check(args) -> int:
    from .coordfields import monge_check, parse_monge_polynomial
    try:
        F = parse_monge_polynomial(args.poly)
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"cannot parse polynomial: {exc}", file=sys.stderr)
        return 2
    res = monge_check(F)
    if args.report == "json":
        _emit(json.dumps(res, indent=2, sort_keys=True, default=str))
    else:
        _emit(f"is235: {res['is235']}", *(
            f"  point {s['point']}: growth {s['growth']}, "
            f"d2F/dq2 nonzero: {s['fqq_nonzero']}" for s in res["samples"]))
    return 0 if res["is235"] else 1


def cmd_export(args) -> int:
    from .tensor_io import dump_tensor, tensor_to_json
    from .tensors import AltTensor
    m = _family_parameter(args.m)
    if m is None:
        return 2
    pkg = _build_package(m, None)
    Jt = AltTensor.from_matrix([row[:6] for row in pkg.Jt[:6]], 6, 1, zero=pkg.chart.zero())
    tensors = {"phi": pkg.phi, "H": pkg.H, "J": Jt}
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, t in tensors.items():
                path = os.path.join(args.out, f"{name}_m_{m.numerator}_{m.denominator}.json")
                dump_tensor(t, path, PLAIN)
                _emit(path)
        except OSError as exc:
            print(f"cannot write to --out: {exc}", file=sys.stderr)
            return 2
    else:
        docs = {name: tensor_to_json(t, PLAIN) for name, t in tensors.items()}
        _emit(json.dumps(docs, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="g2trac", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify-form", help="orbit type of a 3-form (dim 6 or 7)")
    p.add_argument("--file", required=True)
    p.add_argument("--dim", type=int, choices=(6, 7))
    p.add_argument("--at", default="1",
                   help="evaluation point for coefficient-function tensors")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_classify_form)

    p = sub.add_parser("verify-family", help="run the verification battery at a parameter")
    p.add_argument("--m", required=True, help="rational family parameter P/Q")
    p.add_argument("--depth", choices=("quick", "full"), default="full")
    p.add_argument("--samples", help="comma-separated rational s samples")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify_family)

    p = sub.add_parser("orbit", help="orbit data at a collar point")
    p.add_argument("--m", required=True)
    p.add_argument("--s", required=True,
                   help="signed collar coordinate; the point has rho = s|s|")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("monge-check", help="bracket growth of a Monge-form distribution")
    p.add_argument("--poly", required=True, help="polynomial in x, y, p, q, z")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_monge_check)

    p = sub.add_parser("export", help="dump a package's 3-form, metric and endomorphism")
    p.add_argument("--m", required=True)
    p.add_argument("--out", help="directory for JSON files (stdout if omitted)")
    p.set_defaults(fn=cmd_export)

    try:
        args = ap.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except DegenerateError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    finally:
        _emit()   # what is still buffered, e.g. --help text


if __name__ == "__main__":
    raise SystemExit(main())
