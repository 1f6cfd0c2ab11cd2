"""JSON serialization for tensors and coefficient functions.

Tensor documents look like

    {"dim": 7, "valence": [0, 3], "alt": true, "param": "plain",
     "entries": [{"idx": [1, 2, 3], "coeff": [["1","0","0","0"]]}]}

dim, valence, idx and offset are JSON integers.  idx tuples are 1-based
and strictly increasing for alternating storage.  A coeff is a list of
quadruples of rational strings (components on 1, sqrt2, sqrt5, sqrt10);
list position i encodes the s-exponent offset + i, with "offset"
defaulting to 0 and recorded per entry when nonzero; the exponent of a
nonzero coefficient is at most MAX_EXPONENT in absolute value.
"""

from __future__ import annotations

import json
from typing import Optional

from .laurent import PLAIN, CoeffFn
from .scalars import MAX_EXPONENT, QScalar
from .tensors import ALT, NONE, SYM, AltTensor


def coeff_to_json(f: CoeffFn):
    if f.is_zero():
        return {"coeff": [], "offset": 0}
    lo, hi = f.min_exp(), f.max_exp()
    rows = [f.coeff(e).as_strings() for e in range(lo, hi + 1)]
    out = {"coeff": rows}
    if lo != 0:
        out["offset"] = lo
    return out


def _json_int(v, what: str) -> int:
    # int() would truncate 1.7 and accept true
    if type(v) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {json.dumps(v)}")
    return v


def coeff_from_json(entry, param: str) -> CoeffFn:
    rows = entry.get("coeff", [])
    offset = _json_int(entry.get("offset", 0), "offset")
    terms = {}
    for i, quad in enumerate(rows):
        q = QScalar.from_strings(quad)
        if not q.is_zero():
            if abs(offset + i) > MAX_EXPONENT:
                raise ValueError(f"s-exponent {offset + i} is beyond {MAX_EXPONENT}")
            terms[offset + i] = q
    return CoeffFn(terms, param)


def tensor_to_json(t: AltTensor, param: Optional[str] = None) -> dict:
    entries = []
    for (up, down), v in sorted(t.comps.items()):
        f = v if isinstance(v, CoeffFn) else CoeffFn.of(v)
        e = coeff_to_json(f)
        e["idx"] = [i + 1 for i in (tuple(up) + tuple(down))]
        entries.append(e)
    doc = {
        "dim": t.dim,
        "valence": [t.n_up, t.n_down],
        "alt": t.sym == ALT,
        "entries": entries,
    }
    if t.sym == SYM:
        doc["symmetric"] = True
    doc["param"] = param or (t.zero.param if isinstance(t.zero, CoeffFn) else PLAIN)
    return doc


def tensor_from_json(doc: dict) -> AltTensor:
    if not isinstance(doc, dict):
        raise ValueError(f"a tensor document is a JSON object, not {type(doc).__name__}")
    dim = _json_int(doc["dim"], "dim")
    n_up, n_down = (_json_int(v, "valence") for v in doc.get("valence", [0, 0]))
    sym = ALT if doc.get("alt") else (SYM if doc.get("symmetric") else NONE)
    param = doc.get("param", PLAIN)
    values = []
    keys = []
    for e in doc.get("entries", []):
        idx = [_json_int(i, "idx") - 1 for i in e["idx"]]
        if len(idx) != n_up + n_down:
            raise ValueError("entry index length does not match valence")
        if any(not 0 <= i < dim for i in idx):
            raise ValueError(f"entry index {[i + 1 for i in idx]} outside 1..{dim}")
        keys.append((tuple(idx[:n_up]), tuple(idx[n_up:])))
        values.append(coeff_from_json(e, param))
    scalar = all(v.is_constant() for v in values)
    zero = QScalar.zero() if scalar else CoeffFn.zero(param)
    out = AltTensor(dim, n_up, n_down, sym, zero)
    seen = set()
    for (up, down), v in zip(keys, values):
        key, sign = out._canon(up, down)
        if sign and key in seen:
            raise ValueError(f"component {[i + 1 for i in up + down]} is given twice")
        seen.add(key)
        out.set(up, down, v.constant_value() if scalar else v)
    return out


def load_tensor(path: str) -> AltTensor:
    with open(path) as fh:
        return tensor_from_json(json.load(fh))


def dump_tensor(t: AltTensor, path: str, param: Optional[str] = None) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(tensor_to_json(t, param), indent=2, sort_keys=True) + "\n")
