"""src/g2trac ships only what the program runs.

Every top-level function and every method defined in src/g2trac must be
referenced from program code: from src/ outside its own body, from
scripts/, or from the benchmark's non-test perfbench/*.py, where the
tracer's SPAN_TARGETS and OP_TARGETS name their targets as strings.  Dunder
methods are called by the language and are exempt.  A helper that only the
tests call lives beside them: in the one test module that uses it, or in
tests/support.py when two or more do.

A top-level function is referenced by an attribute read of its name
(`octonions.f`), or by a bare read of its name in its own module or in a
file that imports that name from g2trac (under its alias, if it has one).
A method is referenced only by an attribute read of its name.  So a local
variable, a module or a function of another file that shares a
definition's name does not count as its caller.  An attribute read still
cannot tell its receiver's type: a method that shares its name with an
attribute of another type read in program code, such as a dict's `.items`
or a record's `.all_ok`, counts as called.

A zero operand is the rings' job: QScalar and CoeffFn return 0 + x, x - 0,
0 - x and 0 * x at once.  So no conditional expression in src/g2trac
tests a name x only to return x where the ring op on x would give the
zero it holds (`x * c if x else x`, `-v if v else v`).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "g2trac"

# Definitions the program does not call yet, each with why it stays.
ALLOWED = {
    "qm_family.expected_tractor_metric":
        "the paper's displayed tractor metric, to be checked against the extracted H "
        "as a report record",
    "qm_family.displayed_endomorphism":
        "the paper's displayed tractor endomorphism, to become a report record",
    "qm_family.displayed_orbit_metric":
        "the paper's displayed orbit metric g, to become a report record",
    "qm_family.displayed_orbit_kahler_form":
        "the paper's displayed orbit Kahler form omega, to become a report record",
    "qm_family.displayed_orbit_complex_structure":
        "the paper's displayed orbit complex structure J, to become a report record",
    "tractor.scale_3form":
        "the scale change of the rebuilt 3-form in the forward theorem's records",
    "qm_family.build_model":
        "the definite model package, to be replaced by a nearly Kahler S^3 x S^3 package",
    "scalars.QScalar.sqrt":
        "the exact square root; tests/test_scalars.py asserts through the method",
}


def _definitions():
    """(qualified name, def node) of every top-level function and method in
    src/g2trac, dunders excluded."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{path.stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                out.extend((f"{path.stem}.{node.name}.{sub.name}", sub)
                           for sub in node.body
                           if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (sub.name.startswith("__") and sub.name.endswith("__")))
    return out


def _reads(tree):
    """(bare, attrs): how often each name is read as a variable and as an
    attribute in tree."""
    bare = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    attrs = Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return bare, attrs


def _g2trac_imports(tree):
    """{local name: (module, name)} of the names tree imports from a module
    of g2trac, absolutely or (inside the package) relatively."""
    return {alias.asname or alias.name: (node.module.split(".")[-1], alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
            and (node.level or node.module.split(".")[0] == "g2trac")
            for alias in node.names}


def _tracer_targets(tree):
    """'module.path' of each (module, path, key) in SPAN_TARGETS and OP_TARGETS."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPAN_TARGETS", "OP_TARGETS")
                for t in node.targets):
            out.update(f"{module}.{path}" for module, path, _ in ast.literal_eval(node.value))
    return out


def _uncalled():
    """Qualified names of the src definitions no program code references."""
    program = (sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
               + sorted(SRC.glob("*.py")))
    attrs, bare, targets = Counter(), Counter(), set()   # bare: (module, name) -> reads
    for path in program:
        tree = ast.parse(path.read_text())
        names, read = _reads(tree)
        attrs += read
        # a bare name reads a src function in its own module, elsewhere
        # only through an import from g2trac
        for local, key in _g2trac_imports(tree).items():
            bare[key] += names[local]
        if path.parent == SRC:
            bare.update({(path.stem, name): n for name, n in names.items()})
        targets |= _tracer_targets(tree)
    out = set()
    for qualname, node in _definitions():
        if qualname in targets:
            continue
        own_bare, own_attrs = _reads(node)
        # a name a definition reads in its own body (recursion) does not call it
        n = attrs[node.name] - own_attrs[node.name]
        module, *cls = qualname.split(".")[:-1]
        if not cls:
            n += bare[module, node.name] - own_bare[node.name]
        if n <= 0:
            out.add(qualname)
    return out


def test_every_src_function_has_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert sorted(uncalled - set(ALLOWED)) == []
    # an entry whose definition gained a caller, or went, leaves the list
    assert sorted(set(ALLOWED) - uncalled) == []


def _zero_guards(tree):
    """Line of each conditional expression whose test is a name x, whose
    else branch is x and whose body is a binary or unary op on x."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Name)
                and isinstance(node.orelse, ast.Name) and node.orelse.id == node.test.id):
            continue
        body = node.body
        operands = ([body.left, body.right] if isinstance(body, ast.BinOp)
                    else [body.operand] if isinstance(body, ast.UnaryOp) else [])
        if any(isinstance(v, ast.Name) and v.id == node.test.id for v in operands):
            out.append(node.lineno)
    return sorted(out)


def test_zero_guard_shape_is_recognised():
    tree = ast.parse("y = [x * c if x else x for x in r]\n"
                     "z = -v if v else v\n"
                     "w = a * b if b else b\n"
                     "u = x + 1 if x else y\n"
                     "t = f(x) if x else x\n"
                     "s = a * b if x else x\n")
    assert _zero_guards(tree) == [1, 2, 3]


def test_no_call_site_guards_a_zero_ring_operand():
    guards = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
              for line in _zero_guards(ast.parse(path.read_text()))]
    assert guards == []
