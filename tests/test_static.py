"""Static checks on the ffgs sources, using the stdlib ast module only.

linalg stays ring-agnostic: every per-ring canonical-form rule lives on
the Ring classes, so linalg neither calls isinstance nor imports a
concrete ring.  No module imports a name it never uses, nor a private
(underscore-prefixed) name of another ffgs module.  Every name the
benchmark's tracer wraps exists."""

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffgs"
TRACER = SRC.parent.parent / "bench" / "tracer.py"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def ring_subclasses():
    """Names of the classes in rings.py that derive from Ring."""
    names = {"Ring"}
    classes = [n for n in parse(SRC / "rings.py").body
               if isinstance(n, ast.ClassDef)]
    grew = True
    while grew:
        grew = False
        for c in classes:
            bases = {b.id for b in c.bases if isinstance(b, ast.Name)}
            if c.name not in names and bases & names:
                names.add(c.name)
                grew = True
    return names - {"Ring"}


def imported_names(tree):
    """{bound name: line} for every import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out[bound] = node.lineno
    return out


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def test_ring_subclasses_are_found():
    assert {"PrimeField", "IntegersMod", "LocalizedIntegers",
            "DualNumbers"} <= ring_subclasses()


def test_linalg_has_no_ring_dispatch():
    tree = parse(SRC / "linalg.py")
    assert not [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Name) and n.id == "isinstance"]
    concrete = ring_subclasses()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not {a.name for a in node.names} & concrete, node.lineno


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree).items()
                   if name not in used]
    assert unused == []


def test_no_private_names_imported_across_modules():
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ffgs"):
                imported += [f"{path.name}:{node.lineno} {a.name}"
                             for a in node.names if a.name.startswith("_")]
    assert imported == []


def test_private_helpers_are_used():
    """Every private module-level function or class is referenced in
    src/ffgs outside its own definition: no helper outlives its callers."""
    trees = [parse(path) for path in sorted(SRC.glob("*.py"))]

    def references(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name

    everywhere = [name for tree in trees for name in references(tree)]
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere.count(node.name) == list(references(node)).count(node.name)
    ]
    assert unused == []


def is_zero_attribute(node):
    return isinstance(node, ast.Attribute) and node.attr == "zero"


def own_nodes(scope):
    """The nodes of a module or function, not descending into the
    functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


def names_bound_to_zero(nodes):
    """Names assigned from an attribute named zero, as in `Z = R.zero` or
    `Z, O = R.zero, R.one`."""
    names = set()
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            names |= {t.id for t, v in pairs
                      if isinstance(t, ast.Name) and is_zero_attribute(v)}
    return names


def zero_comparisons(tree):
    """Lines holding ==/!= against an attribute named zero, or against a
    name that the enclosing function, or a function around it, bound to
    one."""
    found = []

    def visit(scope, outer_zeros):
        nodes = list(own_nodes(scope))
        zeros = outer_zeros | names_bound_to_zero(nodes)
        for node in nodes:
            if isinstance(node, ast.FunctionDef):
                visit(node, zeros)
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ) and any(is_zero_attribute(x) or (isinstance(x, ast.Name) and x.id in zeros)
                      for x in [node.left, *node.comparators]):
                found.append(node.lineno)

    visit(tree, set())
    return sorted(set(found))


def test_zero_comparisons_are_found():
    tree = ast.parse("def f(R, x, y):\n"
                     "    Z, O = R.zero, R.one\n"
                     "    W = R.zero\n"
                     "    return x == Z, O != y, W != y, y == R.zero\n"
                     "def g(x):\n"
                     "    return x == Z\n")
    assert zero_comparisons(tree) == [4]
    tree = ast.parse("def f(R, x):\n"
                     "    Z = R.zero\n"
                     "    def g(y):\n"
                     "        acc = R.zero\n"
                     "        return y != Z, acc == y\n"
                     "    def h(acc):\n"
                     "        return acc == 0, x == R.zero\n")
    assert zero_comparisons(tree) == [5, 7]


def test_no_element_compared_with_zero():
    """The hot modules test elements with R.nonzero, never by ==/!=
    against R.zero or a local name for it: that comparison dispatches to
    the element's __eq__, which for a Fraction costs several times its
    truth test."""
    found = [f"{name}:{line}"
             for name in ("linalg.py", "hopf.py", "constructions.py", "structure.py")
             for line in zero_comparisons(parse(SRC / name))]
    assert found == []


@cache
def bound_names(module):
    """{name: node} for the top-level definitions of an ffgs module, with
    a name imported from another ffgs module resolved to its definition
    there."""
    out = {}
    for node in parse(SRC / f"{module}.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            for alias in node.names:
                found = bound_names(node.module).get(alias.name)
                if found is not None:
                    out[alias.asname or alias.name] = found
    return out


def test_tracer_targets_exist():
    """bench/tracer.py wraps each (module, qualified name) of its TARGETS
    and raises KeyError on a missing one, so deleting a traced name must
    fail here too."""
    targets = next(node.value for node in parse(TRACER).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing = []
    for entry in targets.elts:
        module, qual = (e.value for e in entry.elts[:2])
        node = bound_names(module).get(qual.split(".")[0])
        for attr in qual.split(".")[1:]:
            node = next((n for n in getattr(node, "body", ())
                         if isinstance(n, ast.FunctionDef) and n.name == attr), None)
        if node is None:
            missing.append(f"{module}.{qual}")
    assert len(targets.elts) > 40
    assert missing == []
