"""Static checks on the ffgs sources, using the stdlib ast module only.

linalg stays ring-agnostic: every per-ring canonical-form rule lives on
the Ring classes, so linalg neither calls isinstance nor imports a
concrete ring, and outside rings.spectrum and rings._direct_hom no code
tests a ring's class.  Rings are made in rings.py and by the test-ring
family only.  No module imports a name it never uses, nor a private
(underscore-prefixed) name of another ffgs module.  Every name the
benchmark's tracer wraps exists.  Ring maps are built in rings.py only
(find_hom), apart from the Frobenius twist.  Only constructions.kernel
closes an ideal under multiplication: every other subgroup is cut out by
the kernel of an algebra map, an ideal already.  pi is read off the
ideal's rows, the Hopf-ideal report, the subgroup scheme and normality
read membership and tables through pi alone, homomorphisms and
convolutions read sparse rows, every map f(v) is hopf.project and every
map f (x) g on A (x) A is hopf.map_tensor.  Delta(v) and ad(v) come in
map_tensor's form, the sorted nonzero (j, k, c), so no code that makes
one converts it from a dict.  An element of A comes in the same one
form, the sorted nonzero (x, c), so no code converts a product, an
antipode, a power or a pull-back to it, nor a projection back to a dense
vector; hopf, constructions and structure import no dense vector helper,
and a homomorphism keeps its algebra map once, as alg.  The one true
division, a / b, is rings._quotient, which keeps an integral quotient in
Q an int.  point_is_hom, the tangent rows and the lifts take their pairs
from GroupScheme.hom_pairs and loop over no pair of basis indices.  A
GroupScheme has one constructor: no module defines from_tables or calls
__new__."""

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


def ring_class_tests(tree, allowed=()):
    """Lines of the isinstance calls that name a class of ring_subclasses(),
    outside the functions named in allowed."""
    concrete = ring_subclasses()
    spans = [(n.lineno, n.end_lineno) for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name in allowed]
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
                and len(n.args) == 2):
            continue
        classes = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
        named = {getattr(c, "id", getattr(c, "attr", None)) for c in classes}
        if named & concrete and not any(a <= n.lineno <= b for a, b in spans):
            found.append(n.lineno)
    return sorted(found)


def test_only_spectrum_and_direct_hom_branch_on_ring_classes():
    """The points of Spec R and their residue fields (rings.spectrum) and
    the maps between rings (rings._direct_hom) are the only code that
    asks which class a ring is; everything else reads them, or the Ring
    interface."""
    allowed = ("spectrum", "_direct_hom")
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in ring_class_tests(parse(path), allowed)]
    assert found == []
    assert ring_class_tests(parse(SRC / "rings.py")), "spectrum branches"
    tree = ast.parse("def spectrum(R):\n    return isinstance(R, PrimeField)\n"
                     "def f(R, x):\n"
                     "    return (isinstance(R, (int, rings.DualNumbers)),\n"
                     "            isinstance(R, Ring), isinstance(x, str))\n")
    assert ring_class_tests(tree, allowed) == [4]
    assert ring_class_tests(tree) == [2, 4]


def ring_constructions(tree):
    """Lines of the calls of a class of ring_subclasses(), by name or
    attribute."""
    concrete = ring_subclasses()
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) in concrete)


def test_rings_are_made_in_rings_and_testrings_only():
    """A ring's local parts, residue fields and maps come from rings.py
    (Ring.local_parts, spectrum, find_hom), and the test-ring family is
    the one other module that makes rings of its own."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name not in ("rings.py", "testrings.py")
             for line in ring_constructions(parse(path))]
    assert found == []
    assert ring_constructions(parse(SRC / "testrings.py")), "the family makes rings"
    tree = ast.parse("def f(n):\n    return IntegersMod(n)\n"
                     "def g(k):\n    return rings.DualNumbers(k), Ring(), int(k)\n")
    assert ring_constructions(tree) == [2, 4]


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


def is_property(node):
    """Whether a def is decorated with property or functools.cached_property."""
    names = {getattr(d, "attr", getattr(d, "id", None)) for d in node.decorator_list}
    return bool(names & {"property", "cached_property"})


def test_tracer_targets_exist():
    """bench/tracer.py wraps each (module, qualified name) of its TARGETS
    and raises KeyError on a missing one, so deleting a traced name must
    fail here too.  Tracer.install wraps cls.__dict__[attr] as a plain
    function, so a traced method must not be a property either."""
    targets = next(node.value for node in parse(TRACER).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing, descriptors = [], []
    for entry in targets.elts:
        module, qual = (e.value for e in entry.elts[:2])
        node = bound_names(module).get(qual.split(".")[0])
        for attr in qual.split(".")[1:]:
            node = next((n for n in getattr(node, "body", ())
                         if isinstance(n, ast.FunctionDef) and n.name == attr), None)
        if node is None:
            missing.append(f"{module}.{qual}")
        elif isinstance(node, ast.FunctionDef) and is_property(node):
            descriptors.append(f"{module}.{qual}")
    assert len(targets.elts) > 40
    assert missing == []
    assert descriptors == []
    defs = ast.parse("class C:\n"
                     "    @property\n    def a(self): pass\n"
                     "    @functools.cached_property\n    def b(self): pass\n"
                     "    @cached_property\n    def c(self): pass\n"
                     "    @staticmethod\n    def d(): pass\n"
                     "    def e(self): pass\n").body[0].body
    assert [is_property(d) for d in defs] == [True, True, True, False, False]


def ring_hom_calls(tree, allowed=()):
    """Lines of the RingHom(...) calls outside the functions named in allowed."""
    spans = [(n.lineno, n.end_lineno) for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name in allowed]
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) == "RingHom"
                  and not any(a <= n.lineno <= b for a, b in spans))


def test_ring_maps_come_from_rings():
    """A base change to a ring goes through find_hom, kept per scheme and
    ring by GroupScheme.base_change; no module hand-builds a residue map.
    The Frobenius twist x -> x^p (structure.p_twist) is the one map that
    find_hom does not give."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "rings.py"
             for line in ring_hom_calls(parse(path), ("p_twist",))]
    assert found == []
    assert ring_hom_calls(parse(SRC / "structure.py")), "p_twist builds one"
    tree = ast.parse("def p_twist(R):\n    return RingHom(R, R, f, 'F')\n"
                     "def g(R):\n    return rings.RingHom(R, R, f, 'id')\n")
    assert ring_hom_calls(tree, ("p_twist",)) == [4]
    assert ring_hom_calls(tree) == [2, 4]


def callers(tree, name):
    """For each call of name (by name or attribute), the dotted path of
    the classes and functions around it; "" at module level."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = path + [child.name]
            elif isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == name:
                found.append(".".join(path))
            visit(child, inner)

    visit(tree, [])
    return found


def test_one_generator_search():
    """GroupScheme._fiber_minpolys certifies a generating basis vector, and
    presentation is its only caller: no second generator search runs."""
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in callers(parse(path), "_fiber_minpolys")]
    assert found == ["hopf.GroupScheme.presentation"]


def test_ideals_are_closed_in_kernel_only():
    """ideal_closure runs for the ideal that the f*(e_j) - counit(e_j) 1
    of a kernel generate; a subgroup cut out by the kernel of an algebra
    map must not close its ideal again."""
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in callers(parse(path), "ideal_closure")]
    assert found == ["constructions.kernel"]
    tree = ast.parse("def f(G):\n    return ideal_closure(G, [])\n"
                     "class C:\n    def m(self):\n"
                     "        def g():\n            return cons.ideal_closure(1)\n"
                     "        return g\n"
                     "ideal_closure(0)\nclosure(0)\n")
    assert callers(tree, "ideal_closure") == ["f", "C.m.g", ""]


def scope_nodes(tree):
    """{dotted name: node} of the module's functions and its classes' methods."""
    out = {}
    for n in tree.body:
        if isinstance(n, ast.FunctionDef):
            out[n.name] = n
        elif isinstance(n, ast.ClassDef):
            out |= {f"{n.name}.{m.name}": m for m in n.body
                    if isinstance(m, ast.FunctionDef)}
    return out


def defined_scopes(tree):
    """Dotted names of the module's functions and of its classes' methods."""
    return set(scope_nodes(tree))


def test_subgroups_and_quotient_read_sparse_rows_only():
    """ClosedSubgroup.quotient_data (its cached ClosedSubgroup._quotient)
    reads pi off the canonical rows of the ideal,
    ClosedSubgroup._hopf_ideal_report tests v in I as pi(v) = 0,
    ClosedSubgroup.scheme (ClosedSubgroup._scheme) projects its tables and
    is_normal (ClosedSubgroup._normal) tests (id (x) pi) ad(v) = 0, all
    through the sparse pi(e_j) rows; quotient
    reads coordinates in its coinvariant basis through the sparse kappa
    rows and checks them by expanding back through beta.  A homomorphism
    pulls back, checks itself and maps points through its sparse rows
    (alg), and a convolution sums m o (f (x) g) o Delta through them.  None reduces against a span itself, sums dense rows or
    transposes a matrix, also not in a function nested in them; every
    linear map f(v) is hopf.project, and the constructions-private
    _project it replaced is gone."""
    scopes = {"constructions.py": ("ClosedSubgroup.quotient_data",
                                   "ClosedSubgroup._quotient",
                                   "ClosedSubgroup._hopf_ideal_report",
                                   "ClosedSubgroup.scheme", "ClosedSubgroup._scheme",
                                   "is_normal", "ClosedSubgroup._normal", "quotient"),
              "hopf.py": ("GroupSchemeHom.apply_alg", "GroupSchemeHom.is_valid",
                          "hom_on_points", "convolution")}

    def offenders(tree, name, file="constructions.py"):
        return [w for w in callers(tree, name)
                if any(w == s or w.startswith(s + ".") for s in scopes[file])]

    for file, names in scopes.items():
        tree = parse(SRC / file)
        assert set(names) <= defined_scopes(tree), file
        for name in ("member", "reduce_mod_span", "add_scaled", "transpose"):
            assert not offenders(tree, name, file), (file, name)
    for path in sorted(SRC.glob("*.py")):
        assert "_project" not in defined_scopes(parse(path)), path.name
    assert "quotient.coords" in callers(parse(SRC / "constructions.py"), "project")
    snippet = ast.parse("class ClosedSubgroup:\n"
                        "    def scheme(self):\n"
                        "        def project():\n            return linalg.add_scaled(1)\n"
                        "    def quotient_data(self):\n        return reduce_mod_span(1)\n"
                        "    def _hopf_ideal_report(self):\n        return member(1)\n"
                        "def quotient(G, H):\n"
                        "    def coords(v):\n        return reduce_mod_span(1)\n"
                        "def hom_on_points(f):\n    return add_scaled(1)\n")
    assert offenders(snippet, "add_scaled") == ["ClosedSubgroup.scheme.project"]
    assert offenders(snippet, "member") == ["ClosedSubgroup._hopf_ideal_report"]
    assert offenders(snippet, "reduce_mod_span") == ["ClosedSubgroup.quotient_data",
                                                     "quotient.coords"]
    assert offenders(snippet, "add_scaled", "hopf.py") == ["hom_on_points"]


def test_two_tensors_are_mapped_by_map_tensor_only():
    """Every (f (x) g) on A (x) A goes through hopf.map_tensor: the
    Hopf-ideal report and the subgroup scheme (pi (x) pi), normality and
    the coinvariants of a quotient (id (x) pi), the quotient's
    comultiplication (kappa (x) kappa, read back through beta (x) beta),
    the p-primary product map
    (pi_k (x) phi_(k+1)), the hom-comult check (f (x) f), the
    convolution m o (f (x) g) o Delta and the semidirect product's
    comultiplication (id (x) alpha_h^*); the constructions-private
    _project_tensor it replaced is gone.  The subgroup scheme and the
    normality verdict are made in the cached ClosedSubgroup._scheme and
    ClosedSubgroup._normal."""
    want = {"constructions.ClosedSubgroup._hopf_ideal_report",
            "constructions.ClosedSubgroup._scheme", "constructions.ClosedSubgroup._normal",
            "constructions.quotient", "constructions.semidirect",
            "structure._slot_product_map", "hopf.GroupSchemeHom.is_valid",
            "hopf.convolution"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        assert not [n for n in ast.walk(tree)
                    if getattr(n, "name", getattr(n, "id", None)) == "_project_tensor"
                    or getattr(n, "attr", None) == "_project_tensor"], path.name
        scopes = defined_scopes(tree)
        for where in callers(tree, "map_tensor"):
            # a call in a function nested in a scope counts for the scope
            scope = next((s for s in scopes if where == s or where.startswith(s + ".")),
                         where)
            found.add(f"{path.stem}.{scope}")
    assert found == want


def tensors_read_as_dicts(tree):
    """The scopes that call comult_vec or conjugation_tensor and call
    .items(), also in a function nested in them."""
    out = []
    for name, node in sorted(scope_nodes(tree).items()):
        calls = {getattr(n.func, "id", getattr(n.func, "attr", None))
                 for n in ast.walk(node) if isinstance(n, ast.Call)}
        if calls & {"comult_vec", "conjugation_tensor"} and "items" in calls:
            out.append(name)
    return out


def test_delta_and_ad_are_read_as_triples():
    """Delta(v) (comult_vec) and ad(v) (conjugation_tensor) are elements of
    A (x) A in the one form map_tensor reads and returns, the sorted
    nonzero (j, k, c), so no scope that makes one reads a dict's items."""
    for path in sorted(SRC.glob("*.py")):
        assert tensors_read_as_dicts(parse(path)) == [], path.name
    snippet = ast.parse("class ClosedSubgroup:\n"
                        "    def _normal(self):\n"
                        "        def outside(v):\n"
                        "            return conjugation_tensor(G, v).items()\n"
                        "    def scheme(self):\n        return G.comult_vec(v)\n"
                        "def is_valid(f):\n    return f.items()\n"
                        "def quotient(G, d):\n"
                        "    return G.comult_vec(b), sorted(d.items())\n")
    assert tensors_read_as_dicts(snippet) == ["ClosedSubgroup._normal", "quotient"]


def true_divisions(tree):
    """[(scope, line)] for each true division, a / b or a /= b, in source
    order, where scope is the dotted name of the function or method
    holding it (see scope_nodes), or None outside them."""
    def divisions(node):
        return [(n.lineno, n.col_offset) for n in ast.walk(node)
                if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)]

    scope = {at: name for name, node in scope_nodes(tree).items() for at in divisions(node)}
    return [(scope.get(at), at[0]) for at in sorted(divisions(tree))]


def test_the_one_true_division_is_rings_quotient():
    """int / int is a float, so no code divides but rings._quotient, which
    gives a Fraction, or an int where the quotient is integral."""
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope, _ in true_divisions(parse(path))]
    assert found == [("rings.py", "_quotient")]
    snippet = ast.parse("X = 1 / 2\n"
                        "def half(a):\n    return a // 2, a % 2\n"
                        "class R:\n"
                        "    def inv(self, a):\n"
                        "        def f(b):\n            b /= a\n            return b\n"
                        "        return 1 / a, (a / 2) / 3\n")
    assert true_divisions(snippet) == [(None, 1), ("R.inv", 7), ("R.inv", 9),
                                       ("R.inv", 9), ("R.inv", 9)]


def call_name(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


ELEMENT_OPERATIONS = {"mul_vec", "antipode_vec", "power_vec", "apply_alg", "combine"}
DENSE_VECTOR_HELPERS = {"vec_add", "vec_sub", "vec_scale", "identity_matrix"}


def element_conversions(tree):
    """[(scope, line)] in source order for each nonzeros(...) of a call of
    an element operation and each dense(...) of a project(...), where scope
    is the dotted name of the function or method holding it (see
    scope_nodes), or None outside them."""
    def conversions(node):
        out = []
        for n in ast.walk(node):
            if not isinstance(n, ast.Call):
                continue
            inner = {call_name(a) for a in n.args if isinstance(a, ast.Call)}
            if call_name(n) == "nonzeros" and inner & ELEMENT_OPERATIONS or \
                    call_name(n) == "dense" and "project" in inner:
                out.append((n.lineno, n.col_offset))
        return out

    scope = {at: name for name, node in scope_nodes(tree).items()
             for at in conversions(node)}
    return [(scope.get(at), at[0]) for at in sorted(conversions(tree))]


def dense_vector_helpers(tree):
    """The dense vector helpers of DENSE_VECTOR_HELPERS that the module
    imports or reads as an attribute, in sorted order."""
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted((set(imported_names(tree)) | attributes) & DENSE_VECTOR_HELPERS)


def stored_attributes(tree, cls):
    """The attributes that the methods of class cls assign on self."""
    return sorted({n.attr for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
                   for n in ast.walk(c) if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"})


def test_elements_of_a_stay_sparse():
    """An element of A is its sorted nonzero (x, c) list everywhere in
    hopf, constructions and structure: no code converts the result of
    mul_vec, antipode_vec, power_vec, apply_alg or combine with nonzeros,
    nor a project with dense; none of the three imports a dense vector
    helper; and GroupSchemeHom keeps its algebra map once, as alg, with
    no rows beside it."""
    for path in sorted(SRC.glob("*.py")):
        assert element_conversions(parse(path)) == [], path.name
    for name in ("hopf.py", "constructions.py", "structure.py"):
        assert dense_vector_helpers(parse(SRC / name)) == [], name
    assert "alg" in stored_attributes(parse(SRC / "hopf.py"), "GroupSchemeHom")
    assert "rows" not in stored_attributes(parse(SRC / "hopf.py"), "GroupSchemeHom")
    snippet = ast.parse("from .linalg import Span, vec_sub\n"
                        "X = dense(R, m, project(R, rows, v))\n"
                        "class GroupSchemeHom:\n"
                        "    def __init__(self, alg):\n"
                        "        self.alg = alg\n"
                        "        self.rows = [nonzeros(R, v) for v in alg]\n"
                        "    def is_valid(self):\n"
                        "        def pulled(v):\n"
                        "            return nonzeros(R, self.apply_alg(v))\n"
                        "        return nonzeros(R, G.mul_vec(v, w)), nonzeros(R, v)\n"
                        "def scale(G, v):\n"
                        "    return linalg.vec_scale(R, c, G.combine(t)), dense(R, m, v)\n"
                        "def outside(G, v):\n"
                        "    return project(R, pb, nonzeros(R, G.antipode_vec(v)))\n")
    assert element_conversions(snippet) == [(None, 2), ("GroupSchemeHom.is_valid", 9),
                                            ("GroupSchemeHom.is_valid", 10),
                                            ("outside", 14)]
    assert dense_vector_helpers(snippet) == ["vec_scale", "vec_sub"]
    assert stored_attributes(snippet, "GroupSchemeHom") == ["alg", "rows"]


ROW_TAKERS = {"canonical_span", "row_kernel", "member", "member_with_coeffs",
              "solver", "reduce_mod_span", "echelon", "place"}
SPAN_MAKERS = {"canonical_span", "row_kernel", "echelon"}


def calls_of(node, names):
    return any(isinstance(n, ast.Call) and call_name(n) in names for n in ast.walk(node))


def mentions(node, names):
    return any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))


def bound_from(scope, source):
    """The names of the scope bound, by assignment or by an append, from
    an expression for which source(expr, names so far) holds."""
    names, grew = set(), True
    while grew:
        grew = False
        for n in ast.walk(scope):
            if isinstance(n, ast.Assign):
                pairs = [(t, n.value) for t in n.targets]
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr == "append" and n.args:
                pairs = [(n.func.value, n.args[0])]
            else:
                continue
            for target, value in pairs:
                new = {t.id for t in ast.walk(target) if isinstance(t, ast.Name)} - names
                if new and source(value, names):
                    names |= new
                    grew = True
    return names


def dense_rows_to_linalg(tree):
    """[(scope, line)] of each call of a ROW_TAKERS function one of whose
    arguments holds a dense(...) call, the call of a module function that
    returns one, or a name of the scope bound from such."""
    scopes = scope_nodes(tree)
    makers = {"dense"}
    makers |= {name.split(".")[-1] for name, node in scopes.items()
               if any(isinstance(n, ast.Return) and n.value is not None
                      and calls_of(n.value, makers) for n in ast.walk(node))}
    out = []
    for name, node in scopes.items():
        dense_names = bound_from(node, lambda v, names: (
            calls_of(v, makers) or mentions(v, names))
            and not (isinstance(v, ast.Call) and call_name(v) in ROW_TAKERS))
        out += [(name, n.lineno) for n in ast.walk(node)
                if isinstance(n, ast.Call) and call_name(n) in ROW_TAKERS
                and any(calls_of(a, makers) or mentions(a, dense_names) for a in n.args)]
    return sorted(out, key=lambda site: site[1])


def span_rows_expanded(tree):
    """[(scope, line)] of each nonzeros(...) of a loop variable over the
    rows of a Span: an .ideal, the result of a SPAN_MAKERS call, or a name
    of the scope bound from one."""
    def spans(v, names):
        return any(isinstance(n, ast.Attribute) and n.attr == "ideal"
                   for n in ast.walk(v)) or calls_of(v, SPAN_MAKERS) or mentions(v, names)

    out = []
    for name, node in scope_nodes(tree).items():
        span_names = bound_from(node, spans)
        for loop in ast.walk(node):
            gens = loop.generators if isinstance(loop, (ast.ListComp, ast.GeneratorExp,
                                                          ast.SetComp, ast.DictComp)) \
                else [loop] if isinstance(loop, ast.For) else []
            rows = {t.id for g in gens if spans(g.iter, span_names)
                    for t in ast.walk(g.target) if isinstance(t, ast.Name)}
            out += [(name, n.lineno) for n in ast.walk(loop)
                    if rows and isinstance(n, ast.Call) and call_name(n) == "nonzeros"
                    and any(mentions(a, rows) for a in n.args)]
    return sorted(set(out), key=lambda site: site[1])


def row_sub_classes(tree):
    return [c.name for c in tree.body if isinstance(c, ast.ClassDef)
            and any(isinstance(m, ast.FunctionDef) and m.name == "row_sub" for m in c.body)]


def test_rows_of_linalg_stay_sparse():
    """A row handed to linalg is its sorted nonzero (col, x) list, as an
    element of A is: outside oracle.py, which keeps dense vectors of its
    own, no code passes a dense(...) to canonical_span, row_kernel,
    member*, solver, reduce_mod_span, echelon or Span.place, nor expands
    the rows of a Span with nonzeros; and rings.py defines row_sub on Ring
    only."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracle.py":
            tree = parse(path)
            assert dense_rows_to_linalg(tree) == [], path.name
            assert span_rows_expanded(tree) == [], path.name
    assert row_sub_classes(parse(SRC / "rings.py")) == ["Ring"]
    snippet = ast.parse(
        "def closure(G, gens):\n"
        "    span = canonical_span(R, [dense(R, m, v) for v in gens])\n"
        "    frontier = [nonzeros(R, v) for v in span]\n"
        "    return frontier\n"
        "def _rows(phi):\n"
        "    return [dense(R, w, e) for e in phi]\n"
        "class ClosedSubgroup:\n"
        "    def quotient(self):\n"
        "        cols = []\n"
        "        cols.append(dense(R, n, t))\n"
        "        B = row_kernel(R, cols)\n"
        "        beta = [nonzeros(R, row) for row in B]\n"
        "        rows.place(R, w, c)\n"
        "        return row_kernel(R, _rows(phi)), member(R, B, v)\n"
        "    def report(self):\n"
        "        for t, v in enumerate(self.ideal):\n"
        "            x = nonzeros(R, v), nonzeros(R, w)\n"
        "class Ring:\n    def row_sub(self):\n        pass\n"
        "class _Residues(Ring):\n    def row_sub(self):\n        pass\n")
    assert dense_rows_to_linalg(snippet) == [("closure", 2), ("ClosedSubgroup.quotient", 11),
                                             ("ClosedSubgroup.quotient", 14)]
    assert span_rows_expanded(snippet) == [("closure", 3), ("ClosedSubgroup.quotient", 12),
                                           ("ClosedSubgroup.report", 17)]
    assert row_sub_classes(snippet) == ["Ring", "_Residues"]


PAIR_READERS = ("point_is_hom", "_tangent_rows", "_square_zero_lifts")
COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)


def is_range(node):
    return isinstance(node, ast.Call) and call_name(node) == "range"


def nested_range_loops(scope):
    """Lines of each loop over a range(...) that runs inside another: in
    the body of a for statement over a range, or after a range generator
    of the same comprehension."""
    loops, inside = [], set()
    for node in ast.walk(scope):
        if isinstance(node, ast.For) and is_range(node.iter):
            loops.append(node.iter)
            inside |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
        elif isinstance(node, COMPREHENSIONS):
            gens = node.generators
            loops += [g.iter for g in gens if is_range(g.iter)]
            for k, g in enumerate(gens):
                if is_range(g.iter):
                    later = [*gens[k + 1:], *(getattr(node, slot) for slot in
                                              ("elt", "key", "value") if hasattr(node, slot))]
                    inside |= {id(n) for part in later for n in ast.walk(part)}
    return sorted(n.lineno for n in loops if id(n) in inside)


def reads_hom_pairs(scope):
    return any(isinstance(n, ast.Attribute) and n.attr == "hom_pairs" for n in ast.walk(scope))


def test_characters_and_lifts_read_the_one_pair_list():
    """point_is_hom, _tangent_rows and _square_zero_lifts take the pairs
    on which a character, its tangent rows and the defect of a lift are
    read from GroupScheme.hom_pairs: none of them runs a loop over a
    range inside another, and each reads hom_pairs, which GroupScheme
    defines once."""
    scopes = scope_nodes(parse(SRC / "hopf.py"))
    for name in PAIR_READERS:
        assert nested_range_loops(scopes[name]) == [], name
        assert reads_hom_pairs(scopes[name]), name
    assert [name for name in scopes if name.endswith(".hom_pairs")] == ["GroupScheme.hom_pairs"]
    snippet = ast.parse(
        "def point_is_hom(GR, v):\n"
        "    for i in range(m):\n"
        "        for j in range(i, m):\n"
        "            pass\n"
        "def _tangent_rows(k, fiber, chi):\n"
        "    rows = [{} for _ in range(m)]\n"
        "    for t, (i, j) in enumerate(fiber.hom_pairs):\n"
        "        pass\n"
        "    return [x for x in range(m)], [x for x in rows for y in range(m)]\n"
        "def _square_zero_lifts(GR, fiber):\n"
        "    rhs = [f(i, j) for i in range(m)\n"
        "           for j in range(i, m)]\n"
        "    for i in range(m):\n"
        "        out = {j: i for j in range(m)}\n")
    found = scope_nodes(snippet)
    assert [nested_range_loops(found[name]) for name in PAIR_READERS] == [[3], [], [12, 14]]
    assert [reads_hom_pairs(found[name]) for name in PAIR_READERS] == [False, True, False]


def second_constructors(tree):
    """Lines of each definition of from_tables and each use of __new__."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "from_tables"
                  or isinstance(n, ast.Attribute) and n.attr == "__new__")


def test_group_schemes_have_one_constructor():
    """GroupScheme(ring, rank, tables, unit, counit, name) is the one way a
    scheme is made: no ffgs module defines from_tables or calls __new__."""
    for path in sorted(SRC.glob("*.py")):
        assert second_constructors(parse(path)) == [], path.name
    snippet = ast.parse(
        "class GroupScheme:\n"
        "    @classmethod\n"
        "    def from_tables(cls, ring, rank, tables):\n"
        "        G = cls.__new__(cls)\n"
        "        return G\n"
        "    def from_dict(cls, d):\n"
        "        return cls(d)\n")
    assert second_constructors(snippet) == [3, 4]
