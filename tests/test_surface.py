"""The package's public names, the names the benchmark tracer binds,
which module may import what from which, the budgets every refusal names,
the dotted names README cites, and a hygiene census: every imported name
is used, every module-level function is called, exported or listed with a
reason, and every exported function is called or listed with a reason."""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

import ribbonmod
from conftest import readme_budget_rows

PUBLIC = {
    "CapacityError",
    "Composition",
    "CoxeterDiagram",
    "DimensionPVector",
    "IrreducibleType",
    "PseudoComposition",
    "UnclassifiableError",
    "__version__",
    "base_p_digits",
    "builtin_diagram",
    "classify_components",
    "cvec",
    "cvec_closed_form",
    "cvec_naive",
    "cvec_theorem",
    "descent_class_multiset",
    "descent_class_sizes",
    "is_prime",
    "macdonald_mp",
    "multinomial_exact",
    "oracle_descent_class_sizes",
    "parabolic_order",
    "parse_parts",
    "residue_histogram",
    "ribbon_a_det",
    "ribbon_exact",
    "ribbon_general",
    "ribbon_mod_p",
    "support_set",
}

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ribbonmod"
TESTS = pathlib.Path(__file__).resolve().parent

# (module, function) of every module-level function of src/ that nothing in
# src/ calls and the package does not export, with the reason it stays
UNCALLED = {
    ("ribbon", "term_mod_p"): "the per-term reference of the theorem's term table; "
                              "ROADMAP item 9 moves it into that test",
}

# every exported function that no other code of src/ calls, with the reason
# it stays public; a call from a function of this table or of UNCALLED does
# not count
EXPORTED_UNCALLED = {
    "ribbon_a_det": "the type-A determinant, the one exact route that does not flip to the complement, "
                    "so it checks the flip (ROADMAP item 9)",
    "multinomial_exact": "bound by name in perfbench/tracer.py until ROADMAP item 36",
    "classify_components": "bound by name in perfbench/tracer.py until ROADMAP item 36",
    "parabolic_order": "bound by name in perfbench/tracer.py until ROADMAP item 36",
    "descent_class_sizes": "bound by name in perfbench/tracer.py until ROADMAP item 36",
}

# (importer, source, name) of every private name one module may take from
# another: the frozen-record base of compositions.  The family gate (compositions) and the tally budget (arith)
# are public names of their owners.
PRIVATE_IMPORTS = {
    ("cvec", "compositions", "_Record"),
    ("coxeter", "compositions", "_Record"),
}


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 29
    assert set(ribbonmod.__all__) == PUBLIC
    assert len(ribbonmod.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(ribbonmod, name) is not None


def test_tracer_bindings_resolve(monkeypatch):
    # perfbench/tracer.py wraps these (module, attribute) pairs by getattr;
    # the file is only read, and no bytecode is written next to it
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    bindings = {**tracer.SPANNED, **tracer.HOT}
    assert bindings
    for label, (module, attr) in bindings.items():
        assert callable(getattr(importlib.import_module(module), attr)), label


def test_every_readme_dotted_name_resolves():
    # each `ribbonmod.a.b` of README imports as a module, or is an attribute
    # of the longest module prefix that imports
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\bribbonmod(?:\.[A-Za-z_]\w*)+", readme))
    assert names
    for name in names:
        parts = name.split(".")
        at = max(i for i in range(1, len(parts) + 1) if importlib.util.find_spec(".".join(parts[:i])))
        target = importlib.import_module(".".join(parts[:at]))
        for attr in parts[at:]:
            assert hasattr(target, attr), name
            target = getattr(target, attr)


def test_readme_lines_outside_the_budget_table_are_short():
    # README points at the docstrings that state each mechanism, and the
    # budget table's cells hold the constant, its unit and row names, so
    # no line of README, the table's included, is long
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert [line[:60] for line in readme.splitlines() if len(line) > 300] == []


def test_layering():
    # the packed-field format (array items, field widths, chunking) is
    # known only to arith, every private import between modules is listed
    # in PRIVATE_IMPORTS, none of them reaches into arith, and coxeter, the
    # independent check of cvec's p-vectors, imports nothing from cvec and
    # from arith only the prime check and the tally of exact values, never
    # the packed mod-p butterfly that cvec runs; ribbon takes its binomials
    # mod p from lucas_binomial alone, never from digit tuples of its own
    field_format = set()
    private = set()
    sources = {}  # (module, source module): the names imported, "*" for the module
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(alias.name == "array" for alias in node.names):
                    field_format.add(module)
                for alias in node.names:
                    if alias.name.startswith("ribbonmod."):
                        sources.setdefault((module, alias.name.rpartition(".")[2]), set()).add("*")
            elif isinstance(node, ast.ImportFrom):
                source = (node.module or "").rpartition(".")[2]
                if node.module == "array":
                    field_format.add(module)
                if node.level or (node.module or "").startswith("ribbonmod"):
                    # "from . import m" names the module m as an alias
                    for alias in node.names:
                        sources.setdefault((module, source or alias.name), set()).add(alias.name if source else "*")
                    private |= {(module, source, alias.name) for alias in node.names
                                if alias.name.startswith("_")}
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            if names & {"field_width", "_CHUNK"}:
                field_format.add(module)
    assert field_format == {"arith"}
    assert not {entry for entry in private if entry[1] == "arith"}
    assert private == PRIVATE_IMPORTS
    assert ("coxeter", "cvec") not in sources
    assert sources.get(("coxeter", "arith"), set()) <= {"check_tally_prime", "residue_tally"}
    assert sources[("ribbon", "arith")] == {"check_prime", "lucas_binomial", "multinomial_exact"}


def test_lucas_routes_build_no_digit_tuples(monkeypatch):
    # chain_mod_p and the theorem's term table take every binomial from
    # lucas_binomial on ints: with base_p_digits refused everywhere, they
    # still answer at an n of three base-7 digits, as before
    arith, cvec_module, ribbon_module = (importlib.import_module(f"ribbonmod.{name}")
                                         for name in ("arith", "cvec", "ribbon"))
    n, p = 2 * 49 + 7 + 1, 7
    supports = {family: cvec_module.support_set(family, n, p) for family in "ABD"}
    assert all(len(pos) >= 10 and pos[-1] > 49 for pos in supports.values())

    def answers():
        return [(ribbon_module.chain_mod_p(family, n, pos, p), bytes(cvec_module._term_table(family, n, p, pos)[0]))
                for family, pos in supports.items()]

    expected = answers()

    def refused(*args):
        raise AssertionError("base_p_digits called")

    for module in (arith, cvec_module, ribbon_module):
        monkeypatch.setattr(module, "base_p_digits", refused, raising=False)
    assert answers() == expected


def test_one_chain_table_in_cvec():
    # the naive weight table and the theorem term table are both returned by
    # cvec._chain_table, and no other code in cvec makes or scales a field
    # buffer
    tree = ast.parse((SRC / "cvec.py").read_text(encoding="utf-8"))
    users = set()
    returns = {}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if {getattr(node, "id", None), getattr(node, "attr", None)} & {"field_buffer", "field_scaler"}:
                users.add(getattr(stmt, "name", None))
            if isinstance(node, ast.Return):
                returns.setdefault(getattr(stmt, "name", None), []).append(node.value)
    assert users == {"_chain_table"}
    for name in ("_weight_table", "_term_table"):
        assert returns[name]
        for value in returns[name]:
            assert isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_chain_table", name


def _mirrored(index) -> bool:
    # a tally read at -r: a reversed slice, or an index -r % p or p - r
    if isinstance(index, ast.Slice):
        return isinstance(index.step, ast.UnaryOp) and isinstance(index.step.op, ast.USub)
    if isinstance(index, ast.BinOp) and isinstance(index.op, ast.Mod):
        return isinstance(index.left, ast.UnaryOp) and isinstance(index.left.op, ast.USub)
    return (isinstance(index, ast.BinOp) and isinstance(index.op, ast.Sub)
            and getattr(index.left, "id", None) == "p")


def test_one_spread_in_cvec():
    # every p-vector of cvec is written by cvec._spread: no other code in
    # cvec shifts a value left (a constant shifted makes a power of two) or
    # pairs a tally entry with the entry of -r
    tree = ast.parse((SRC / "cvec.py").read_text(encoding="utf-8"))
    users = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            shifts = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                      and not isinstance(node.left, ast.Constant))
            shifts |= isinstance(node, ast.AugAssign) and isinstance(node.op, ast.LShift)
            if shifts or (isinstance(node, ast.Subscript) and _mirrored(node.slice)):
                users.add(getattr(stmt, "name", None))
    assert users == {"_spread"}


def _parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _readme_budget_constants() -> set[str]:
    # the constant column of README's budget table: the first `module.NAME`
    # of each row's second cell
    return {re.match(r"`(\w+\.\w+)`", row[1]).group(1) for row in readme_budget_rows()}


def test_every_refusal_names_a_budget_of_the_readme_table():
    # every CapacityError of src/ is built from the qualified name of its
    # budget's constant, as a string literal that resolves by import and
    # getattr, and those names are the README budget table's, both ways
    names = set()
    for path, tree in _parsed(sorted(SRC.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapacityError":
                where = f"{path.name}:{node.lineno}"
                assert node.args and isinstance(node.args[0], ast.Constant), where
                budget = node.args[0].value
                module, _, name = budget.partition(".")
                assert hasattr(importlib.import_module(f"ribbonmod.{module}"), name), where
                names.add(budget)
    assert names == _readme_budget_constants()


def test_every_imported_name_is_used():
    # in src/ and tests/: a name bound by an import is read somewhere in its
    # module, or re-exported through __all__
    unused = []
    for path, tree in _parsed([*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]).items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]: node.lineno for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name: node.lineno for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {element.value for element in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_every_src_function_is_called_exported_or_listed():
    # a module-level function of src/ is read by other code of src/ (its own
    # body does not count), is in ribbonmod.__all__, or is in UNCALLED, and
    # every UNCALLED entry exists and still has no caller
    defined, read = set(), set()
    for path, tree in _parsed(sorted(SRC.glob("*.py"))).items():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own:
                defined.add((path.stem, own))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    exported = set(ribbonmod.__all__)
    assert {(module, name) for module, name in defined if name not in read | exported} == set(UNCALLED)


def test_every_exported_function_is_called_or_listed():
    # a function or class of ribbonmod.__all__ is called by code of src/
    # other than its own body and the functions listed in UNCALLED or
    # EXPORTED_UNCALLED, or is in EXPORTED_UNCALLED, and every entry there
    # is exported and has no such caller
    listed = {name for _, name in UNCALLED} | set(EXPORTED_UNCALLED)
    called = set()
    for tree in _parsed(sorted(SRC.glob("*.py"))).values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and own not in listed:
                    name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    called |= {name} - {own}
    assert {name for name in ribbonmod.__all__ if callable(getattr(ribbonmod, name))} - called == set(EXPORTED_UNCALLED)
