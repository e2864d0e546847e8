"""The package's public names, the names the benchmark tracer binds, and
which module may import what from which."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import ribbonmod

PUBLIC = {
    "CapacityError",
    "Composition",
    "CoxeterDiagram",
    "DimensionPVector",
    "IrreducibleType",
    "NoClosedFormError",
    "PseudoComposition",
    "SignedPermutation",
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
    "enumerate_compositions",
    "enumerate_pseudo_compositions",
    "is_prime",
    "macdonald_mp",
    "multinomial_exact",
    "oracle_descent_class_sizes",
    "parabolic_order",
    "parse_parts",
    "partitions",
    "residue_histogram",
    "ribbon_a_det",
    "ribbon_exact",
    "ribbon_general",
    "ribbon_mod_p",
    "standard_tableau_count",
    "support_set",
}

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ribbonmod"

# (importer, source, name) of every private name one module may take from
# another: ribbon's family gate and first-step rule, cvec's tally budget, and
# the frozen-record base of compositions
PRIVATE_IMPORTS = {
    ("cvec", "ribbon", "_check_family"),
    ("cvec", "ribbon", "_first_step"),
    ("coxeter", "cvec", "_check_tally_prime"),
    ("cvec", "compositions", "_Record"),
    ("coxeter", "compositions", "_Record"),
}


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 35
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


def test_layering():
    # the packed-field format (array items, field widths, chunking) is
    # known only to arith, every private import between modules is listed
    # in PRIVATE_IMPORTS, and none of them reaches into arith
    field_format = set()
    private = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(alias.name == "array" for alias in node.names):
                    field_format.add(module)
            elif isinstance(node, ast.ImportFrom):
                source = (node.module or "").rpartition(".")[2]
                if node.module == "array":
                    field_format.add(module)
                if node.level or (node.module or "").startswith("ribbonmod"):
                    private |= {(module, source, alias.name) for alias in node.names
                                if alias.name.startswith("_")}
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            if names & {"field_width", "_CHUNK"}:
                field_format.add(module)
    assert field_format == {"arith"}
    assert not {entry for entry in private if entry[1] == "arith"}
    assert private == PRIVATE_IMPORTS


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
