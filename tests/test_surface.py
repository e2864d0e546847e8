"""The package's public names, and the names the benchmark tracer binds."""

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
