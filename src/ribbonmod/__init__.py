"""Exact descent-class sizes of finite Coxeter groups, and how those sizes
distribute over residue classes modulo a prime."""

from .arith import base_p_digits, is_prime, multinomial_exact
from .compositions import (
    CapacityError,
    Composition,
    PseudoComposition,
    enumerate_compositions,
    enumerate_pseudo_compositions,
    parse_parts,
)
from .coxeter import (
    CoxeterDiagram,
    IrreducibleType,
    UnclassifiableError,
    builtin_diagram,
    classify_components,
    descent_class_multiset,
    descent_class_sizes,
    parabolic_order,
    residue_histogram,
    ribbon_general,
)
from .cvec import (
    DimensionPVector,
    NoClosedFormError,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    partitions,
    standard_tableau_count,
    support_set,
)
from .ribbon import (
    SignedPermutation,
    oracle_descent_class_sizes,
    ribbon_a_det,
    ribbon_exact,
    ribbon_mod_p,
)

__version__ = "0.1.0"

__all__ = [
    "base_p_digits",
    "is_prime",
    "multinomial_exact",
    "CapacityError",
    "Composition",
    "PseudoComposition",
    "enumerate_compositions",
    "enumerate_pseudo_compositions",
    "parse_parts",
    "SignedPermutation",
    "ribbon_a_det",
    "ribbon_exact",
    "ribbon_mod_p",
    "oracle_descent_class_sizes",
    "DimensionPVector",
    "NoClosedFormError",
    "support_set",
    "cvec",
    "cvec_naive",
    "cvec_theorem",
    "cvec_closed_form",
    "macdonald_mp",
    "standard_tableau_count",
    "partitions",
    "CoxeterDiagram",
    "IrreducibleType",
    "UnclassifiableError",
    "builtin_diagram",
    "classify_components",
    "parabolic_order",
    "ribbon_general",
    "descent_class_sizes",
    "descent_class_multiset",
    "residue_histogram",
    "__version__",
]
