from math import factorial

import pytest

from ribbonmod.compositions import (
    Composition,
    PseudoComposition,
    enumerate_compositions,
    enumerate_pseudo_compositions,
)
from ribbonmod.coxeter import (
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
from ribbonmod.cli import TABLE_FILES, golden_vectors
from ribbonmod.ribbon import ribbon_a, ribbon_b, ribbon_d

ALL_BUILTINS = ["A1", "A4", "B2", "B5", "D4", "D6", "E6", "E7", "E8", "F4", "H3", "H4", "I2:5", "I2:9"]


def test_builtin_shapes():
    b3 = builtin_diagram("B3")
    assert b3.generators == (0, 1, 2)
    assert b3.label(0, 1) == 4
    assert b3.label(1, 2) == 3
    assert b3.label(0, 2) == 2
    d4 = builtin_diagram("D4")
    assert sorted(e[:2] for e in d4.edges) == [(0, 2), (1, 2), (2, 3)]
    i25 = builtin_diagram("I2 5")
    assert i25.edges == ((1, 2, 5),)
    assert builtin_diagram("I2:9").label(1, 2) == 9
    assert builtin_diagram("e7").rank() == 7


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "E9", "F5", "H5", "I2:2", "Z9", ""])
def test_unknown_diagrams_rejected(bad):
    with pytest.raises(ValueError):
        builtin_diagram(bad)


def test_diagram_validation():
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((1, 2, 2),))  # label 2 means "no edge"
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((2, 1, 3),))
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((1, 2, 3), (1, 2, 4)))


def test_classification_of_sub_diagrams():
    d4 = builtin_diagram("D4")
    assert classify_components(d4, [0, 1, 3]) == [IrreducibleType("A", 1)] * 3
    b3 = builtin_diagram("B3")
    assert classify_components(b3, [1, 2]) == [IrreducibleType("A", 2)]
    assert classify_components(b3, [0, 1]) == [IrreducibleType("B", 2)]
    f4 = builtin_diagram("F4")
    assert classify_components(f4) == [IrreducibleType("F", 4)]
    assert classify_components(f4, [1, 2, 3]) == [IrreducibleType("B", 3)]
    assert classify_components(f4, [2, 3, 4]) == [IrreducibleType("B", 3)]
    assert classify_components(f4, [2, 3]) == [IrreducibleType("B", 2)]
    assert classify_components(f4, [1, 2, 4]) == [
        IrreducibleType("A", 2),
        IrreducibleType("A", 1),
    ]
    e8 = builtin_diagram("E8")
    assert classify_components(e8, [g for g in e8.generators if g != 8]) == [
        IrreducibleType("E", 7)
    ]
    assert classify_components(e8, [g for g in e8.generators if g != 1]) == [
        IrreducibleType("D", 7)
    ]
    h4 = builtin_diagram("H4")
    assert classify_components(h4, [1, 2, 3]) == [IrreducibleType("H", 3)]
    assert classify_components(h4, [1, 2]) == [IrreducibleType("I", 2, 5)]


def test_unclassifiable_component():
    triangle = CoxeterDiagram((1, 2, 3), ((1, 2, 3), (1, 3, 3), (2, 3, 3)))
    with pytest.raises(UnclassifiableError):
        classify_components(triangle)
    with pytest.raises(UnclassifiableError):
        classify_components(CoxeterDiagram((1, 2, 3), ((1, 2, 6), (2, 3, 3))))


def test_orders():
    expected = {
        "A5": factorial(6),
        "B5": 2**5 * factorial(5),
        "D6": 2**5 * factorial(6),
        "E6": 51840,
        "E7": 2903040,
        "E8": 696729600,
        "F4": 1152,
        "H3": 120,
        "H4": 14400,
        "I2:7": 14,
    }
    for name, order in expected.items():
        assert parabolic_order(builtin_diagram(name)) == order


def test_parabolic_order_examples():
    assert parabolic_order(builtin_diagram("A3"), [2, 3]) == 6
    assert parabolic_order(builtin_diagram("B3"), []) == 1
    assert parabolic_order(builtin_diagram("H4")) == 14400
    with pytest.raises(ValueError):
        parabolic_order(builtin_diagram("A3"), [9])


def test_ribbon_general_examples():
    assert ribbon_general(builtin_diagram("B3"), [0]) == 7
    for name in ("A4", "E6", "H3"):
        assert ribbon_general(builtin_diagram(name), []) == 1
    for m in range(3, 13):
        diagram = builtin_diagram(f"I2:{m}")
        assert ribbon_general(diagram, [1]) == m - 1
        assert ribbon_general(diagram, [2]) == m - 1


def test_ribbon_general_matches_type_a():
    for n in range(2, 9):
        diagram = builtin_diagram(f"A{n - 1}")
        for alpha in enumerate_compositions(n):
            assert ribbon_general(diagram, alpha.descents()) == ribbon_a(alpha)


def test_ribbon_general_matches_type_b():
    for n in range(2, 7):
        diagram = builtin_diagram(f"B{n}")
        for alpha in enumerate_pseudo_compositions(n):
            assert ribbon_general(diagram, alpha.descents()) == ribbon_b(alpha)


def test_ribbon_general_matches_type_d():
    for n in range(4, 7):
        diagram = builtin_diagram(f"D{n}")
        for alpha in enumerate_pseudo_compositions(n):
            assert ribbon_general(diagram, alpha.descents()) == ribbon_d(alpha)


def test_mass_and_symmetry_all_builtins():
    for name in ALL_BUILTINS:
        diagram = builtin_diagram(name)
        by_subset = descent_class_sizes(diagram)
        order = parabolic_order(diagram)
        assert sum(by_subset.values()) == order
        assert len(by_subset) == 1 << diagram.rank()
        assert min(by_subset.values()) >= 1
        full = frozenset(diagram.generators)
        for subset, size in by_subset.items():
            assert size == by_subset[full - subset]


def test_ribbon_general_agrees_with_bulk_sizes():
    for name in ("F4", "H3", "B4", "I2:8"):
        diagram = builtin_diagram(name)
        for subset, size in descent_class_sizes(diagram).items():
            assert ribbon_general(diagram, subset) == size


def test_exceptional_multisets():
    f4 = descent_class_multiset(builtin_diagram("F4"))
    assert f4 == {1: 2, 23: 4, 73: 2, 95: 4, 97: 2, 169: 2}
    h3 = descent_class_multiset(builtin_diagram("H3"))
    assert h3 == {1: 2, 11: 2, 19: 2, 29: 2}
    assert sum(s * m for s, m in h3.items()) == 120
    i27 = descent_class_multiset(builtin_diagram("I2:7"))
    assert i27 == {1: 2, 6: 2}
    h4 = descent_class_multiset(builtin_diagram("H4"))
    assert h4 == {1: 2, 119: 2, 599: 2, 601: 2, 719: 2, 1199: 2, 1681: 2, 2281: 2}


def test_residue_histograms():
    assert residue_histogram(builtin_diagram("E6"), 2) == (32, 32)
    assert residue_histogram(builtin_diagram("H3"), 5) == (0, 4, 0, 0, 4)
    assert residue_histogram(builtin_diagram("E7"), 7) == (0, 64, 0, 0, 0, 0, 64)
    with pytest.raises(ValueError):
        residue_histogram(builtin_diagram("F4"), 6)


def test_residue_histograms_match_golden_tables():
    # a fourth route to the type A/B/D vectors: parabolic orders and the
    # subset butterfly, with no ribbon formula and no digit machinery
    checked = 0
    for name in TABLE_FILES:
        for (family, p, n), expected in golden_vectors(name).items():
            rank = n - 1 if family == "A" else n
            if rank > 10:
                continue
            assert residue_histogram(builtin_diagram(f"{family}{rank}"), p) == expected, (family, n, p)
            checked += 1
    assert checked > 100


def test_ribbon_general_rejects_foreign_generators():
    with pytest.raises(ValueError):
        ribbon_general(builtin_diagram("A3"), [0])  # type A generators start at 1


def test_irreducible_type_order_table():
    assert IrreducibleType("A", 3).order == 24
    assert IrreducibleType("B", 4).order == 384
    assert IrreducibleType("D", 5).order == 1920
    assert IrreducibleType("I", 2, 6).order == 12
    assert str(IrreducibleType("I", 2, 6)) == "I2(6)"
    with pytest.raises(ValueError):
        IrreducibleType("I", 3, 6)
