import re
from collections import Counter
from math import factorial

import pytest

from conftest import indices, traced_peak
from ribbonmod.arith import residue_tally
from ribbonmod.compositions import Composition, PseudoComposition
import ribbonmod.coxeter as coxeter
from ribbonmod.coxeter import (
    DIAGRAM_MAX_RANK,
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
    _class_sizes,
    _parabolic_orders,
)
from ribbonmod.verify import TABLE_FILES, golden_vectors
from ribbonmod.cvec import cvec_naive
from ribbonmod.ribbon import ribbon_exact

ALL_BUILTINS = ["A1", "A4", "B2", "B5", "D4", "D6", "E6", "E7", "E8", "F4", "H3", "H4", "I2:5", "I2:9"]


def test_builtin_shapes():
    b3 = builtin_diagram("B3")
    assert b3.generators == (0, 1, 2)
    assert b3.label(0, 1) == 4
    assert b3.label(1, 2) == 3
    assert b3.label(0, 2) == 2
    assert [b3.label(s, s) for s in b3.generators] == [1, 1, 1]
    d4 = builtin_diagram("D4")
    assert sorted(e[:2] for e in d4.edges) == [(0, 2), (1, 2), (2, 3)]
    i25 = builtin_diagram("I2 5")
    assert i25.edges == ((1, 2, 5),)
    assert builtin_diagram("I2:9").label(1, 2) == 9
    assert builtin_diagram("e7").rank() == 7


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "E9", "F5", "H5", "I2:2", "Z9", "", [1], 2.5, None, True, 7])
def test_unknown_diagrams_rejected(bad):
    # a name that is not a str is refused as an unknown label
    with pytest.raises(ValueError, match=None if isinstance(bad, str) else "^unknown diagram label "):
        builtin_diagram(bad)


def test_dihedral_labels_balance_their_parentheses():
    # I2:m, I2(m) and the bare I2m name one diagram; a parenthesis without
    # its partner makes an unknown label
    for label in ("I2:5", "I2(5)", "I25", "i2 (5)"):
        assert builtin_diagram(label).edges == ((1, 2, 5),)
    for label in ("I2(5", "I2:5)", "I2:(5)", "I2(5))", "I25)"):
        with pytest.raises(ValueError, match="unknown diagram label"):
            builtin_diagram(label)


def test_diagram_validation():
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((1, 2, 2),))  # label 2 means "no edge"
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((2, 1, 3),))
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 2), ((1, 2, 3), (1, 2, 4)))
    with pytest.raises(ValueError):
        CoxeterDiagram((1, 1, 2), ((1, 2, 3),))  # one bit per generator


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


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _check_order_table(diagram, subset):
    # entry K of the table of I is |W_(K + S minus I)| / |W_(S minus I)|,
    # bit j of K the j-th generator of I in diagram order: compare every
    # entry with the per-subset classification
    items = [g for g in diagram.generators if g in subset]
    rest = [g for g in diagram.generators if g not in subset]
    orders = _parabolic_orders(diagram, subset)
    assert len(orders) == 1 << len(items)
    base = parabolic_order(diagram, rest)
    for K, order in enumerate(orders):
        kept = [g for j, g in enumerate(items) if K >> j & 1]
        assert order * base == parabolic_order(diagram, kept + rest), (diagram.name, subset, K)


BUILTINS_TO_RANK_10 = (
    [f"A{r}" for r in range(1, 11)]
    + [f"B{r}" for r in range(2, 11)]
    + [f"D{r}" for r in range(4, 11)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2:{m}" for m in (3, 4, 5, 6, 9)]
)

# two components, generators neither sorted nor contiguous: B3 on 12 - 7 - 3
# (the 4-edge at the end 12) and I2(5) on {20, 5}
SCATTERED = CoxeterDiagram((7, 20, 3, 12, 5), ((3, 7, 3), (7, 12, 4), (5, 20, 5)))


def test_order_table_matches_per_subset_reference():
    for name in BUILTINS_TO_RANK_10:
        diagram = builtin_diagram(name)
        _check_order_table(diagram, diagram.generators)
    _check_order_table(SCATTERED, SCATTERED.generators)
    assert parabolic_order(SCATTERED) == 48 * 10


def test_order_table_of_a_subset_matches_per_subset_reference():
    # the quotient sweep: components of S minus I stand as single nodes
    for diagram in (builtin_diagram("D6"), builtin_diagram("E7"), builtin_diagram("H4"),
                    builtin_diagram("F4"), builtin_diagram("A9"), SCATTERED):
        gens = diagram.generators
        for mask in range(1 << len(gens)):
            _check_order_table(diagram, {g for i, g in enumerate(gens) if mask >> i & 1})


def test_order_table_of_a_scrambled_numbering_matches_per_subset_reference():
    # E8 and D8 with their generators listed in a fixed non-monotone order
    # (same edges): the connected sets and their boundaries fall on
    # scattered bits, so most blocks take several slice copies, some long
    order = (5, 0, 7, 2, 6, 1, 4, 3)
    for name, subsets in (("E8", ({1, 2, 3, 4, 5, 8}, {2, 4, 6, 7}, {1, 3, 8})),
                          ("D8", ({0, 1, 2, 5, 6}, {1, 3, 4, 7}, {0, 6}))):
        diagram = builtin_diagram(name)
        scrambled = CoxeterDiagram(tuple(diagram.generators[i] for i in order), diagram.edges)
        _check_order_table(scrambled, scrambled.generators)
        for subset in subsets:
            _check_order_table(scrambled, subset)


def test_each_connected_mask_classified_once(monkeypatch):
    seen = []

    def counting(mask, view):
        seen.append(mask)
        return classify(mask, view)

    classify = coxeter._classify_mask
    monkeypatch.setattr(coxeter, "_classify_mask", counting)
    # a path of rank 12 has 12 * 13 / 2 = 78 connected masks, against 4096
    # subsets that each classified every component before
    assert sum(descent_class_multiset(builtin_diagram("A12")).values()) == 1 << 12
    assert len(seen) == len(set(seen)) == 78
    sweeps = (("E8", range(1, 9)), ("D10", [0, 3, 5, 9]), ("A200", range(10, 200, 16)))
    for name, subset in sweeps:
        seen.clear()
        ribbon_general(builtin_diagram(name), subset)
        assert seen and len(seen) == len(set(seen)), name


def _diagram(edges):
    # a diagram on the generators its edges name, numbered in sorted order
    return CoxeterDiagram(tuple(sorted({g for s, t, _ in edges for g in (s, t)})), tuple(edges))


def test_classifier_accepts_each_finite_type():
    # one diagram per accepting rule; along each path or arm the generators
    # are not in their numbering order, so neighbours sit on scattered bits
    cases = [
        (CoxeterDiagram((4,), ()), IrreducibleType("A", 1)),
        (_diagram([(2, 9, 3), (5, 9, 3), (1, 5, 3)]), IrreducibleType("A", 4)),
        (_diagram([(3, 8, 4)]), IrreducibleType("B", 2)),
        (_diagram([(3, 8, 7)]), IrreducibleType("I", 2, 7)),
        (_diagram([(2, 9, 3), (5, 9, 3), (1, 5, 4)]), IrreducibleType("B", 4)),
        (_diagram([(2, 9, 3), (5, 9, 4), (1, 5, 3)]), IrreducibleType("F", 4)),
        (_diagram([(2, 9, 3), (2, 7, 5)]), IrreducibleType("H", 3)),
        (_diagram([(2, 9, 3), (2, 7, 3), (4, 9, 5)]), IrreducibleType("H", 4)),
        (_diagram([(1, 6, 3), (2, 6, 3), (6, 9, 3), (3, 9, 3)]), IrreducibleType("D", 5)),
        (_diagram([(1, 6, 3), (2, 6, 3), (2, 5, 3), (6, 9, 3), (3, 9, 3)]), IrreducibleType("E", 6)),
    ]
    for diagram, kind in cases:
        assert classify_components(diagram) == [kind], kind
        assert parabolic_order(diagram) == kind.order, kind
        assert sum(descent_class_sizes(diagram).values()) == kind.order, kind


def _fork(arms):
    # a centre 0 with paths of the given lengths, generators numbered
    # along each arm from the centre
    edges, g = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, g, 3))
            prev, g = g, g + 1
    return _diagram(edges)


REJECTED = [
    # a 4-cycle: each proper connected subset is a path
    ("component is not a tree", _diagram([(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)])),
    ("unrecognized branched component", _fork((1, 1, 1, 1))),
    ("branched component with arms [1, 2, 5]", _fork((1, 2, 5))),
    ("more than one labeled edge", _diagram([(1, 2, 4), (2, 3, 4)])),
    ("interior 4-edge on a path of rank != 4", _diagram([(1, 2, 3), (2, 3, 4), (3, 4, 3), (4, 5, 3)])),
    ("path with a 5-edge of rank 5", _diagram([(1, 2, 5), (2, 3, 3), (3, 4, 3), (4, 5, 3)])),
]


@pytest.mark.parametrize("message, diagram", REJECTED, ids=[m for m, _ in REJECTED])
def test_classifier_rejects_each_infinite_shape(message, diagram):
    # every proper subset classifies, so each route fails only on the whole
    # diagram, with the same message
    gens = diagram.generators
    for mask in range(1, (1 << len(gens)) - 1):
        subset = [g for i, g in enumerate(gens) if mask >> i & 1]
        assert parabolic_order(diagram, subset) >= 2
    match = "^" + re.escape(message) + "$"
    for call in (lambda: classify_components(diagram),
                 lambda: parabolic_order(diagram),
                 lambda: descent_class_sizes(diagram),
                 lambda: descent_class_multiset(diagram),
                 lambda: ribbon_general(diagram, []),
                 lambda: ribbon_general(diagram, gens[1::2]),
                 lambda: ribbon_general(diagram, gens)):
        with pytest.raises(UnclassifiableError, match=match):
            call()


def test_components_listed_by_smallest_generator_on_a_scrambled_numbering():
    # bit order (9, 4, 1, 6, 2, 8, 5) puts A2 {9, 2} first and B2 {1, 6}
    # third; by smallest generator B2 comes first
    diagram = CoxeterDiagram((9, 4, 1, 6, 2, 8, 5), ((2, 9, 3), (4, 8, 5), (1, 6, 4)))
    a2, i25, b2, a1 = (IrreducibleType("A", 2), IrreducibleType("I", 2, 5),
                       IrreducibleType("B", 2), IrreducibleType("A", 1))
    assert classify_components(diagram) == [b2, a2, i25, a1]
    assert classify_components(diagram, [8, 5, 4, 6, 1]) == [b2, i25, a1]
    assert classify_components(diagram, (2, 4, 8, 9)) == [a2, i25]
    assert classify_components(diagram, []) == []
    assert parabolic_order(diagram) == 8 * 6 * 10 * 2


def test_unclassifiable_diagram_refused_by_the_sweeps():
    triangle = CoxeterDiagram((1, 2, 3), ((1, 2, 3), (1, 3, 3), (2, 3, 3)))
    with pytest.raises(UnclassifiableError):
        descent_class_sizes(triangle)
    for subset in ([], [2], [1, 2, 3]):
        with pytest.raises(UnclassifiableError):
            ribbon_general(triangle, subset)


def test_ribbon_general_at_rank_1000():
    # twelve generators of A1000: 2^12 terms over a quotient path of 25
    # nodes (the generators and the 13 runs between them), not 1000
    cuts = [round((j + 1) * 1001 / 13) for j in range(12)]
    bounds = [0] + cuts + [1001]
    alpha = Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    assert alpha.descents() == tuple(cuts)
    assert ribbon_general(builtin_diagram("A1000"), cuts) == ribbon_exact("A", alpha)


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


def test_half_sweep_matches_full_butterfly():
    # the sweeps run the butterfly over the subsets without the last
    # generator and mirror by complement; here it runs over all 2^rank
    # coset counts |W| / |W_(S minus J)|, exactly, one pair at a time
    for name in ("A12", "B12", "D11", "E8", "H4", "I2:8"):
        diagram = builtin_diagram(name)
        orders = _parabolic_orders(diagram, diagram.generators)
        whole = orders[-1]
        full = [whole // orders[-1 - mask] for mask in range(len(orders))]
        bit = 1
        while bit < len(full):
            for mask in range(len(full)):
                if mask & bit:
                    full[mask] -= full[mask ^ bit]
            bit <<= 1
        assert _class_sizes(diagram) == full[:len(full) // 2], name
        gens = diagram.generators
        by_subset = {
            frozenset(g for i, g in enumerate(gens) if mask >> i & 1): size
            for mask, size in enumerate(full)
        }
        assert descent_class_sizes(diagram) == by_subset, name
        assert descent_class_multiset(diagram) == Counter(full), name
    # rank 0: the empty subset is its own complement
    empty = CoxeterDiagram((), ())
    assert descent_class_sizes(empty) == {frozenset(): 1}
    assert descent_class_multiset(empty) == {1: 1}


@pytest.mark.parametrize("name, words", [
    ("B16", 1), ("D16", 1), ("B17", 2), ("D17", 2), ("I2:" + str(10**40), 3), ("SCATTERED", 1),
])
def test_packed_class_sizes_at_the_lane_width_edges(name, words):
    # _class_sizes packs the coset counts in lanes of 64 t bits, t words
    # from |W|; here a list Yates over the same counts, one level at a time
    diagram = SCATTERED if name == "SCATTERED" else builtin_diagram(name)
    whole, counts = coxeter._coset_counts(diagram)
    assert -(-whole.bit_length() // 64) == words
    sizes = list(counts)
    bit = 1
    while bit < len(sizes):
        for mask in range(len(sizes)):
            if mask & bit:
                sizes[mask] -= sizes[mask ^ bit]
        bit <<= 1
    assert _class_sizes(diagram) == sizes
    assert sum(sizes) * 2 == whole
    if name.startswith("I2:"):
        m = 10**40
        assert whole.bit_length() == 134
        assert descent_class_multiset(diagram) == {1: 2, m - 1: 2}


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


def test_multisets_match_chain_recurrence_across_field_widths():
    # the class sizes come from exact passes over Python ints, whose size
    # grows with the group: |A11| has 29 bits, |A12| 33 (past 4 bytes),
    # |B12| 41, |D13| 45 and |D14| 50
    for family, rank in (("A", 11), ("A", 12), ("B", 12), ("D", 13), ("D", 14)):
        walk = indices(Composition, rank + 1) if family == "A" else indices(PseudoComposition, rank)
        expected = Counter(ribbon_exact(family, alpha) for alpha in walk)
        assert descent_class_multiset(builtin_diagram(f"{family}{rank}")) == expected, (family, rank)


def test_residue_histograms_match_multiset_tallies_across_field_widths():
    # the histogram reduces the exact class sizes mod p; the references share
    # no transform with them: cvec's naive sweep in its 1- (p up to 131),
    # 2- (257) and 4-byte (65537) fields for A, B and D, and the mod-p
    # tally of ribbon_general over every generator subset for the rest,
    # from rank 0 to E8
    primes = (2, 3, 5, 7, 13, 131, 257, 65537)
    groups = [("A", r, r + 1) for r in range(1, 13)] + [("B", r, r) for r in range(2, 12)]
    groups += [("D", r, r) for r in range(4, 12)]
    for family, rank, n in groups:
        diagram = builtin_diagram(f"{family}{rank}")
        for p in primes:
            assert residue_histogram(diagram, p) == cvec_naive(family, n, p).counts, (diagram.name, p)
    names = ["E6", "E7", "E8", "F4", "H3", "H4"] + [f"I2:{m}" for m in range(3, 13)]
    for diagram in [builtin_diagram(name) for name in names] + [CoxeterDiagram((), ())]:
        gens = diagram.generators
        sizes = Counter(ribbon_general(diagram, [g for i, g in enumerate(gens) if mask >> i & 1])
                        for mask in range(1 << len(gens)))
        for p in primes:
            assert residue_histogram(diagram, p) == tuple(residue_tally(sizes, p)), (diagram.name, p)


def test_diagram_rank_past_the_budget_refused_before_allocating():
    # tests/test_budgets.py refuses a rank past DIAGRAM_MAX_RANK, of any
    # length; at the budget the diagram is built, and leading zeros are not
    # digits of the rank
    assert len(builtin_diagram(f"D{DIAGRAM_MAX_RANK}").generators) == DIAGRAM_MAX_RANK
    assert builtin_diagram("A" + "0" * 5000 + "3") == builtin_diagram("A3")


def test_subset_sweeps_past_the_budget_refused_before_allocating():
    # tests/test_budgets.py refuses a class with more than SUBSET_MAX_RANK
    # generators on either side of its complement; a class whose complement
    # is within the budget answers in under 1 MiB traced: A30 without its
    # last generator is the complement of {30}, C(31, 30) - 1 elements, and
    # A40 with every generator is w0 alone
    wide, wider = builtin_diagram("A30"), builtin_diagram("A40")
    for diagram, subset, size in ((wide, wide.generators[:-1], 30), (wider, wider.generators, 1)):
        value, peak = traced_peak(lambda: ribbon_general(diagram, subset))
        assert value == size and peak < 1 << 20


def test_ribbon_general_rejects_foreign_generators():
    with pytest.raises(ValueError):
        ribbon_general(builtin_diagram("A3"), [0])  # type A generators start at 1


def test_irreducible_type_order_table():
    assert IrreducibleType("A", 3).order == 24
    assert IrreducibleType("B", 4).order == 384
    assert IrreducibleType("D", 5).order == 1920
    assert IrreducibleType("I", 2, 6).order == 12
    assert str(IrreducibleType("I", 2, 6)) == "I2(6)"
    assert str(IrreducibleType("E", 8)) == "E8"
    with pytest.raises(ValueError):
        IrreducibleType("I", 3, 6)
