"""General finite Coxeter diagrams and their descent-class sizes.

Parabolic subgroup orders come from pattern-matching induced subdiagrams
against the classification of finite irreducible diagrams, never from
element enumeration, so even the largest exceptional groups take only a
subset sweep of the generator set.  The descent-class size for a generator
subset I is recovered by inclusion-exclusion over the coset counts
|W| / |W_(S minus J)| for J inside I: for a single I term by term, and for
all 2^rank subsets at once by one O(rank 2^rank) subset Moebius butterfly
over the coset counts, modulo |W| + 1 (a class size is at most |W|, so its
residue is the size itself).  Both sweeps refuse more than 2^SUBSET_MAX_RANK
subsets with CapacityError.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial

from .arith import inverse_zeta
from .compositions import CapacityError
from .cvec import _check_tally_prime, _tally

# Subset sweeps over generators (all 2^rank descent classes, or the 2^|I|
# terms of one class) are capped to keep memory and time sane.
SUBSET_MAX_RANK = 18

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}


@dataclass(frozen=True)
class IrreducibleType:
    """One entry of the classification: a family letter, a rank, and for the
    dihedral family the edge label m."""

    family: str
    rank: int
    m: int | None = None

    def __post_init__(self):
        if self.family == "I" and (self.rank != 2 or self.m is None or self.m < 3):
            raise ValueError("dihedral types are I2(m) with m >= 3")

    @property
    def order(self) -> int:
        if self.family == "A":
            return factorial(self.rank + 1)
        if self.family == "B":
            return (1 << self.rank) * factorial(self.rank)
        if self.family == "D":
            return (1 << (self.rank - 1)) * factorial(self.rank)
        if self.family == "I":
            return 2 * self.m
        return _EXCEPTIONAL_ORDERS[(self.family, self.rank)]

    def __str__(self) -> str:
        if self.family == "I":
            return f"I2({self.m})"
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CoxeterDiagram:
    """Labeled graph on generator indices; a missing edge means label 2."""

    generators: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (s, t, label), s < t, label >= 3
    name: str | None = None

    def __post_init__(self):
        gens = set(self.generators)
        seen = set()
        for s, t, m in self.edges:
            if s >= t or s not in gens or t not in gens:
                raise ValueError(f"bad edge ({s}, {t})")
            if m < 3:
                raise ValueError("edge labels start at 3; label 2 means no edge")
            if (s, t) in seen:
                raise ValueError(f"duplicate edge ({s}, {t})")
            seen.add((s, t))

    def label(self, s: int, t: int) -> int:
        if s == t:
            return 1
        key = (s, t) if s < t else (t, s)
        for a, b, m in self.edges:
            if (a, b) == key:
                return m
        return 2

    def rank(self) -> int:
        return len(self.generators)


def _path(labels_between: dict[int, int], gens: list[int]) -> tuple:
    edges = []
    for i in range(len(gens) - 1):
        edges.append((gens[i], gens[i + 1], labels_between.get(i, 3)))
    return tuple(edges)


def builtin_diagram(name: str) -> CoxeterDiagram:
    """The standard diagram for a canonical label.

    Accepted labels: ``A<n>`` (n >= 1), ``B<n>`` (n >= 2), ``D<n>``
    (n >= 4), ``E6``/``E7``/``E8``, ``F4``, ``H3``/``H4``, and ``I2:<m>``
    (m >= 3).  Types B and D are numbered s_0 .. s_{n-1} with the 4-edge on
    s_0 in type B and with s_0, s_1 the two fork tips in type D; the other
    types are numbered from 1.
    """
    label = name.strip().upper().replace(" ", "")
    match = re.fullmatch(r"([ABD])(\d+)", label)
    if match:
        fam, rank = match.group(1), int(match.group(2))
        if fam == "A":
            if rank < 1:
                raise ValueError("type A needs rank >= 1")
            gens = list(range(1, rank + 1))
            return CoxeterDiagram(tuple(gens), _path({}, gens), f"A{rank}")
        if fam == "B":
            if rank < 2:
                raise ValueError("type B needs rank >= 2")
            gens = list(range(rank))
            return CoxeterDiagram(tuple(gens), _path({0: 4}, gens), f"B{rank}")
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        gens = tuple(range(rank))
        edges = [(0, 2, 3), (1, 2, 3)]
        edges += [(i, i + 1, 3) for i in range(2, rank - 1)]
        return CoxeterDiagram(gens, tuple(edges), f"D{rank}")
    if label in ("E6", "E7", "E8"):
        rank = int(label[1])
        gens = list(range(1, rank + 1))
        edges = [(1, 3, 3), (2, 4, 3), (3, 4, 3)]
        edges += [(i, i + 1, 3) for i in range(4, rank)]
        return CoxeterDiagram(tuple(gens), tuple(sorted(edges)), label)
    if label == "F4":
        gens = [1, 2, 3, 4]
        return CoxeterDiagram(tuple(gens), _path({1: 4}, gens), "F4")
    if label in ("H3", "H4"):
        rank = int(label[1])
        gens = list(range(1, rank + 1))
        return CoxeterDiagram(tuple(gens), _path({0: 5}, gens), label)
    match = re.fullmatch(r"I2[:(]?(\d+)\)?", label)
    if match:
        m = int(match.group(1))
        if m < 3:
            raise ValueError("I2(m) needs m >= 3")
        return CoxeterDiagram((1, 2), ((1, 2, m),), f"I2:{m}")
    raise ValueError(f"unknown diagram label {name!r}")


class UnclassifiableError(ValueError):
    """A component does not match any finite irreducible diagram."""


def _classify_component(nodes: list[int], adj: dict[int, list[tuple[int, int]]]) -> IrreducibleType:
    k = len(nodes)
    if k == 1:
        return IrreducibleType("A", 1)
    degrees = {v: len(adj[v]) for v in nodes}
    edge_count = sum(degrees.values()) // 2
    if edge_count != k - 1:
        raise UnclassifiableError("component is not a tree")
    labeled = [(v, w, m) for v in nodes for w, m in adj[v] if v < w and m >= 4]
    branch = [v for v in nodes if degrees[v] >= 3]
    if branch:
        if labeled or len(branch) > 1 or degrees[branch[0]] > 3:
            raise UnclassifiableError("unrecognized branched component")
        center = branch[0]
        arms = []
        for start, _ in adj[center]:
            length = 1
            prev, cur = center, start
            while degrees[cur] == 2:
                nxt = next(w for w, _ in adj[cur] if w != prev)
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return IrreducibleType("D", arms[2] + 3)
        if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
            return IrreducibleType("E", arms[2] + 4)
        raise UnclassifiableError(f"branched component with arms {arms}")
    # a path from here on
    if len(labeled) > 1:
        raise UnclassifiableError("more than one labeled edge")
    if not labeled:
        return IrreducibleType("A", k)
    v, w, m = labeled[0]
    if k == 2:
        if m == 4:
            return IrreducibleType("B", 2)
        return IrreducibleType("I", 2, m)
    terminal = degrees[v] == 1 or degrees[w] == 1
    if m == 4:
        if terminal:
            return IrreducibleType("B", k)
        if k == 4:
            return IrreducibleType("F", 4)
        raise UnclassifiableError("interior 4-edge on a path of rank != 4")
    if m == 5 and terminal and k in (3, 4):
        return IrreducibleType("H", k)
    raise UnclassifiableError(f"path with a {m}-edge of rank {k}")


def classify_components(diagram: CoxeterDiagram, subset=None) -> list[IrreducibleType]:
    """Classification entries for the components of an induced subdiagram.

    ``subset`` defaults to the full generator set.  Components are reported
    in order of their smallest generator.
    """
    nodes = set(diagram.generators if subset is None else subset)
    if not nodes <= set(diagram.generators):
        raise ValueError("subset must consist of generators of the diagram")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for s, t, m in diagram.edges:
        if s in nodes and t in nodes:
            adj[s].append((t, m))
            adj[t].append((s, m))
    out = []
    remaining = set(nodes)
    while remaining:
        start = min(remaining)
        comp = [start]
        remaining.discard(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w, _ in adj[v]:
                if w in remaining:
                    remaining.discard(w)
                    comp.append(w)
                    frontier.append(w)
        out.append(_classify_component(comp, adj))
    return out


def parabolic_order(diagram: CoxeterDiagram, subset=None) -> int:
    """Order of the subgroup generated by the subset (the whole group when
    subset is None): the product of its components' classification orders."""
    order = 1
    for part in classify_components(diagram, subset):
        order *= part.order
    return order


def _check_subset_sweep(size: int) -> None:
    if size > SUBSET_MAX_RANK:
        raise CapacityError(
            f"a sweep over 2^{size} generator subsets is past the budget of 2^{SUBSET_MAX_RANK}"
        )


def ribbon_general(diagram: CoxeterDiagram, subset) -> int:
    """Size of the descent class of a generator subset, by inclusion-
    exclusion over the coset counts of the complementary parabolics."""
    gens = frozenset(diagram.generators)
    I = frozenset(subset)
    if not I <= gens:
        raise ValueError("subset must consist of generators of the diagram")
    _check_subset_sweep(len(I))
    group_order = parabolic_order(diagram)
    items = sorted(I)
    total = 0
    for mask in range(1 << len(items)):
        J = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
        cosets, rem = divmod(group_order, parabolic_order(diagram, gens - J))
        if rem:
            raise ArithmeticError("parabolic order does not divide the group order")
        total += cosets if (len(I) - len(J)) % 2 == 0 else -cosets
    return total


def descent_class_sizes(diagram: CoxeterDiagram) -> dict[frozenset, int]:
    """Every descent class size, keyed by the generator subset.

    One parabolic order per subset gives the coset counts |W| / |W_(S minus J)|
    indexed by the mask of J, and one subset Moebius butterfly turns them
    into the class sizes.  Every class size lies in [0, |W|], so the
    butterfly runs modulo |W| + 1 and each residue is the exact size.
    """
    gens = diagram.generators
    _check_subset_sweep(len(gens))
    full = (1 << len(gens)) - 1
    subsets = [tuple(g for i, g in enumerate(gens) if mask >> i & 1) for mask in range(full + 1)]
    orders = [parabolic_order(diagram, subset) for subset in subsets]
    sizes = [orders[full] // orders[full ^ mask] for mask in range(full + 1)]
    inverse_zeta(sizes, orders[full] + 1)
    return {frozenset(subset): size for subset, size in zip(subsets, sizes)}


def descent_class_multiset(diagram: CoxeterDiagram) -> Counter:
    """Sizes of all 2^rank descent classes, as a Counter {size: multiplicity}."""
    return Counter(descent_class_sizes(diagram).values())


def residue_histogram(diagram: CoxeterDiagram, p: int) -> tuple[int, ...]:
    """Tally of the descent-class sizes modulo p, indexed by residue.

    A prime past the index budget of ``cvec`` is refused with CapacityError.
    """
    _check_tally_prime(p)
    return tuple(_tally(descent_class_multiset(diagram), p))
