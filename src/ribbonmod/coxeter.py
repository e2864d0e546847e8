"""General finite Coxeter diagrams and their descent-class sizes.

Parabolic subgroup orders come from matching induced subdiagrams against
the classification of finite irreducible diagrams, never from element
enumeration, so even the largest exceptional groups take only a subset
sweep of the generator set.  One classifier reads a connected generator
bitmask by bit operations on a view of the diagram built once per call
(neighbour masks, labeled edges as pair masks, the nodes of degree >= 3,
a forest flag): local degrees are popcounts, the arms of a fork are the
components of the mask without its centre.  The sweeps read one order
table indexed by generator bitmask, filled by blocks of top bit h: each
connected mask C whose top bit is h is classified once, and the masks
C + x of the block, x below h and not touching C, are one scaled copy
order[C + x] = |W_C| * order[x] of a slice of the lower blocks (a few
slices at a fork or a scattered numbering).  The descent-class size for a
generator subset I is recovered by inclusion-exclusion over the coset
counts |W| / |W_(S minus J)| for J inside I: for a single I term by term,
on I or S minus I, whichever is smaller, over a table of I whose nodes are
the generators of I and the components of S minus I (2^|I| entries, a term
one division, whatever the rank), and for all 2^rank subsets at once by
one O(rank 2^(rank - 1)) subset Moebius butterfly over the coset counts of
the subsets without the last generator: an exact transform over one Python
int that holds the counts in lanes of 64 t bits (t words, from |W|), a
shift, a mask and a subtraction per level; the class of each complement
has the same size.  A residue histogram reduces those exact sizes mod p.
Both sweeps refuse more than 2^SUBSET_MAX_RANK subsets with CapacityError
(one class counts the subsets of its smaller side), and a residue
histogram a prime past ``arith.TALLY_MAX_BITS``.  Nothing here comes from
``cvec`` or from the packed mod-p butterfly it runs: this route is the
independent check of its p-vectors.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from functools import cache
from itertools import repeat
from math import factorial, prod
from operator import floordiv

from .arith import check_tally_prime, residue_tally
from .compositions import CapacityError, _Record, text_head

# Subset sweeps over generators (all 2^rank descent classes, or the 2^|I|
# terms of one class) are capped to keep memory and time sane.
SUBSET_MAX_RANK = 18

# Largest rank of a builtin A/B/D diagram, checked before any generator is
# made: `coxeter --group A10000 --subset 1,2` took 0.28 s and 30 MB peak
# RSS, A20000 0.55 s and 56 MB (fresh process, 2-core machine, Python 3.11).
DIAGRAM_MAX_RANK = 10_000

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}


class IrreducibleType(_Record):
    """One entry of the classification: a family letter, a rank, and for the
    dihedral family the edge label m."""

    __slots__ = ("family", "rank", "m")

    def __init__(self, family: str, rank: int, m: int | None = None):
        if family == "I" and (rank != 2 or m is None or m < 3):
            raise ValueError("dihedral types are I2(m) with m >= 3")
        _Record.__init__(self, family, rank, m)

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


class CoxeterDiagram(_Record):
    """Labeled graph on generator indices; a missing edge means label 2."""

    __slots__ = ("generators", "edges", "name")  # edges: (s, t, label), s < t, label >= 3

    def __init__(self, generators: tuple[int, ...], edges: tuple[tuple[int, int, int], ...],
                 name: str | None = None):
        gens = set(generators)
        if len(gens) != len(generators):
            raise ValueError("duplicate generator")
        seen = set()
        for s, t, m in edges:
            if s >= t or s not in gens or t not in gens:
                raise ValueError(f"bad edge ({text_head(s)}, {text_head(t)})")
            if m < 3:
                raise ValueError("edge labels start at 3; label 2 means no edge")
            if (s, t) in seen:
                raise ValueError(f"duplicate edge ({text_head(s)}, {text_head(t)})")
            seen.add((s, t))
        _Record.__init__(self, generators, edges, name)

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
    return tuple((gens[i], gens[i + 1], labels_between.get(i, 3)) for i in range(len(gens) - 1))


def builtin_diagram(name: str) -> CoxeterDiagram:
    """The standard diagram for a canonical label.

    Accepted labels: ``A<n>`` (n >= 1), ``B<n>`` (n >= 2), ``D<n>``
    (n >= 4), ``E6``/``E7``/``E8``, ``F4``, ``H3``/``H4``, and ``I2:<m>``
    (m >= 3, also ``I2(<m>)`` or ``I2<m>``).  Types B and D are numbered s_0 .. s_{n-1} with the 4-edge on
    s_0 in type B and with s_0, s_1 the two fork tips in type D; the other
    types are numbered from 1.  An A, B or D rank past DIAGRAM_MAX_RANK is
    refused with CapacityError before anything is built.
    """
    label = name.strip().upper().replace(" ", "") if isinstance(name, str) else ""
    match = re.fullmatch(r"([ABD])0*(\d+)", label)
    if match:
        # a rank of more digits than the budget is refused by its least value, before int() reads it
        fam, digits = match.groups()
        rank = int(digits) if len(digits) <= len(str(DIAGRAM_MAX_RANK)) else 10 ** (len(digits) - 1)
        if rank > DIAGRAM_MAX_RANK:
            raise CapacityError("coxeter.DIAGRAM_MAX_RANK", rank, DIAGRAM_MAX_RANK)
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
    match = re.fullmatch(r"I2(?::|(\())?(\d+)(?(1)\))", label)  # I2:m, I2m, or I2(m) with both parentheses
    if match:
        m = int(match.group(2))
        if m < 3:
            raise ValueError("I2(m) needs m >= 3")
        return CoxeterDiagram((1, 2), ((1, 2, m),), f"I2:{m}")
    raise ValueError(f"unknown diagram label {text_head(name)}")


class UnclassifiableError(ValueError):
    """A component does not match any finite irreducible diagram."""


def _component(nbr: list[int], seed: int, allowed: int) -> int:
    # the connected component of the seed bits inside the allowed mask, by
    # frontier expansion over the neighbour bitmasks nbr[i] of node i
    comp = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & allowed & ~comp
        comp |= new
        frontier |= new
    return comp


@cache
def _irreducible(family: str, rank: int, m: int | None = None) -> IrreducibleType:
    # one shared instance per (family, rank, m): a lookup, not a construction
    return IrreducibleType(family, rank, m)


def _root(parent: list[int], a: int) -> int:
    # union-find root of node a, halving its path on the way up
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _diagram_view(diagram: CoxeterDiagram):
    # what the classifier reads of a diagram, built once per call: the bit
    # index of each generator, the neighbour bitmask nbr[i] of each bit, the
    # labeled edges (m >= 4) as (pair mask, m), the mask of the nodes of
    # degree >= 3, and whether the diagram is a forest, in which case every
    # connected mask is a tree
    gens = diagram.generators
    index = {g: i for i, g in enumerate(gens)}
    nbr, degree, parent = [0] * len(gens), [0] * len(gens), list(range(len(gens)))
    labeled, forest = [], True
    for s, t, m in diagram.edges:
        i, j = index[s], index[t]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
        degree[i] += 1
        degree[j] += 1
        if m >= 4:
            labeled.append((1 << i | 1 << j, m))
        # an edge inside one tree of the forest so far closes a cycle
        a, b = _root(parent, i), _root(parent, j)
        forest = forest and a != b
        parent[a] = b
    branch = sum(1 << i for i, d in enumerate(degree) if d >= 3)
    return index, (nbr, labeled, branch, forest)


def _classify_mask(mask: int, view) -> IrreducibleType:
    # the classification entry of a connected generator bitmask; degrees
    # are local, the popcounts of nbr[i] & mask
    nbr, labeled, branch, forest = view
    k = mask.bit_count()
    if k == 1:
        return _irreducible("A", 1)
    if not forest:
        degree_sum, rest = 0, mask
        while rest:
            low = rest & -rest
            rest ^= low
            degree_sum += (nbr[low.bit_length() - 1] & mask).bit_count()
        if degree_sum != 2 * (k - 1):
            raise UnclassifiableError("component is not a tree")
    edges = [(pair, m) for pair, m in labeled if pair & mask == pair]
    hubs, rest = [], branch & mask
    while rest:
        low = rest & -rest
        rest ^= low
        degree = (nbr[low.bit_length() - 1] & mask).bit_count()
        if degree >= 3:
            hubs.append((low, degree))
    if hubs:
        if edges or len(hubs) > 1 or hubs[0][1] > 3:
            raise UnclassifiableError("unrecognized branched component")
        # the arms are the components of the tree without its centre
        center = hubs[0][0]
        arms, ends = [], nbr[center.bit_length() - 1] & mask
        while ends:
            arm = _component(nbr, ends & -ends, mask ^ center)
            ends &= ~arm
            arms.append(arm.bit_count())
        arms.sort()
        if arms[:2] == [1, 1]:
            return _irreducible("D", arms[2] + 3)
        if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
            return _irreducible("E", arms[2] + 4)
        raise UnclassifiableError(f"branched component with arms {arms}")
    # a path from here on
    if len(edges) > 1:
        raise UnclassifiableError("more than one labeled edge")
    if not edges:
        return _irreducible("A", k)
    pair, m = edges[0]
    if k == 2:
        if m == 4:
            return _irreducible("B", 2)
        return _irreducible("I", 2, m)
    # terminal: an end of the labeled edge has no other neighbour in mask
    v = pair & -pair
    w = pair ^ v
    terminal = (nbr[v.bit_length() - 1] & mask) == w or (nbr[w.bit_length() - 1] & mask) == v
    if m == 4:
        if terminal:
            return _irreducible("B", k)
        if k == 4:
            return _irreducible("F", 4)
        raise UnclassifiableError("interior 4-edge on a path of rank != 4")
    if m == 5 and terminal and k in (3, 4):
        return _irreducible("H", k)
    raise UnclassifiableError(f"path with a {text_head(m)}-edge of rank {k}")


def classify_components(diagram: CoxeterDiagram, subset=None) -> list[IrreducibleType]:
    """Classification entries for the components of an induced subdiagram.

    ``subset`` defaults to the full generator set.  Components are reported
    in order of their smallest generator.
    """
    gens = diagram.generators
    nodes = set(gens if subset is None else subset)
    if not nodes <= set(gens):
        raise ValueError("subset must consist of generators of the diagram")
    index, view = _diagram_view(diagram)
    rest = sum(1 << index[g] for g in nodes)
    out = []
    for g in sorted(nodes):
        bit = 1 << index[g]
        if rest & bit:
            comp = _component(view[0], bit, rest)
            rest ^= comp
            out.append(_classify_mask(comp, view))
    return out


def parabolic_order(diagram: CoxeterDiagram, subset=None) -> int:
    """Order of the subgroup generated by the subset (the whole group when
    subset is None): the product of its components' classification orders."""
    return prod(part.order for part in classify_components(diagram, subset))


def _parabolic_orders(diagram: CoxeterDiagram, subset) -> list[int]:
    """The order table of a generator subset I: entry K is the index
    |W_(K + S minus I)| / |W_(S minus I)| for every K inside I, with bit j of
    K standing for the j-th generator of I in ``diagram.generators`` order.
    For I = S it is the parabolic order |W_K|; for a smaller I, dividing out
    the order of S minus I keeps the entries (and the coset counts taken
    from them) down to the size of the answer.

    The table runs over a quotient graph on the bits of I, two bits being
    neighbours when their generators touch or both touch one component of
    S minus I, and is filled by blocks of top bit h.  Each connected set C
    with top bit h is grown from h once, by taking or fencing off each lower
    neighbour (the fenced ones are its lower boundary B), and its span, C
    with the components of S minus I it touches, is classified once as a
    bitmask by ``_classify_mask``.  Each K of the block is C + x with x
    below h avoiding C + B, and order[C + x] = ratio(C) * order[x],
    ratio(C) being |W| of the span over the orders of those components.
    The x below the lowest bit 2^t of (C - h) + B fill a slice, so C is one
    scaled copy of 2^t entries per subset of its free bits between t and h:
    one copy on a path numbered in order (A, B, F, H, I), a few one-entry
    copies more at a fork (D, E).  An I past SUBSET_MAX_RANK is refused first.
    """
    if len(subset) > SUBSET_MAX_RANK:
        raise CapacityError("coxeter.SUBSET_MAX_RANK", len(subset), SUBSET_MAX_RANK)
    gens = diagram.generators
    _, view = _diagram_view(diagram)
    nbr = view[0]
    items = [i for i, g in enumerate(gens) if g in subset]
    k = len(items)
    rest = (1 << len(gens)) - 1 - sum(1 << i for i in items)
    blocks = []
    while rest:
        blocks.append(_component(nbr, rest & -rest, rest))
        rest ^= blocks[-1]
    block_orders = [_classify_mask(block, view).order for block in blocks]
    # per bit of I: its generator with the components of S minus I it
    # touches (span), their bits in ``blocks`` (att), its quotient neighbours
    span, att = [1 << i for i in items], [0] * k
    for a, i in enumerate(items):
        for b, block in enumerate(blocks):
            if nbr[i] & block:
                span[a] |= block
                att[a] |= 1 << b
    qnbr = [sum(1 << b for b in range(k) if b != a and nbr[i] & span[b]) for a, i in enumerate(items)]
    orders = [1] * (1 << k)
    for h in range(k):
        below = (1 << h) - 1
        # C, its lower neighbours not yet taken or fenced, B, C's span, att
        stack = [(1 << h, qnbr[h] & below, 0, span[h], att[h])]
        while stack:
            conn, open_, fence, mask, attached = stack.pop()
            if open_:
                low = open_ & -open_
                a = low.bit_length() - 1
                stack.append((conn, open_ ^ low, fence | low, mask, attached))
                grown = conn | low
                stack.append((grown, (open_ | qnbr[a]) & below & ~grown & ~fence,
                              fence, mask | span[a], attached | att[a]))
                continue
            ratio = _classify_mask(mask, view).order
            for b in range(attached.bit_length()):
                if attached >> b & 1:
                    ratio //= block_orders[b]
            low = conn & below | fence
            size = low & -low or 1 << h
            free = y = below & ~(size - 1) & ~conn & ~fence
            while y >= 0:
                orders[conn | y:(conn | y) + size] = [ratio * o for o in orders[y:y + size]]
                y = (y - 1) & free if y else -1
    return orders


def ribbon_general(diagram: CoxeterDiagram, subset) -> int:
    """Size of the descent class of a generator subset I, by inclusion-
    exclusion over the coset counts |W| / |W_(S minus J)|, J inside I, read
    from the order table of I: they are order[I] / order[K] for K = I minus J.

    I is first replaced by S minus I when that has strictly fewer
    generators, since the two classes have the same size (see
    ``descent_class_sizes``), so the 2^|I| terms and the subset budget
    read min(|I|, |S| - |I|)."""
    S = frozenset(diagram.generators)
    I = frozenset(subset)
    if not I <= S:
        raise ValueError("subset must consist of generators of the diagram")
    if len(S) - len(I) < len(I):
        I = S - I
    orders = _parabolic_orders(diagram, I)
    whole = orders[-1]
    return sum(
        -(whole // order) if K.bit_count() & 1 else whole // order
        for K, order in enumerate(orders)
    )


def _coset_counts(diagram: CoxeterDiagram):
    # |W| and the coset counts |W| / |W_(S minus J)| of the generator subsets
    # J without the last generator, by bitmask: the masks below 2^(rank - 1),
    # or the empty one at rank 0; the class of S minus J has the same size.
    # S minus J has the complementary mask, read from the upper half of the
    # order table backwards
    orders = _parabolic_orders(diagram, diagram.generators)
    whole = orders[-1]
    return whole, map(floordiv, repeat(whole), reversed(orders[len(orders) // 2:]))


def _class_sizes(diagram: CoxeterDiagram) -> list[int]:
    """The exact class sizes of ``_coset_counts``' subsets J, by mask, from
    one subset Moebius transform over a single int.

    The int holds the coset counts in lanes of 64 t bits, t = ceil(bits(|W|)
    / 64) words, lane i at bit 64 t i.  The level of lane distance d takes
    every lane whose index has the bit d from the lane d below it:
    x -= (x << d lane) & U_d, where U_d covers the lanes with that bit:
    U_d = U_2d ^ (U_2d >> d lane), from U_N covering all N lanes.  No lane
    ever borrows from the next: after the levels of a bit set P, lane J
    holds #{w : Des(w) inside J, Des(w) containing J & P}, a count in
    [0, |W|].  The counts go in and come out as little-endian 64-bit words,
    by ``struct``; past one word a count goes in by ``int.to_bytes`` and
    comes out joined from its words.
    """
    whole, counts = _coset_counts(diagram)
    t = -(-whole.bit_length() // 64)
    lane, lanes = 64 * t, max(1 << diagram.rank() >> 1, 1)
    if t == 1:
        x = int.from_bytes(struct.pack(f"<{lanes}Q", *counts), "little")
    else:
        x = int.from_bytes(b"".join(map(int.to_bytes, counts, repeat(8 * t), repeat("little"))), "little")
    d, upper = lanes, (1 << lanes * lane) - 1
    while d > 1:
        d >>= 1
        upper ^= upper >> d * lane
        x -= (x << d * lane) & upper
    words = struct.unpack(f"<{t * lanes}Q", x.to_bytes(8 * t * lanes, "little"))
    del x
    # the top word of each lane first, then one word below it per pass
    sizes = list(words[t - 1::t])
    for k in range(t - 2, -1, -1):
        sizes = [s << 64 | w if s else w for s, w in zip(sizes, words[k::t])]
    return sizes


def descent_class_sizes(diagram: CoxeterDiagram) -> dict[frozenset, int]:
    """Every descent class size, keyed by the generator subset.

    The order table gives the coset counts |W| / |W_(S minus J)| indexed by
    the mask of J, and one exact subset Moebius butterfly turns them into
    the class sizes.  The butterfly runs only over the subsets J that
    avoid the last generator (they are closed under subsets): w -> w0 w
    maps the class of J onto the class of S minus J, since l(w0 w) =
    l(w0) - l(w) turns every right descent of w into an ascent and back
    (Bjorner and Brenti, Combinatorics of Coxeter Groups, Prop. 2.3.2), so
    the other half is the first one mirrored.
    """
    gens = diagram.generators
    half = _class_sizes(diagram)
    # mask m of the upper half is the complement of mask 2^rank - 1 - m
    sizes = half + half[::-1] if gens else half
    return {
        frozenset(g for i, g in enumerate(gens) if mask >> i & 1): size
        for mask, size in enumerate(sizes)
    }


def descent_class_multiset(diagram: CoxeterDiagram) -> Counter:
    """Sizes of all 2^rank descent classes, as a Counter {size: multiplicity}:
    the classes of the subsets without the last generator, each counted
    twice, once for itself and once for its complement."""
    sizes = _class_sizes(diagram)
    counts = Counter(sizes)
    if diagram.generators:
        counts.update(sizes)
    return counts


def format_multiset(pairs) -> str:
    """A multiset as text, ``size^multiplicity`` for each of its (size,
    multiplicity) pairs, given by increasing size."""
    return ", ".join(f"{size}^{mult}" for size, mult in pairs)


def residue_histogram(diagram: CoxeterDiagram, p: int) -> tuple[int, ...]:
    """Tally of the descent-class sizes modulo p, indexed by residue: the
    sizes of ``descent_class_multiset`` taken mod p.  A prime past
    ``arith.TALLY_MAX_BITS`` is refused with CapacityError before any sweep.
    """
    check_tally_prime(p)
    return tuple(residue_tally(descent_class_multiset(diagram), p))
