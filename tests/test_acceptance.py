"""Acceptance suite: every criterion runs exactly, one pass/fail line each.

Criterion 5 compares single descent classes, and criterion 6 p-vectors,
by every route that answers at each point of their tables; criteria 7 and
8 hold the end-to-end identities.  Some unit tests still check a slice of
these tables or identities on their own.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All comparisons are exact integer equality; the stated runtime
ceilings are asserted too.
"""

import time
from itertools import combinations
from math import factorial

from ribbonmod.arith import base_p_digits
from ribbonmod.compositions import enumerate_compositions, enumerate_pseudo_compositions, mask_offset
from ribbonmod.coxeter import (
    SUBSET_MAX_RANK,
    builtin_diagram,
    descent_class_multiset,
    descent_class_sizes,
    residue_histogram,
    ribbon_general,
)
from ribbonmod.cvec import (
    NAIVE_MAX_BITS,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    partitions,
    standard_tableau_count,
    support_set,
)
from ribbonmod.ribbon import (
    ORACLE_MAX_N,
    _chain_exact,
    chain_mod_p,
    oracle_descent_class_sizes,
    ribbon_a_det,
    ribbon_exact,
    ribbon_mod_p,
)
from ribbonmod.verify import closed_form_grid, golden_multisets, golden_vectors


def _finish(number: int, description: str, started: float, limit: float, problems: list):
    elapsed = time.time() - started
    status = "PASS" if not problems and elapsed < limit else "FAIL"
    print(f"{status} criterion {number} ({elapsed:.1f}s / limit {limit:.0f}s): {description}")
    assert not problems, f"criterion {number}: {problems[:5]} ({len(problems)} total)"
    assert elapsed < limit, f"criterion {number} overran: {elapsed:.1f}s >= {limit}s"


def test_criterion_1_type_a_table():
    started = time.time()
    problems = []
    vectors = golden_vectors("type_a.txt")
    assert len(vectors) == 14 * 5
    for (family, p, n), expected in sorted(vectors.items()):
        got = cvec(family, n, p).counts
        if got != expected:
            problems.append((family, n, p, expected, got))
    _finish(1, "type-A vectors for n in 2..15, p in {2,3,5,7,11}", started, 60, problems)


def test_criterion_2_type_b_table():
    started = time.time()
    problems = []
    vectors = golden_vectors("type_b.txt")
    assert len(vectors) == 14 * 4
    for (family, p, n), expected in sorted(vectors.items()):
        got = cvec(family, n, p).counts
        if got != expected:
            problems.append((family, n, p, expected, got))
    for n in range(1, 16):
        if cvec("B", n, 2).counts != (0, 1 << n):
            problems.append(("B parity", n))
    _finish(2, "type-B vectors for n in 2..15, p in {3,5,7,11}, plus p=2 parity", started, 120, problems)


def test_criterion_3_type_d_table():
    started = time.time()
    problems = []
    vectors = golden_vectors("type_d.txt")
    assert len(vectors) == 13 * 4
    for (family, p, n), expected in sorted(vectors.items()):
        got = cvec(family, n, p).counts
        if got != expected:
            problems.append((family, n, p, expected, got))
    for n in range(4, 17):
        if cvec("D", n, 2).counts != (0, 1 << n):
            problems.append(("D parity", n))
    _finish(3, "type-D vectors for n in 4..16, p in {3,5,7,11}, plus p=2 parity", started, 300, problems)


def test_criterion_4_exceptional_data():
    started = time.time()
    problems = []
    multisets = golden_multisets()
    expected_groups = {"F4", "H3", "H4", "E6", "E7"} | {f"I2:{m}" for m in range(3, 13)}
    assert set(multisets) == expected_groups
    for group, expected in sorted(multisets.items()):
        got = descent_class_multiset(builtin_diagram(group))
        if got != expected:
            problems.append((group, "multiset"))
    if descent_class_multiset(builtin_diagram("H3")) != {1: 2, 11: 2, 19: 2, 29: 2}:
        problems.append(("H3", "corrected multiset"))
    for (group, p, _), expected in sorted(golden_vectors("exceptional_histograms.txt").items()):
        got = residue_histogram(builtin_diagram(group), p)
        if got != expected:
            problems.append((group, p, expected, got))
    _finish(4, "exceptional multisets (H3 corrected) and residue histograms", started, 5, problems)


# -- criteria 5 and 6: where two routes answer, they agree ------------------
#
# A route is a function of a point that returns its answer, or None for the
# reason noted with it; any other exception fails the criterion.  A row is
# (required routes, optional routes, points): at each point each of its
# routes runs once, the required ones and at least two answer, and every
# answer is the same.


def _check_rows(routes, rows, problems):
    for required, optional, points in rows:
        for point in points:
            answers = {name: routes[name](*point) for name in required + optional}
            answered = [name for name, answer in answers.items() if answer is not None]
            if len(answered) < 2 or not set(required) <= set(answered):
                problems.append((point, "answered only by", answered))
            elif any(answers[name] != answers[answered[0]] for name in answered):
                problems.append((point, answers))


# the documented least n of the theorem route and least rank of a builtin
# A, B or D diagram, and the largest n of a family at which ribbon_general,
# 2^|I| terms a class, runs here
THEOREM_MIN_N = {"A": 2, "B": 2, "D": 4}
BUILTIN_MIN_RANK = {"A": 1, "B": 2, "D": 4}
GENERAL_MAX_N = {"A": 8, "B": 6, "D": 6}


def _indices(family, n):
    return enumerate_compositions(n) if family == "A" else enumerate_pseudo_compositions(n)


def _diagram(family, n):
    # the builtin A(n - 1), B(n) or D(n), whose generators are the descent
    # positions, or the group named family when n is None
    if n is None:
        return builtin_diagram(family)
    rank = n - mask_offset(family)
    return builtin_diagram(f"{family}{rank}") if rank >= BUILTIN_MIN_RANK[family] else None


def _tally(values, p):
    counts = [0] * p
    for value in values:
        counts[value % p] += 1
    return tuple(counts)


def _least_of_shape(family, n, p):
    # n*: the nonzero base-p digits of n in descending order from place 0,
    # in type D from place 1, after n_0
    digits = base_p_digits(n, p)
    head = digits[:1] if family == "D" else ()
    shape = [*head, *sorted(filter(None, digits[len(head):]), reverse=True)]
    return sum(d * p**j for j, d in enumerate(shape))


def _closed(family, n, p):
    # required from the theorem route's least n on, wherever n* fits the
    # naive budget (types B and D at p = 2 by parity), and None elsewhere
    vec = cvec_closed_form(family, n, p)
    fits = (p == 2 and family != "A") or _least_of_shape(family, n, p) - mask_offset(family) <= NAIVE_MAX_BITS
    assert (vec is not None) == (n >= THEOREM_MIN_N[family] and fits), (family, n, p, vec)
    assert vec is None or vec.method.startswith("closed-form:"), (family, n, p, vec.method)
    return None if vec is None else vec.counts


def _coxeter(family, n, p):
    diagram = _diagram(family, n)
    return None if diagram is None else residue_histogram(diagram, p)


PER_SUPPORT_MAX = 12


def _per_support(family, n, p):
    # every subset T of the support reduced on its own by chain_mod_p, with
    # no chain table, butterfly or spread: the indices whose descents meet
    # the support in T split evenly between the residues r and -r of T over
    # the free positions outside it, or are T alone when none is free.
    # Counts are kept in units of 2^(free - 1), as free is about n
    pos = support_set(family, n, p)
    if len(pos) > PER_SUPPORT_MAX:
        return None
    free = n - mask_offset(family) - len(pos)
    units = [0] * p
    for k in range(len(pos) + 1):
        for subset in combinations(pos, k):
            r = chain_mod_p(family, n, subset, p)
            units[r] += 1
            if free:
                units[-r % p] += 1
    return tuple(u << (free - 1) for u in units) if free else tuple(units)


VECTOR_ROUTES = {
    "naive": lambda family, n, p: cvec_naive(family, n, p).counts,
    # None below the family minimum
    "theorem": lambda family, n, p: cvec_theorem(family, n, p).counts if n >= THEOREM_MIN_N[family] else None,
    "closed": _closed,  # None below the theorem's least n and past the budget on n*
    "coxeter": _coxeter,  # None below the least builtin rank
    "per-index": lambda family, n, p: _tally((ribbon_mod_p(family, a, p) for a in _indices(family, n)), p),
    # None past the oracle budget
    "oracle": lambda family, n, p: (
        _tally(oracle_descent_class_sizes(family, n).values(), p) if n <= ORACLE_MAX_N[family] else None),
    "per-support": _per_support,  # None past PER_SUPPORT_MAX positions
}


def _classes(family, n, sizes):
    # {descent set: size} from {index: size}, with all 2^(n - offset) classes
    assert len(sizes) == 1 << (n - mask_offset(family)), (family, n, len(sizes))
    return {frozenset(alpha.descents()): size for alpha, size in sizes.items()}


def _bulk(family, n):
    diagram = _diagram(family, n)
    if diagram is None:
        return None
    sizes = descent_class_sizes(diagram)
    assert len(sizes) == 1 << diagram.rank(), (family, n, len(sizes))
    return sizes


def _general(family, n):
    diagram = _diagram(family, n)
    if diagram is None or (n is not None and n > GENERAL_MAX_N[family]):
        return None
    gens = diagram.generators
    subsets = (subset for k in range(len(gens) + 1) for subset in combinations(gens, k))
    return {frozenset(subset): ribbon_general(diagram, subset) for subset in subsets}


# a named group (n None) has no ribbon formula and no element oracle
CLASS_ROUTES = {
    "exact": lambda family, n: (
        None if n is None else _classes(family, n, {a: ribbon_exact(family, a) for a in _indices(family, n)})),
    "oracle": lambda family, n: (
        _classes(family, n, oracle_descent_class_sizes(family, n)) if n and n <= ORACLE_MAX_N[family] else None),
    "bulk": _bulk,
    "general": _general,
}


def _grid(ns, primes):
    return [(family, n, p) for family, family_ns in ns.items() for n in family_ns for p in primes]


ORACLE_NS = {family: range(1 + (family == "D"), top + 1) for family, top in ORACLE_MAX_N.items()}
CLOSED_FORM_POINTS = closed_form_grid()
# 127 and 131 take 1-byte fields, with a sign bit and without, 257 and 32749
# take 2 bytes and 65537 takes 4, in the naive table and the theorem's alike
FIELD_PRIMES = (127, 131, 257, 32749, 65537)
# the Coxeter sweep past the golden tables: ranks 12-16 at two of these
# primes each, and the subset budget's rank at one prime per family
RANK_PRIMES = (2, 3, 5, 7, 13)
HIGH_RANKS = [(family, rank, p) for family in "ABD" for rank in range(12, 17)
              for p in (RANK_PRIMES[rank % 5], RANK_PRIMES[(rank + 2) % 5])]
HIGH_RANKS += [("A", SUBSET_MAX_RANK, 5), ("B", SUBSET_MAX_RANK, 3), ("D", SUBSET_MAX_RANK, 7)]
# the paper's regime, past every size the per-index route and the oracles
# reach: n from 10^2 to about 10^6 with at most 10 support positions; the
# closed form answers the 15 whose least n of the same shape fits the naive
# budget
LARGE_N_POINTS = (
    ("B", 127, 5), ("D", 441, 7), ("A", 144, 11), ("B", 2535, 13), ("D", 811, 3),
    ("D", 2684, 11), ("A", 2704, 13), ("B", 15309, 3), ("D", 15700, 5), ("A", 50423, 7),
    ("B", 15004, 11), ("D", 28613, 13), ("A", 118100, 3), ("B", 87500, 5), ("D", 120393, 7),
    ("A", 324764, 11), ("B", 371297, 13), ("D", 533629, 3),
    ("A", 111, 3), ("A", 781375, 5), ("B", 117698, 7), ("D", 29282, 11),
)

VECTOR_ROWS = (
    # the two sweeps on the small grid, then in wider fields
    (("naive", "theorem"), ("closed",),
     _grid({"A": range(2, 19), "B": range(2, 17), "D": range(4, 17)}, (2, 3, 5, 7, 11, 13))),
    (("naive", "theorem"), ("closed",),
     _grid({"A": range(2, 10), "B": range(2, 10), "D": range(4, 10)}, FIELD_PRIMES)),
    # every ribbon number reduced on its own
    (("naive", "per-index"), (), _grid({"A": [7], "B": [7], "D": [7]}, FIELD_PRIMES)),
    (("naive", "per-index"), ("theorem", "closed"),
     _grid({"A": range(1, 8), "B": range(2, 7), "D": range(2, 7)}, (2, 3, 5))),
    # the element oracles over their whole budget
    (("naive", "oracle"), ("theorem", "closed", "coxeter"), _grid(ORACLE_NS, (2, 3, 5, 7, 11))),
    (("closed", "theorem"), (), CLOSED_FORM_POINTS),
    (("naive", "coxeter"), ("theorem", "closed"),
     [(family, rank + mask_offset(family), p) for family, rank, p in HIGH_RANKS]),
    (("theorem", "per-support"), ("closed",), LARGE_N_POINTS),
)
CLASS_ROWS = (
    (("exact", "oracle"), ("bulk", "general"), [(family, n) for family, ns in ORACLE_NS.items() for n in ns]),
    (("bulk", "general"), (), [(name, None) for name in ("F4", "H3", "B4", "I2:8")]),
)


def test_criterion_5_oracle_equivalence():
    started = time.time()
    problems = []
    _check_rows(CLASS_ROUTES, CLASS_ROWS, problems)
    _finish(5, "group oracles, ribbon formulas and Coxeter sweeps agree class by class", started, 60, problems)


def test_criterion_6_method_cross_validation():
    started = time.time()
    problems = []
    assert len(CLOSED_FORM_POINTS) > 80
    _check_rows(VECTOR_ROUTES, VECTOR_ROWS, problems)
    _finish(6, "every p-vector route that answers agrees, at every point of eight rows", started, 600, problems)


def test_criterion_7_formula_identities():
    started = time.time()
    problems = []
    # ribbon_exact runs on the side with fewer descents; the determinant and
    # the chain sum on each index's own descents (given) run on the side
    # they are given, so they check the flip and the complement symmetry
    # behind it, type D at n = 2, 3 included
    def given(family, alpha):
        return _chain_exact(family, alpha.n, alpha.descents())

    for family, indices, ns in (("A", enumerate_compositions, range(1, 13)),
                                ("B", enumerate_pseudo_compositions, range(2, 13)),
                                ("D", enumerate_pseudo_compositions, range(2, 13))):
        for n in ns:
            for alpha in indices(n):
                value, own = ribbon_exact(family, alpha), given(family, alpha)
                if family == "A" and value != ribbon_a_det(alpha):
                    problems.append(("det", alpha.parts))
                if value != own:
                    problems.append(("flip " + family, alpha.parts))
                if own != given(family, alpha.complement()):
                    problems.append(("sym " + family, alpha.parts))
    for n in range(1, 11):
        if sum(ribbon_exact("A", a) for a in enumerate_compositions(n)) != factorial(n):
            problems.append(("mass A", n))
    for n in range(1, 9):
        if sum(ribbon_exact("B", a) for a in enumerate_pseudo_compositions(n)) != (1 << n) * factorial(n):
            problems.append(("mass B", n))
    for n in range(2, 9):
        if sum(ribbon_exact("D", a) for a in enumerate_pseudo_compositions(n)) != (1 << (n - 1)) * factorial(n):
            problems.append(("mass D", n))
    # 2-adic divisibility.  The published claim degenerates when the support
    # set is empty (type A, n a power of p): the subset/complement pairing
    # has a fixed point there and the true power is one lower, as the n=p^d
    # rows of the reference tables themselves show (e.g. n=9, p=3 gives
    # 2^7(0,1,1), not a multiple of 2^8).  The check below asserts the
    # corrected bound in that one shape and the published bound elsewhere.
    for p in (3, 5, 7, 11):
        for n in range(2, 17):
            digits = base_p_digits(n, p)
            prod = 1
            for dj in digits:
                prod *= dj + 1
            saturated = all(d == p - 1 for d in digits[:-1])
            n0 = digits[0]
            for family in ("A", "B", "D"):
                if family == "D" and n < 4:
                    continue
                vec = cvec_theorem(family, n, p)
                for i, count in enumerate(vec):
                    if family == "D":
                        if (n0 > 0 and i == 0) or saturated:
                            need = n + 2 - prod
                        elif n0 == 0 and i != 0:
                            need = n - prod
                        else:
                            need = n + 1 - prod
                    else:
                        need = (n + 2 - prod) if (i == 0 or saturated) else (n + 1 - prod)
                    if family == "A" and prod == 2:
                        need -= 1
                    if need > 0 and count % (1 << need) != 0:
                        problems.append(("divisibility", family, n, p, i))
    _finish(
        7,
        "determinant route, complement symmetry, mass sums, 2-adic divisibility",
        started,
        600,
        problems,
    )


def test_criterion_8_macdonald():
    started = time.time()
    problems = []
    for n in range(1, 11):
        for p in (2, 3, 5, 7):
            brute = sum(1 for lam in partitions(n) if standard_tableau_count(lam) % p != 0)
            if macdonald_mp(n, p) != brute:
                problems.append((n, p, "hook sweep"))
    for p in (2, 3, 5, 7):
        for mask in range(1, 1 << 4):
            exponents = [e for e in range(4) if mask >> e & 1]
            n = sum(p**e for e in exponents)
            if macdonald_mp(n, p) != p ** sum(exponents):
                problems.append((n, p, "distinct powers"))
    _finish(8, "coprime-dimension counts vs hook-length brute force", started, 5, problems)


def test_criterion_9_scalability():
    started = time.time()
    n = 2**10
    vec = cvec_theorem("A", n, 2)
    problems = [] if vec.counts == (0, 1 << (n - 1)) else ["wrong vector"]
    _finish(9, "theorem method at n = 2^10 without lattice enumeration", started, 1, problems)
