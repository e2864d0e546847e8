"""Acceptance suite: every criterion runs exactly, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All comparisons are exact integer equality; the stated runtime
ceilings are asserted too.
"""

import time
from math import factorial

from ribbonmod.arith import base_p_digits
from ribbonmod.compositions import enumerate_compositions, enumerate_pseudo_compositions
from ribbonmod.coxeter import builtin_diagram, descent_class_multiset, residue_histogram
from ribbonmod.cvec import (
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    partitions,
    standard_tableau_count,
)
from ribbonmod.ribbon import (
    oracle_descent_class_sizes,
    ribbon_a_det,
    ribbon_exact,
)
from ribbonmod.verify import golden_multisets, golden_vectors
from ribbonmod.verify import closed_form_grid


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


ORACLE_GRID = {"A": (1, 9), "B": (1, 7), "D": (2, 7)}
ORACLE_PRIMES = (2, 3, 5, 7, 11)


def test_criterion_5_oracle_equivalence():
    started = time.time()
    problems = []
    for family, (lo, hi) in ORACLE_GRID.items():
        for n in range(lo, hi + 1):
            classes = oracle_descent_class_sizes(family, n)
            width = n - 1 if family == "A" else n
            if len(classes) != 1 << width:
                problems.append((family, n, "missing classes"))
            for alpha, size in classes.items():
                if ribbon_exact(family, alpha) != size:
                    problems.append((family, n, alpha))
            for p in ORACLE_PRIMES:
                histogram = [0] * p
                for size in classes.values():
                    histogram[size % p] += 1
                if tuple(histogram) != cvec_naive(family, n, p).counts:
                    problems.append((family, n, p, "histogram"))
    _finish(5, "group-enumeration oracles match formulas and histograms", started, 60, problems)


CROSS_PRIMES = (2, 3, 5, 7, 11, 13)


def test_criterion_6_method_cross_validation():
    started = time.time()
    problems = []
    grids = (("A", range(2, 19)), ("B", range(2, 16)), ("D", range(4, 16)))
    for family, ns in grids:
        for n in ns:
            for p in CROSS_PRIMES:
                if cvec_naive(family, n, p) != cvec_theorem(family, n, p):
                    problems.append((family, n, p))
    for family, n, p in closed_form_grid():
        closed = cvec_closed_form(family, n, p)
        if closed is None or closed.counts != cvec_theorem(family, n, p).counts:
            problems.append(("closed", family, n, p))
    _finish(6, "naive = theorem on the full grid; closed forms = theorem", started, 600, problems)


def test_criterion_7_formula_identities():
    started = time.time()
    problems = []
    for n in range(1, 13):
        for alpha in enumerate_compositions(n):
            if ribbon_exact("A", alpha) != ribbon_a_det(alpha):
                problems.append(("det", alpha.parts))
            if ribbon_exact("A", alpha) != ribbon_exact("A", alpha.complement()):
                problems.append(("sym A", alpha.parts))
    for n in range(2, 13):
        for alpha in enumerate_pseudo_compositions(n):
            if ribbon_exact("B", alpha) != ribbon_exact("B", alpha.complement()):
                problems.append(("sym B", alpha.parts))
            if ribbon_exact("D", alpha) != ribbon_exact("D", alpha.complement()):
                problems.append(("sym D", alpha.parts))
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
