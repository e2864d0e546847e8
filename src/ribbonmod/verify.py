"""The suites of ``ribbonmod verify``: the package against its bundled
reference data.

  * ``tables``   -- the golden p-vectors of types A, B and D and of the
    exceptional groups, and the exceptional descent-class multisets, read
    by the loaders of ``cli``;
  * ``oracles``  -- ribbon numbers and naive p-vectors against descent
    classes counted by enumerating the group (``ORACLE_GRID``);
  * ``formulas`` -- every closed form of ``closed_form_grid`` against the
    theorem method.

``cli.cmd_verify`` imports this module when it runs, so no other command
loads it.
"""

from __future__ import annotations

from collections import Counter

from .arith import residue_tally
from .cli import (
    EXCEPTIONAL_HISTOGRAMS,
    EXCEPTIONAL_MULTISETS,
    TABLE_FILES,
    format_multiset,
    golden_multisets,
    golden_vectors,
)
from .compositions import mask_offset
from .coxeter import builtin_diagram, descent_class_multiset, residue_histogram
from .cvec import cvec, cvec_closed_form, cvec_naive, cvec_theorem
from .ribbon import oracle_descent_class_sizes, ribbon_exact


def _compare(report, title: str, unit: str, triples, fmt=str) -> bool:
    """Report a FAIL line for each (label, expected, computed) triple that
    disagrees, or else one PASS line counting the triples."""
    checked = 0
    ok = True
    for label, expected, computed in triples:
        checked += 1
        if computed != expected:
            ok = False
            report(f"FAIL {title} {label}: expected {fmt(expected)}, computed {fmt(computed)}")
    if ok:
        report(f"PASS {title} ({checked} {unit})")
    return ok


def _verify_tables(report) -> bool:
    ok = True
    for name in TABLE_FILES:
        vectors = sorted(golden_vectors(name).items())
        triples = ((f"{fam} p={p} n={n}", want, cvec(fam, n, p).counts) for (fam, p, n), want in vectors)
        ok = _compare(report, name, "vectors", triples) and ok
    vectors = sorted(golden_vectors(EXCEPTIONAL_HISTOGRAMS).items())
    triples = ((f"{g} p={p}", want, residue_histogram(builtin_diagram(g), p)) for (g, p, _), want in vectors)
    ok = _compare(report, EXCEPTIONAL_HISTOGRAMS, "vectors", triples) and ok
    multisets = sorted(golden_multisets().items())
    triples = ((g, want, descent_class_multiset(builtin_diagram(g))) for g, want in multisets)
    return _compare(report, EXCEPTIONAL_MULTISETS, "groups", triples, format_multiset) and ok


ORACLE_GRID = {"A": range(2, 10), "B": range(2, 8), "D": range(2, 8)}
ORACLE_PRIMES = (2, 3, 5, 7)


def _verify_oracles(report) -> bool:
    ok = True
    for family, ns in ORACLE_GRID.items():
        for n in ns:
            classes = oracle_descent_class_sizes(family, n)
            bad = 0
            for alpha, size in classes.items():
                if ribbon_exact(family, alpha) != size:
                    bad += 1
            if len(classes) != 1 << (n - mask_offset(family)):
                bad += 1
            sizes = Counter(classes.values())
            for p in ORACLE_PRIMES:
                # cvec_naive refuses a p past the tally budget before the
                # tally below allocates p entries
                expected = cvec_naive(family, n, p).counts
                if tuple(residue_tally(sizes, p)) != expected:
                    bad += 1
            if bad:
                ok = False
                report(f"FAIL oracle {family} n={n}: {bad} mismatches")
            else:
                report(f"PASS oracle {family} n={n} ({len(classes)} classes)")
    return ok


def closed_form_grid():
    """(family, n, p) triples that should hit a closed form: the documented
    grid of digit patterns with d in {1,2}, e in {0..3}, m < p, n <= 40."""
    out = set()
    for p in (2, 3, 5, 7, 11):
        for d in (1, 2):
            for m in range(1, p):
                n = m * p**d
                if 2 <= n <= 40:
                    out.add(("A", n, p))
                    if p > 2:
                        out.add(("B", n, p))
                    if n >= 4 and p > 2 and m <= 3:
                        out.add(("D", n, p))
            for e in range(4):
                if e == d:
                    continue
                n = p**d + p**e
                if n <= 40:
                    out.add(("A", n, p))
                    if p > 2:
                        out.add(("B", n, p))
                    if p > 2 and n >= 4:
                        out.add(("D", n, p))
                if p > 2 and 2 * p**d + p**e <= 40:
                    out.add(("A", 2 * p**d + p**e, p))
        # sums of three or four distinct powers, type A only
        for mask in range(1 << 4):
            if mask.bit_count() in (3, 4):
                n = sum(p**e for e in range(4) if mask >> e & 1)
                if n <= 40:
                    out.add(("A", n, p))
    return sorted(out)


def _verify_formulas(report) -> bool:
    def triples():
        for family, n, p in closed_form_grid():
            closed = cvec_closed_form(family, n, p)
            method = closed.method if closed else "missing"
            computed = closed.counts if closed else None
            yield f"({family}, n={n}, p={p}) [{method}]", cvec_theorem(family, n, p).counts, computed

    return _compare(report, "closed forms against the theorem method", "vectors", triples())


def run_suites(suite: str) -> int:
    """Run one suite, or ``all`` of them, and print their lines; 0 when every
    check passes, else 1."""
    suites = {
        "tables": _verify_tables,
        "oracles": _verify_oracles,
        "formulas": _verify_formulas,
    }
    selected = list(suites) if suite == "all" else [suite]
    ok = True
    for name in selected:
        ok = suites[name](print) and ok
    print("verify: OK" if ok else "verify: MISMATCH")
    return 0 if ok else 1
