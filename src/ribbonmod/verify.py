"""The suites of ``ribbonmod verify``: the package against its bundled
reference data.

  * ``tables``   -- the golden p-vectors of types A, B and D and of the
    exceptional groups, and the exceptional descent-class multisets, read
    from the package's ``data`` files by ``golden_vectors`` and
    ``golden_multisets``;
  * ``oracles``  -- ribbon numbers and naive p-vectors against descent
    classes counted by enumerating the group (``ORACLE_GRID``);
  * ``formulas`` -- every closed form of ``closed_form_grid`` against the
    theorem method.

``cli.cmd_verify`` imports this module when it runs, so no other command
loads it; it imports nothing from ``cli``, so ``python -m ribbonmod.cli
verify`` loads ``cli.py`` once.
"""

from __future__ import annotations

import re
from collections import Counter

from .arith import residue_tally
from .compositions import mask_offset
from .coxeter import builtin_diagram, descent_class_multiset, format_multiset, residue_histogram
from .cvec import cvec, cvec_closed_form, cvec_naive, cvec_theorem
from .ribbon import ORACLE_MAX_N, oracle_descent_class_sizes, ribbon_exact

TABLE_FILES = ("type_a.txt", "type_b.txt", "type_d.txt")
EXCEPTIONAL_HISTOGRAMS = "exceptional_histograms.txt"
EXCEPTIONAL_MULTISETS = "exceptional_multisets.txt"


def _data_text(name: str) -> str:
    from importlib import resources

    return resources.files("ribbonmod").joinpath(f"data/{name}").read_text()


# a published vector 2^k(a_0, ..., a_{p-1}): "2(...)" is k = 1, "(...)" k = 0
_SHORTHAND = r"(?:(2)(?:\^(\d+))?)?\(([^()]*)\)"


def expand(shorthand: str) -> tuple[int, ...]:
    """The vector a 2^k of its shorthand 2^k(a_0, ..., a_{p-1})."""
    match = re.fullmatch(_SHORTHAND, shorthand.strip())
    if not match:
        raise ValueError(f"bad shorthand {shorthand!r}")
    two, k, body = match.groups()
    shift = int(k) if k else 1 if two else 0
    return tuple(int(tok) << shift for tok in body.split(","))


def golden_vectors(name: str) -> dict[tuple, tuple[int, ...]]:
    """The vectors of a golden table as {(label, p, n): vector}; n is None
    for an exceptional group.

    A ``p: ...`` line names the primes of the rows below it, and a row
    ``LABEL N: v | v | ...`` (``LABEL: ...`` for a group) gives one
    shorthand vector per prime, in order.
    """
    out: dict[tuple, tuple[int, ...]] = {}
    primes: list[int] = []
    for line in _data_text(name).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, body = line.split(": ", 1)
        if head == "p":
            primes = [int(tok) for tok in body.split(",")]
            continue
        label, _, n = head.partition(" ")
        cells = body.split("|")
        if len(cells) != len(primes):
            raise ValueError(f"{name}: row {head} has {len(cells)} vectors for {len(primes)} primes")
        for p, cell in zip(primes, cells):
            key = (label, p, int(n) if n else None)
            vector = expand(cell)
            if len(vector) != p:
                raise ValueError(f"golden vector for {key} does not have length p")
            if key in out:
                raise ValueError(f"golden vector for {key} is given twice")
            out[key] = vector
    return out


def golden_multisets() -> dict[str, Counter]:
    out: dict[str, Counter] = {}
    for line in _data_text(EXCEPTIONAL_MULTISETS).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, body = line.split(": ", 1)
        sizes = Counter()
        for item in body.split(","):
            size, _, mult = item.strip().partition("^")
            sizes[int(size)] += int(mult) if mult else 1
        out[label] = sizes
    return out


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
    return _compare(report, EXCEPTIONAL_MULTISETS, "groups", triples,
                    lambda sizes: format_multiset(sorted(sizes.items()))) and ok


ORACLE_GRID = {family: range(2, top + 1) for family, top in ORACLE_MAX_N.items()}
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
    grid of digit patterns with d in {1,2}, e in {0..3}, m < p, n <= 40,
    less the four whose least n of the same shape is past the naive
    budget (1 + 5 + 5^2, 1 + 3 + 3^2 + 3^3, 5 + 5^2 and 3 * 11 in type D)."""
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
    return sorted(out - {("A", 31, 5), ("A", 40, 3), ("D", 30, 5), ("D", 33, 11)})


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
