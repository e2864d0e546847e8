"""Command-line surface: compute ribbon numbers and p-vectors, export them,
and verify the package against its bundled reference data.

Exit codes: 0 success, 1 verification mismatch (or no closed form under
``--method closed``), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .arith import check_prime
from .compositions import CapacityError, from_descent_set, parse_parts
from .coxeter import builtin_diagram, descent_class_multiset, residue_histogram, ribbon_general
from .cvec import NoClosedFormError, _tally, cvec, cvec_closed_form, cvec_naive, cvec_theorem, macdonald_mp
from .ribbon import oracle_descent_class_sizes, ribbon_exact, ribbon_mod_p

TABLE_FILES = ("type_a.csv", "type_b.csv", "type_d.csv")
EXCEPTIONAL_HISTOGRAMS = "exceptional_histograms.csv"
EXCEPTIONAL_MULTISETS = "exceptional_multisets.txt"


@dataclass(frozen=True)
class GoldenRecord:
    family: str  # family letter or exceptional group label
    p: int
    n: int | None  # None for exceptional groups
    residue: int
    count: int


def _data_text(name: str) -> str:
    return resources.files("ribbonmod").joinpath(f"data/{name}").read_text()


def load_golden_records(name: str) -> list[GoldenRecord]:
    reader = csv.reader(io.StringIO(_data_text(name)))
    header = next(reader)
    if header[1:] != ["p", "n", "residue", "count"] or header[0] not in ("family", "group"):
        raise ValueError(f"unexpected header in {name}: {header}")
    records = []
    for row in reader:
        fam, p, n, residue, count = row
        records.append(
            GoldenRecord(fam, int(p), None if n == "-" else int(n), int(residue), int(count))
        )
    return records


def golden_vectors(name: str) -> dict[tuple, tuple[int, ...]]:
    """Golden records grouped into {(label, p, n): vector}."""
    grouped: dict[tuple, dict[int, int]] = {}
    for rec in load_golden_records(name):
        grouped.setdefault((rec.family, rec.p, rec.n), {})[rec.residue] = rec.count
    out = {}
    for key, by_residue in grouped.items():
        p = key[1]
        if sorted(by_residue) != list(range(p)):
            raise ValueError(f"golden rows for {key} do not cover the residues once each")
        out[key] = tuple(by_residue[i] for i in range(p))
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


def format_multiset(sizes: Counter) -> str:
    return ", ".join(f"{size}^{mult}" for size, mult in sorted(sizes.items()))


# str() refuses ints longer than the interpreter's digit limit (4300 by
# default); exact counts are converted in chunks below it instead.
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(x: int) -> str:
    """Decimal text of an int of any size; the global digit limit is left alone."""
    if x < 0:
        return "-" + _decimal(-x)
    chunks = []
    while x >= _CHUNK:
        x, r = divmod(x, _CHUNK)
        chunks.append(str(r).zfill(_CHUNK_DIGITS))
    chunks.append(str(x))
    return "".join(reversed(chunks))


def _vector_text(counts) -> str:
    return "(" + ", ".join(_decimal(c) for c in counts) + ")"


def _emit_csv(out, label: str, p: int, n, counts) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "p", "n", "residue", "count"])
    for i, c in enumerate(counts):
        writer.writerow([label, p, "-" if n is None else n, i, _decimal(c)])


# ---------------------------------------------------------------------------
# commands


def cmd_ribbon(args) -> int:
    try:
        alpha = parse_parts(args.alpha, pseudo=args.family in ("B", "D"))
        if args.mod is not None:
            check_prime(args.mod)
            value = ribbon_mod_p(args.family, alpha, args.mod)
        else:
            value = ribbon_exact(args.family, alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"family": args.family, "alpha": list(alpha.parts), "value": _decimal(value)}))
    else:
        if args.family == "D" and alpha.n < 4:
            print("note: n < 4 is not a Coxeter group of type D", file=sys.stderr)
        print(_decimal(value))
    return 0


def cmd_cvec(args) -> int:
    try:
        check_prime(args.p)
        vec = cvec(args.family, args.n, args.p, method=args.method)
    except NoClosedFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": vec.family,
                    "n": vec.n,
                    "p": vec.p,
                    "method": vec.method,
                    "vector": [_decimal(c) for c in vec.counts],
                }
            )
        )
    elif args.format == "csv":
        _emit_csv(sys.stdout, vec.family, vec.p, vec.n, vec.counts)
    else:
        if args.family == "D" and args.n < 4:
            print("note: n < 4 is not a Coxeter group of type D", file=sys.stderr)
        print(_vector_text(vec.counts))
        print(f"method: {vec.method}", file=sys.stderr)
    return 0


def cmd_coxeter(args) -> int:
    try:
        diagram = builtin_diagram(args.group)
        if args.subset is not None:
            subset = [int(tok) for tok in args.subset.split(",")] if args.subset else []
            value = ribbon_general(diagram, subset)
            if args.format == "json":
                print(json.dumps({"group": diagram.name, "subset": sorted(subset), "value": _decimal(value)}))
            else:
                print(_decimal(value))
            return 0
        if args.p is not None:
            check_prime(args.p)
            counts = residue_histogram(diagram, args.p)
            if args.format == "json":
                print(json.dumps({"group": diagram.name, "p": args.p, "vector": [_decimal(c) for c in counts]}))
            elif args.format == "csv":
                _emit_csv(sys.stdout, diagram.name, args.p, None, counts)
            else:
                print(_vector_text(counts))
            return 0
        sizes = descent_class_multiset(diagram)
        if args.format == "json":
            print(json.dumps({"group": diagram.name, "classes": sorted(sizes.items())}))
        elif args.format == "csv":
            print("error: csv output needs --p", file=sys.stderr)
            return 2
        else:
            print(format_multiset(sizes))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_macdonald(args) -> int:
    try:
        check_prime(args.p)
        print(_decimal(macdonald_mp(args.n, args.p)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _verify_tables(report) -> bool:
    ok = True
    for name in TABLE_FILES:
        mismatches = 0
        vectors = golden_vectors(name)
        for (family, p, n), expected in sorted(vectors.items()):
            got = cvec(family, n, p).counts
            if got != expected:
                mismatches += 1
                report(f"FAIL {name} {family} p={p} n={n}: expected {expected}, computed {got}")
        if mismatches == 0:
            report(f"PASS {name} ({len(vectors)} vectors)")
        else:
            ok = False
    vectors = golden_vectors(EXCEPTIONAL_HISTOGRAMS)
    mismatches = 0
    for (group, p, _), expected in sorted(vectors.items()):
        got = residue_histogram(builtin_diagram(group), p)
        if got != expected:
            mismatches += 1
            report(f"FAIL {EXCEPTIONAL_HISTOGRAMS} {group} p={p}: expected {expected}, computed {got}")
    if mismatches == 0:
        report(f"PASS {EXCEPTIONAL_HISTOGRAMS} ({len(vectors)} vectors)")
    else:
        ok = False
    mismatches = 0
    sizes_by_group = golden_multisets()
    for group, expected in sorted(sizes_by_group.items()):
        got = descent_class_multiset(builtin_diagram(group))
        if got != expected:
            mismatches += 1
            report(
                f"FAIL {EXCEPTIONAL_MULTISETS} {group}: expected {format_multiset(expected)}, "
                f"computed {format_multiset(got)}"
            )
    if mismatches == 0:
        report(f"PASS {EXCEPTIONAL_MULTISETS} ({len(sizes_by_group)} groups)")
    else:
        ok = False
    return ok


ORACLE_GRID = {"A": range(2, 9), "B": range(2, 7), "D": range(2, 8)}
ORACLE_PRIMES = (2, 3, 5, 7)


def _verify_oracles(report) -> bool:
    ok = True
    for family, ns in ORACLE_GRID.items():
        for n in ns:
            classes = oracle_descent_class_sizes(family, n)
            bad = 0
            for descents, size in classes.items():
                alpha = from_descent_set(n, descents)
                if ribbon_exact(family, alpha) != size:
                    bad += 1
            width = n - 1 if family == "A" else n
            if len(classes) != 1 << width:
                bad += 1
            sizes = Counter(classes.values())
            for p in ORACLE_PRIMES:
                # cvec_naive refuses a p past the tally budget before the
                # tally below allocates p entries
                expected = cvec_naive(family, n, p).counts
                if tuple(_tally(sizes, p)) != expected:
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
    ok = True
    checked = 0
    for family, n, p in closed_form_grid():
        closed = cvec_closed_form(family, n, p)
        if closed is None:
            ok = False
            report(f"FAIL closed-form missing for ({family}, n={n}, p={p})")
            continue
        reference = cvec_theorem(family, n, p)
        if closed.counts != reference.counts:
            ok = False
            report(
                f"FAIL closed-form ({family}, n={n}, p={p}) [{closed.method}]: "
                f"{closed.counts} != theorem {reference.counts}"
            )
        checked += 1
    if ok:
        report(f"PASS closed forms against the theorem method ({checked} vectors)")
    return ok


def cmd_verify(args) -> int:
    suites = {
        "tables": _verify_tables,
        "oracles": _verify_oracles,
        "formulas": _verify_formulas,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    ok = True
    for name in selected:
        ok = suites[name](print) and ok
    print("verify: OK" if ok else "verify: MISMATCH")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonmod",
        description="Exact descent-class sizes of finite Coxeter groups and "
        "their distribution modulo a prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ribbon = sub.add_parser("ribbon", help="one ribbon number, exact or mod p")
    p_ribbon.add_argument("--family", required=True, choices=["A", "B", "D"])
    p_ribbon.add_argument("--alpha", required=True, help="comma-separated parts, e.g. 2,2")
    p_ribbon.add_argument("--mod", type=int, default=None, metavar="P")
    p_ribbon.add_argument("--format", choices=["text", "json"], default="text")
    p_ribbon.set_defaults(func=cmd_ribbon)

    p_cvec = sub.add_parser("cvec", help="dimension p-vector for one (family, n, p)")
    p_cvec.add_argument("--family", required=True, choices=["A", "B", "D"])
    p_cvec.add_argument("--n", required=True, type=int)
    p_cvec.add_argument("--p", required=True, type=int)
    p_cvec.add_argument("--method", choices=["naive", "theorem", "closed", "auto"], default="auto")
    p_cvec.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_cvec.set_defaults(func=cmd_cvec)

    p_cox = sub.add_parser("coxeter", help="descent-class data for any finite Coxeter group")
    p_cox.add_argument("--group", required=True, help="A5 | B4 | D6 | E7 | F4 | H3 | I2:9 ...")
    p_cox.add_argument("--subset", default=None, help="generator indices, e.g. 0,2")
    p_cox.add_argument("--p", type=int, default=None)
    p_cox.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_cox.set_defaults(func=cmd_coxeter)

    p_mac = sub.add_parser("macdonald", help="irreducibles of S_n with dimension coprime to p")
    p_mac.add_argument("--n", required=True, type=int)
    p_mac.add_argument("--p", required=True, type=int)
    p_mac.set_defaults(func=cmd_macdonald)

    p_verify = sub.add_parser("verify", help="check computations against the bundled reference data")
    p_verify.add_argument("--suite", choices=["tables", "oracles", "formulas", "all"], default="all")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
