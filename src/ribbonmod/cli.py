"""Command-line surface: compute ribbon numbers and p-vectors, export them,
and verify the package against its bundled reference data.

Command lines are parsed from the ``COMMANDS`` table, one entry per
command with its handler, help text and options, by ``parse_args`` on the
standard library's ``getopt``; ``main`` parses and dispatches.

Exit codes: 0 success, 1 verification mismatch (or no closed form under
``--method closed``), 2 usage error.
"""

from __future__ import annotations

import csv
import getopt
import json
import re
import sys
from collections import Counter
from importlib import resources
from types import SimpleNamespace

from .arith import residue_tally
from .compositions import mask_offset, parse_parts
from .coxeter import builtin_diagram, descent_class_multiset, residue_histogram, ribbon_general
from .cvec import NoClosedFormError, cvec, cvec_closed_form, cvec_naive, cvec_theorem, macdonald_mp
from .ribbon import oracle_descent_class_sizes, ribbon_exact, ribbon_mod_p

TABLE_FILES = ("type_a.txt", "type_b.txt", "type_d.txt")
EXCEPTIONAL_HISTOGRAMS = "exceptional_histograms.txt"
EXCEPTIONAL_MULTISETS = "exceptional_multisets.txt"


def _data_text(name: str) -> str:
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


def format_multiset(sizes: Counter) -> str:
    return ", ".join(f"{size}^{mult}" for size, mult in sorted(sizes.items()))


# str() refuses ints longer than the interpreter's digit limit (4300 by
# default) and is quadratic in their length.  Counts of at most _STR_BITS
# bits (about 1233 digits) go through str(); longer ones are split into
# binary halves down to that size and rebuilt in decimal arithmetic, whose
# multiplication is subquadratic (Brent and Zimmermann, *Modern Computer
# Arithmetic*, section 1.7).  The global digit limit is left alone.
_STR_BITS = 4096


def _decimal(x: int, pow2: dict) -> str:
    """Decimal text of an int of any size.

    ``pow2`` memoises powers of two as Decimals by exponent, which cost
    about as much as the rest of a conversion: pass one dict, empty at first,
    for all the counts of one output.  A theorem or closed-form count is
    w 2^k, k shared across its vector: w is converted, then scaled by 2^k.
    """
    if x.bit_length() <= _STR_BITS:
        return str(x)
    if x < 0:
        return "-" + _decimal(-x, pow2)
    import decimal  # here, so short outputs do not pay for it at start-up

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)

    def power(e: int):
        # 2^e; a split point (a power of two past the cut) squares the one below
        if e not in pow2:
            half = e > _STR_BITS and e & (e - 1) == 0 and power(e >> 1)
            pow2[e] = ctx.multiply(half, half) if half else ctx.power(decimal.Decimal(2), e)
        return pow2[e]

    def build(v: int, j: int):
        # v < 2^(_STR_BITS 2^j), as v_hi 2^w + v_lo with w = _STR_BITS 2^(j-1)
        if v.bit_length() <= _STR_BITS:
            return decimal.Decimal(v)
        w = _STR_BITS << (j - 1)
        hi = v >> w
        return ctx.fma(build(hi, j - 1), power(w), build(v - (hi << w), j - 1))

    # the trailing zeros rounded down to a multiple of 64, so that counts
    # whose 2^k differ by a few bits share one power
    k = (x & -x).bit_length() - 1 & -64
    if k <= _STR_BITS:
        k = 0
    w = x >> k
    value = build(w, ((w.bit_length() - 1) // _STR_BITS).bit_length())
    return str(ctx.multiply(value, power(k)) if k else value)


D_NOTE = "note: n < 4 is not a Coxeter group of type D"


def _emit(fmt: str, record: dict, notes=()) -> int:
    """Print one result and return the exit code.

    ``record`` is the JSON record of a residue ``vector``, one ``value`` or
    the ``classes`` multiset; its counts become decimal text here, by
    ``_decimal``, and each distinct count of a vector is converted once
    (equal entries share the text).  Only a residue vector has a CSV form.
    Text prints one line, with ``notes`` on stderr.
    """
    if fmt == "csv" and "vector" not in record:
        print("error: csv output needs --p", file=sys.stderr)
        return 2
    pow2: dict = {}
    if "vector" in record:
        text = {c: _decimal(c, pow2) for c in set(record["vector"])}
        record["vector"] = [text[c] for c in record["vector"]]
    elif "value" in record:
        record["value"] = _decimal(record["value"], pow2)
    pow2.clear()  # the powers are as long as the counts: free them before printing
    if fmt == "json":
        print(json.dumps(record))
    elif fmt == "csv":
        label = record.get("family", record.get("group"))
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["family", "p", "n", "residue", "count"])
        for i, c in enumerate(record["vector"]):
            writer.writerow([label, record["p"], record.get("n", "-"), i, c])
    else:
        for note in notes:
            print(note, file=sys.stderr)
        if "vector" in record:
            print("(" + ", ".join(record["vector"]) + ")")
        elif "value" in record:
            print(record["value"])
        else:
            print(format_multiset(dict(record["classes"])))
    return 0


# ---------------------------------------------------------------------------
# commands


def cmd_ribbon(args) -> int:
    alpha = parse_parts(args.alpha, pseudo=args.family in ("B", "D"))
    if args.mod is not None:
        value = ribbon_mod_p(args.family, alpha, args.mod)
    else:
        value = ribbon_exact(args.family, alpha)
    notes = [D_NOTE] if args.family == "D" and alpha.n < 4 else []
    return _emit(args.format, {"family": args.family, "alpha": list(alpha.parts), "value": value}, notes)


def cmd_cvec(args) -> int:
    try:
        vec = cvec(args.family, args.n, args.p, method=args.method)
    except NoClosedFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = [D_NOTE] if args.family == "D" and args.n < 4 else []
    record = {"family": vec.family, "n": vec.n, "p": vec.p, "method": vec.method, "vector": vec.counts}
    return _emit(args.format, record, notes + [f"method: {vec.method}"])


def cmd_coxeter(args) -> int:
    diagram = builtin_diagram(args.group)
    if args.subset is not None:
        try:
            subset = sorted(int(tok) for tok in args.subset.split(",")) if args.subset else []
        except ValueError:
            raise ValueError(f"--subset takes comma-separated generator indices, got {args.subset!r}") from None
        if len(set(subset)) < len(subset):
            raise ValueError(f"--subset repeats a generator: {args.subset}")
        value = ribbon_general(diagram, subset)
        return _emit(args.format, {"group": diagram.name, "subset": subset, "value": value})
    if args.p is not None:
        counts = residue_histogram(diagram, args.p)
        return _emit(args.format, {"group": diagram.name, "p": args.p, "vector": counts})
    sizes = descent_class_multiset(diagram)
    return _emit(args.format, {"group": diagram.name, "classes": sorted(sizes.items())})


def cmd_macdonald(args) -> int:
    return _emit("text", {"value": macdonald_mp(args.n, args.p)})


# ---------------------------------------------------------------------------
# verification suites


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
# command lines


REQUIRED = object()  # the default of an option that must be given

# name: (handler, help, {option: (kind, default, hint)}), where kind is int,
# str or a tuple of choices; an option's value is the attribute
# option[2:] of the namespace its handler gets
COMMANDS = {
    "ribbon": (cmd_ribbon, "one ribbon number, exact or mod p", {
        "--family": (("A", "B", "D"), REQUIRED, ""),
        "--alpha": (str, REQUIRED, "comma-separated parts, e.g. 2,2"),
        "--mod": (int, None, ""),
        "--format": (("text", "json"), "text", ""),
    }),
    "cvec": (cmd_cvec, "dimension p-vector for one (family, n, p)", {
        "--family": (("A", "B", "D"), REQUIRED, ""),
        "--n": (int, REQUIRED, ""),
        "--p": (int, REQUIRED, ""),
        "--method": (("naive", "theorem", "closed", "auto"), "auto", ""),
        "--format": (("text", "json", "csv"), "text", ""),
    }),
    "coxeter": (cmd_coxeter, "descent-class data for any finite Coxeter group", {
        "--group": (str, REQUIRED, "A5 | B4 | D6 | E7 | F4 | H3 | I2:9 ..."),
        "--subset": (str, None, "distinct generator indices, e.g. 0,2; not with --p"),
        "--p": (int, None, "not with --subset"),
        "--format": (("text", "json", "csv"), "text", ""),
    }),
    "macdonald": (cmd_macdonald, "irreducibles of S_n with dimension coprime to p", {
        "--n": (int, REQUIRED, ""),
        "--p": (int, REQUIRED, ""),
    }),
    "verify": (cmd_verify, "check computations against the bundled reference data", {
        "--suite": (("tables", "oracles", "formulas", "all"), "all", ""),
    }),
}
EXCLUSIVE = ("--subset", "--p")  # options no command line may give together

DESCRIPTION = (
    "Exact descent-class sizes of finite Coxeter groups and their distribution modulo a prime."
)


def _metavar(option: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else option[2:].upper()


def _usage(name) -> str:
    if name is None:
        return "usage: ribbonmod [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [f"usage: ribbonmod {name} [-h]"]
    for option, (kind, default, _) in COMMANDS[name][2].items():
        word = f"{option} {_metavar(option, kind)}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(name) -> str:
    """The usage line and the commands, or one command's options."""
    if name is None:
        head, title = DESCRIPTION, "commands:"
        rows = [(command, text) for command, (_, text, _) in COMMANDS.items()]
    else:
        _, head, options = COMMANDS[name]
        title = "options:"
        rows = [("-h, --help", "show this help message and exit")]
        for option, (kind, default, hint) in options.items():
            state = "required" if default is REQUIRED else None if default is None else f"default: {default}"
            rows.append((f"{option} {_metavar(option, kind)}", "; ".join(filter(None, (hint, state)))))
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(name), "", head, "", title] + [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join(lines)


def _usage_error(name, message: str):
    # as argparse reports one: the usage line, the error, exit code 2
    prog = "ribbonmod" if name is None else f"ribbonmod {name}"
    print(_usage(name), file=sys.stderr)
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _choices(kind) -> str:
    return ", ".join(map(repr, kind))


def parse_args(argv: list[str]):
    """(handler, namespace) of a command line, checked against ``COMMANDS``.

    Options take ``--opt value`` or ``--opt=value`` and may be shortened to
    a unique prefix.  A usage error prints the usage line and the error to
    stderr and raises ``SystemExit(2)``; ``-h`` or ``--help`` prints the
    command list, or a command's options, and raises ``SystemExit(0)``.
    """
    try:
        top, rest = getopt.getopt(argv, "h", ["help"])
    except getopt.GetoptError as exc:
        _usage_error(None, str(exc))
    if top:
        print(_help(None))
        raise SystemExit(0)
    if not rest:
        _usage_error(None, "the following arguments are required: command")
    name = rest[0]
    if name not in COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {name!r} (choose from {_choices(COMMANDS)})")
    handler, _, options = COMMANDS[name]
    try:
        pairs, extra = getopt.getopt(rest[1:], "h", ["help"] + [option[2:] + "=" for option in options])
    except getopt.GetoptError as exc:
        _usage_error(name, str(exc))
    given = dict(pairs)  # a repeated option keeps its last value
    if "-h" in given or "--help" in given:
        print(_help(name))
        raise SystemExit(0)
    if extra:
        _usage_error(name, "unrecognized arguments: " + " ".join(extra))
    missing = [option for option, (_, default, _) in options.items() if default is REQUIRED and option not in given]
    if missing:
        _usage_error(name, "the following arguments are required: " + ", ".join(missing))
    if all(option in given for option in EXCLUSIVE):
        _usage_error(name, f"argument {EXCLUSIVE[1]}: not allowed with argument {EXCLUSIVE[0]}")
    args = SimpleNamespace(**{option[2:]: default for option, (_, default, _) in options.items()})
    for option, value in given.items():
        kind = options[option][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(name, f"argument {option}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            _usage_error(name, f"argument {option}: invalid choice: {value!r} (choose from {_choices(kind)})")
        setattr(args, option[2:], value)
    return handler, args


def main(argv=None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
