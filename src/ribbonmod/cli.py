"""Command-line surface: compute ribbon numbers and p-vectors, export them,
and verify the package against its bundled reference data.

Command lines are parsed from the ``COMMANDS`` table, one entry per
command with its handler, help text and options, by ``parse_args`` on the
standard library's ``getopt``; ``main`` parses and dispatches, and returns
the exit code, which the console script and ``python -m ribbonmod.cli``
pass to ``sys.exit``.

Start-up imports only what the computing commands share: ``verify`` loads
its suites and the golden-table loaders (``ribbonmod.verify``) when it
runs, and the standard modules of one output format (``json``, ``csv``,
``decimal``) are imported where they are used.

Exit codes: 0 success, 1 verification mismatch (or no closed form under
``--method closed``), 2 usage error.
"""

from __future__ import annotations

import getopt
import sys
from types import SimpleNamespace

from .compositions import parse_parts
from .coxeter import builtin_diagram, descent_class_multiset, format_multiset, residue_histogram, ribbon_general
from .cvec import NoClosedFormError, cvec, macdonald_mp
from .ribbon import ribbon_exact, ribbon_mod_p

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
    import re

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
    # whose 2^k differ by a few bits share one power: the zero bytes that
    # begin x's little-endian bytes, by one scan of one copy of x
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    k = 8 * (re.match(b"\0*", data).end() & -8)
    del data
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
        import json

        print(json.dumps(record, check_circular=False))  # every record is a tree
    elif fmt == "csv":
        import csv

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
            print(format_multiset(record["classes"]))
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
    order = sorted(sizes)  # the sizes alone: their pairs need no tuple comparisons
    return _emit(args.format, {"group": diagram.name, "classes": list(zip(order, map(sizes.__getitem__, order)))})


def cmd_macdonald(args) -> int:
    return _emit("text", {"value": macdonald_mp(args.n, args.p)})


def cmd_verify(args) -> int:
    from .verify import run_suites  # here, so no other command loads the suites

    return run_suites(args.suite)


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


if __name__ == "__main__":
    sys.exit(main())
