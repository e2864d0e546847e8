"""Answer digests: one sha256 per (entry, family or group) over every answer
of a fixed grid, refusals included.

A change that must leave every answer as it was (a refactor, a new kernel)
is checked by rerunning this file, not by comparing against a parent
checkout by hand.  A change that means to move answers rewrites the data
file with ``python scripts/rewrite_digests.py`` and names the entries that
moved and why.

Each entry turns a point into one text line: the call's arguments, then its
answer or the refusal's exception type and message.  Ints are written in
hex, so exact counts of any length hash without a decimal conversion.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ribbonmod import cli
from ribbonmod.compositions import (
    Composition,
    PseudoComposition,
    enumerate_compositions,
    enumerate_pseudo_compositions,
    mask_offset,
)
from ribbonmod.coxeter import builtin_diagram, descent_class_multiset, residue_histogram
from ribbonmod.cvec import NAIVE_MAX_BITS, cvec
from ribbonmod.ribbon import ribbon_exact, ribbon_mod_p

DATA = Path(__file__).with_name("answer_digests.json")
REFUSALS = (ValueError, LookupError, TypeError)

# the cvec grid: n = 2..39 and 60 n spread over [40, 5000) at every prime
# of CVEC_PRIMES; the naive sweep only up to n = 16, and so the closed form
# below p, where it is the naive sweep of n itself, skips the n past 16
# that fit the naive budget (n = 17..27 in type A, 17..26 in B and D, at
# p = 131 and 257); past the budget its refusal costs nothing and stays
CVEC_NS = (*range(2, 40), *(40 + k * 7919 % 4960 for k in range(60)))
CVEC_PRIMES = (2, 3, 5, 7, 11, 13, 131, 257)
CVEC_NAIVE_MAX_N = 16
INDEX_PRIMES = (2, 3, 5, 7, 1031)
BUILTINS = (*(f"A{r}" for r in range(1, 13)), *(f"B{r}" for r in range(2, 13)),
            *(f"D{r}" for r in range(4, 13)), "E6", "E7", "E8", "F4", "H3", "H4",
            *(f"I2:{m}" for m in range(3, 13)))
HISTOGRAM_PRIMES = (2, 3, 5, 7, 11, 13, 4)  # 4: the composite refusal


def _text(value) -> str:
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_text, value)) + ")"
    return repr(value)


def _answer(call, *args) -> str:
    try:
        return _text(call(*args))
    except REFUSALS as exc:
        return f"!{type(exc).__name__}: {exc}"


def _cvec_answer(family, n, p, method):
    vec = cvec(family, n, p, method)
    return vec.method, vec.counts


def _cvec_lines(method):
    def lines():
        for family in "ABD":
            for n in CVEC_NS:
                for p in CVEC_PRIMES:
                    if n > CVEC_NAIVE_MAX_N and (method == "naive" or method == "closed" and n < p
                                                 and n - mask_offset(family) <= NAIVE_MAX_BITS):
                        continue
                    yield family, f"{n} {p} -> {_answer(_cvec_answer, family, n, p, method)}"
    return lines


def _indices():
    # (family, index, primes): every index of n <= 10, then a few of
    # n = q - 1, q, q + 1 for q = 1031 and 2053 (one base-q digit against two)
    for n in range(1, 11):
        for alpha in enumerate_compositions(n):
            yield "A", alpha, INDEX_PRIMES
    for n in range(0, 11):
        for alpha in enumerate_pseudo_compositions(n) if n else [PseudoComposition((0,))]:
            yield "B", alpha, INDEX_PRIMES
            yield "D", alpha, INDEX_PRIMES
    for q in (1031, 2053):
        for n in (q - 1, q, q + 1):
            for parts in ((n,), (1,) * n, (300, n - 600, 300), (1, n - 2, 1), (n // 2, n - n // 2),
                          (7, 100, 3, 250, 1, 1, n - 362)):
                yield "A", Composition(parts), (3, q)
            for parts in ((0, n), (0, 1, n - 201, 200), (1,) * n, (0, *(1,) * n), (n // 2, n - n // 2),
                          (0, 5, 50, 1, n - 56)):
                yield "B", PseudoComposition(parts), (3, q)
                yield "D", PseudoComposition(parts), (3, q)


def _ribbon_exact_lines():
    for family, alpha, _ in _indices():
        yield family, f"{alpha.n} {alpha.descents()} -> {_answer(ribbon_exact, family, alpha)}"
    yield "A", f"B-index -> {_answer(ribbon_exact, 'A', PseudoComposition((1, 2)))}"
    yield "B", f"A-index -> {_answer(ribbon_exact, 'B', Composition((1, 2)))}"


def _ribbon_mod_p_lines():
    for family, alpha, primes in _indices():
        for p in primes:
            yield family, f"{alpha.n} {alpha.descents()} {p} -> {_answer(ribbon_mod_p, family, alpha, p)}"
    for family, alpha in (("A", Composition((2, 2))), ("B", PseudoComposition((0, 2, 2))),
                          ("D", PseudoComposition((1, 3)))):
        for p in (-3, 0, 1, 4, 1030):
            yield family, f"{alpha.n} {alpha.descents()} {p} -> {_answer(ribbon_mod_p, family, alpha, p)}"


def _multiset_lines():
    for name in BUILTINS:
        sizes = descent_class_multiset(builtin_diagram(name))
        yield name, _text(sorted(sizes.items()))


def _histogram_lines():
    for name in BUILTINS:
        diagram = builtin_diagram(name)
        for p in HISTOGRAM_PRIMES:
            yield name, f"{p} -> {_answer(residue_histogram, diagram, p)}"


# the ribbon command lines that tests/test_cli.py does not pin
CLI_RIBBON = {
    "A": ("--alpha 1,1,1,1", "--alpha 5", "--alpha 3,1,2", "--alpha 3,1,2 --format json",
          "--alpha 2,3,4,5,6 --format json", "--alpha 7,7 --mod 2", "--alpha 3,1,2 --mod 5 --format json",
          "--alpha 300,431,300 --mod 1031", "--alpha 1000,3053 --mod 2053",
          "--alpha 500000,500000 --mod 1000000007", "--alpha " + ",".join(["1"] * 3000),
          "--alpha " + ",".join(["1"] * 3000) + " --mod 3", "--alpha 1,2,3,4 --mod 1",
          "--alpha 1,2,3,4 --mod 0", "--alpha 1,2,3,4 --mod -3", "--alpha 1,2,3,4 --mod 1030",
          "--alpha 0,2", "--alpha 1,-2", "--alpha x,2", "--alpha 1,,2", "--alpha="),
    "B": ("--alpha 0,1,1,1", "--alpha 4,1,3", "--alpha 2,2 --mod 3 --format json",
          "--alpha 0,1030,1 --mod 1031", "--alpha 0," + ",".join(["1"] * 3000),
          "--alpha 0,0,1", "--alpha -1,2", "--alpha 0 --mod 3", "--alpha 2,2 --mod 4"),
    "D": ("--alpha 0,2", "--alpha 1,1", "--alpha 1,1 --format json", "--alpha 3,3,3 --mod 5",
          "--alpha 0,1,1030 --mod 1031", "--alpha 0," + ",".join(["1"] * 3000),
          "--alpha 0", "--alpha 0,1 --mod 3", "--alpha 2,2 --mod 9"),
}


def _cli_ribbon_lines():
    for family, lines in CLI_RIBBON.items():
        for line in lines:
            argv = ["ribbon", "--family", family, *line.split(" ")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            yield family, f"{line} -> {code} {out.getvalue()!r} {err.getvalue()!r}"


ENTRIES = {
    "cvec.naive": _cvec_lines("naive"),
    "cvec.theorem": _cvec_lines("theorem"),
    "cvec.closed": _cvec_lines("closed"),
    "ribbon_exact": _ribbon_exact_lines,
    "ribbon_mod_p": _ribbon_mod_p_lines,
    "descent_class_multiset": _multiset_lines,
    "residue_histogram": _histogram_lines,
    "cli.ribbon": _cli_ribbon_lines,
}


def digests(entry: str) -> dict[str, str]:
    """{"<entry> <family or group>": sha256 of its lines} for one entry."""
    hashes = {}
    for group, line in ENTRIES[entry]():
        hashes.setdefault(f"{entry} {group}", hashlib.sha256()).update(line.encode() + b"\n")
    return {key: h.hexdigest() for key, h in hashes.items()}


def all_digests() -> dict[str, str]:
    return {key: value for entry in ENTRIES for key, value in digests(entry).items()}


@pytest.mark.parametrize("entry", ENTRIES)
def test_answers_match_their_digests(entry):
    stored = {key: value for key, value in json.loads(DATA.read_text()).items()
              if key.split(" ")[0] == entry}
    got = digests(entry)
    moved = sorted(key for key in stored.keys() | got.keys() if stored.get(key) != got.get(key))
    assert not moved, f"answers changed for {moved}; if that is meant, run scripts/rewrite_digests.py"


def test_every_stored_digest_has_an_entry():
    assert {key.split(" ")[0] for key in json.loads(DATA.read_text())} == set(ENTRIES)
