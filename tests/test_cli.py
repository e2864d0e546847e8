import contextlib
import csv
import fnmatch
import importlib
import io
import json
import pathlib
import random
import subprocess
import sys
import time
from math import factorial

import pytest

from ribbonmod.arith import residue_tally
from ribbonmod.cli import COMMANDS, _decimal, main
from ribbonmod.compositions import Composition, PseudoComposition, check_family, int_value
from ribbonmod.coxeter import CoxeterDiagram, IrreducibleType, builtin_diagram, format_multiset
from ribbonmod.cvec import RESULT_BITS_MAX, DimensionPVector, cvec, cvec_theorem
from ribbonmod.verify import (
    EXCEPTIONAL_HISTOGRAMS,
    EXCEPTIONAL_MULTISETS,
    ORACLE_GRID,
    TABLE_FILES,
    _compare,
    expand,
    golden_multisets,
    golden_vectors,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_classes_add_up(group):
    """``coxeter --group G --format json`` for a builtin A, B or D group of
    rank r, through ``cli.main``: the multiplicities sum to 2^r and the
    sizes times the multiplicities to |W|, an order taken from factorials,
    not from the package."""
    rank = int(group[1:])
    order = {"A": factorial(rank + 1), "B": 2**rank * factorial(rank), "D": 2 ** (rank - 1) * factorial(rank)}[group[0]]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["coxeter", "--group", group, "--format", "json"]) == 0
    classes = json.loads(out.getvalue())["classes"]
    assert sum(m for _, m in classes) == 1 << rank and sum(s * m for s, m in classes) == order, group


@pytest.mark.parametrize("group", ["A8", "B8", "D8"])
def test_coxeter_classes_add_up(group):
    check_classes_add_up(group)


def test_ribbon_command(capsys):
    code, out, _ = run(capsys, "ribbon", "--family", "A", "--alpha", "2,2")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run(capsys, "ribbon", "--family", "B", "--alpha", "0,3")
    assert (code, out.strip()) == (0, "7")
    code, out, _ = run(capsys, "ribbon", "--family", "A", "--alpha", "2,2", "--mod", "3")
    assert (code, out.strip()) == (0, "2")


def test_ribbon_json(capsys):
    code, out, _ = run(capsys, "ribbon", "--family", "A", "--alpha", "1,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "A", "alpha": ["1", "2", "1"], "value": "5"}


def test_ribbon_degenerate_d_is_flagged(capsys):
    code, out, err = run(capsys, "ribbon", "--family", "D", "--alpha", "0,3")
    assert code == 0
    assert "not a Coxeter group of type D" in err


def test_ribbon_malformed_composition(capsys):
    code, _, err = run(capsys, "ribbon", "--family", "A", "--alpha", "1,0,2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "ribbon", "--family", "A", "--alpha", "2,2", "--mod", "9")
    assert code == 2


def test_cvec_command(capsys):
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", "3")
    assert (code, out.strip()) == (0, "(6, 8, 2)")
    code, out, _ = run(capsys, "cvec", "--family", "D", "--n", "4", "--p", "3")
    assert (code, out.strip()) == (0, "(0, 8, 8)")
    code, out, _ = run(capsys, "cvec", "--family", "B", "--n", "6", "--p", "5")
    assert (code, out.strip()) == (0, "(0, 24, 8, 8, 24)")


def test_cvec_method_provenance_on_stderr(capsys):
    _, out, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", "3")
    assert out.strip() == "(6, 8, 2)"
    assert "method:" in err


def test_cvec_json_schema(capsys):
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", "8", "--p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"family", "n", "p", "method", "vector"}
    assert payload["family"] == "A" and payload["n"] == 8 and payload["p"] == 3
    assert [int(c) for c in payload["vector"]] == [42, 34, 52]


def test_cvec_csv_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "p", "n", "residue", "count"]
    parsed = {int(r[3]): int(r[4]) for r in rows[1:]}
    golden = golden_vectors("type_a.txt")[("A", 3, 5)]
    assert tuple(parsed[i] for i in range(3)) == golden


def test_cvec_exit_codes(capsys):
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", "4")
    assert code == 2
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "40", "--p", "3", "--method", "closed")
    assert code == 2 and err.startswith("error:") and "cvec.SWEEP_MAX_BITS" in err
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", str(2**89 - 1))
    assert code == 2 and "arith.MILLER_RABIN_LIMIT" in err
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", str(2**31 - 1))
    assert code == 2 and "arith.TALLY_MAX_BITS" in err
    code, out, err = run(capsys, "cvec", "--family", "A", "--n", str(2**40), "--p", "2")
    assert (code, out) == (2, "") and err.startswith("error:") and f"cvec.RESULT_BITS_MAX: the request needs {2**40 - 26}; the budget is {RESULT_BITS_MAX}" in err
    # under the gate on n, the result budget refuses the vector's counts
    code, out, err = run(capsys, "cvec", "--family", "A", "--n", str(2**32 + 16), "--p", "2")
    assert (code, out) == (2, "") and f"cvec.RESULT_BITS_MAX: the request needs {2**32 + 15}; the budget is {RESULT_BITS_MAX}" in err


def test_every_command_refuses_a_composite_modulus(capsys):
    # the library call behind each command checks the prime first
    calls = [
        ("ribbon", "--family", "B", "--alpha", "0,2,1", "--mod", "9"),
        ("coxeter", "--group", "A3", "--p", "4"),
        ("macdonald", "--n", "4", "--p", "8"),
    ] + [
        ("cvec", "--family", "D", "--n", "1", "--p", "4", "--method", method)
        for method in ("auto", "naive", "theorem", "closed")
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "modulus must be a prime" in err, argv


def _parse_long_decimal(text):
    # int() has the same digit limit as str(), so read the digits in chunks
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cvec_prints_counts_past_the_digit_limit(capsys):
    counts = cvec("A", 19683, 3).counts
    assert max(c.bit_length() for c in counts) > 4300 * 3.33
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", "19683", "--p", "3", "--format", "json")
    assert code == 0
    assert [_parse_long_decimal(c) for c in json.loads(out)["vector"]] == list(counts)
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", "19683", "--p", "3")
    assert code == 0
    assert [_parse_long_decimal(c) for c in out.strip()[1:-1].split(", ")] == list(counts)


def _parse_signed_decimal(text):
    if text.startswith("-"):
        return -_parse_long_decimal(text[1:])
    return _parse_long_decimal(text)


# ints of this many bits or more are converted by the edge row
# decimal-at-size of scripts/edges.py, not in tier-1
DECIMAL_SIZE_BITS = 10**5


def check_decimal(at_size=False):
    # both sides of the str() cut at 4096 bits, and ints far past the
    # interpreter's digit limit, which stays as it was: those below
    # DECIMAL_SIZE_BITS, or with at_size those at or past it
    limit = sys.get_int_max_str_digits()
    rng = random.Random(14)
    edges = [0, 1, 2**4096 - 1, 2**4096, 2**4097, 2**8192, 2**8193 - 1]
    sizes = [rng.randrange(4000, 20000) for _ in range(8)] + [rng.randrange(10**5, 10**6) for _ in range(3)]
    values = edges + [rng.getrandbits(b) for b in sizes] + [(1 << 10**6) - 1]
    pow2 = {}
    for x in values:
        if (x.bit_length() >= DECIMAL_SIZE_BITS) != at_size:
            continue
        for v in (x, -x):
            text = _decimal(v, pow2)
            assert text.lstrip("-")[0] != "0" or v == 0
            assert text != "-0"
            assert _parse_signed_decimal(text) == v, v.bit_length()
    assert sys.get_int_max_str_digits() == limit


def test_decimal_matches_a_chunked_parse():
    check_decimal()


def test_decimal_of_a_shared_power_of_two_matches_a_chunked_parse():
    # w 2^k: at the cut k = 4096 the count is converted whole, past it as w
    # times a memoised power of two; one memo serves odd and even k, a wide
    # w, and split points already memoised by earlier counts
    pow2 = {}
    rng = random.Random(25)
    for k in (4096, 4097, 4098, 8192, 8193, 12289, 10**5 + 1, 4097, 8192):
        for w in (1, 3, 5**50, rng.getrandbits(9000) | 1):
            for v in (w << k, -(w << k)):
                text = _decimal(v, pow2)
                assert text.lstrip("-")[0] != "0"
                assert _parse_signed_decimal(text) == v, (k, w.bit_length())
    # counts whose k differ by a few bits share one memoised power
    before = len(pow2)
    for k in (10**5 + 2, 10**5 + 3, 10**5 + 5):
        assert _parse_long_decimal(_decimal(7 << k, pow2)) == 7 << k
    assert len(pow2) == before


def test_each_distinct_count_is_converted_once(capsys, monkeypatch):
    module = importlib.import_module("ribbonmod.cli")
    converted = []

    def recording(x, pow2):
        converted.append(x)
        return _decimal(x, pow2)

    monkeypatch.setattr(module, "_decimal", recording)
    counts = cvec("A", 3**12, 3).counts
    code, out, _ = run(capsys, "cvec", "--family", "A", "--n", str(3**12), "--p", "3", "--format", "json")
    assert code == 0
    assert [_parse_long_decimal(c) for c in json.loads(out)["vector"]] == list(counts)
    assert sorted(converted) == sorted(set(counts)) and len(converted) == 2


def test_methods_print_identical_vectors(capsys):
    _, naive_out, _ = run(capsys, "cvec", "--family", "B", "--n", "9", "--p", "5", "--method", "naive")
    _, thm_out, _ = run(capsys, "cvec", "--family", "B", "--n", "9", "--p", "5", "--method", "theorem")
    assert naive_out == thm_out


def test_coxeter_command(capsys):
    code, out, _ = run(capsys, "coxeter", "--group", "F4")
    assert (code, out.strip()) == (0, "1^2, 23^4, 73^2, 95^4, 97^2, 169^2")
    code, out, _ = run(capsys, "coxeter", "--group", "E6", "--p", "2")
    assert (code, out.strip()) == (0, "(32, 32)")
    code, out, _ = run(capsys, "coxeter", "--group", "I2:6")
    assert (code, out.strip()) == (0, "1^2, 5^2")
    code, out, _ = run(capsys, "coxeter", "--group", "B3", "--subset", "0")
    assert (code, out.strip()) == (0, "7")


def test_coxeter_errors(capsys):
    code, _, err = run(capsys, "coxeter", "--group", "Z9")
    assert code == 2
    code, _, err = run(capsys, "coxeter", "--group", "F4", "--format", "csv")
    assert code == 2 and "--p" in err


def test_coxeter_subset_excludes_p(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["coxeter", "--group", "B3", "--subset", "0", "--p", "5"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_coxeter_subset_has_no_csv(capsys):
    code, out, err = run(capsys, "coxeter", "--group", "B3", "--subset", "0", "--format", "csv")
    assert (code, out) == (2, "") and "csv" in err


def test_coxeter_subset_rejects_repeated_generators(capsys):
    code, out, err = run(capsys, "coxeter", "--group", "B3", "--subset", "0,0")
    assert (code, out) == (2, "") and "repeats" in err
    code, out, _ = run(capsys, "coxeter", "--group", "B3", "--subset", "2,0,1")
    assert (code, out) == (0, "1\n")


def test_coxeter_subset_names_a_malformed_index(capsys):
    for subset in ("0,x", "0,,1"):
        code, out, err = run(capsys, "coxeter", "--group", "B3", "--subset", subset)
        assert (code, out) == (2, ""), subset
        assert "--subset" in err and repr(subset) in err, err


def test_command_line_ints_past_the_digit_limit(capsys):
    # 5000 digits, past int()'s 4300: N = 11...1 is a part, an n or a
    # prime; the ribbon number of (N, 1) is N, whose digit sum 5000 is 2
    # mod 3, and JSON writes the part back as decimal text; the budgets
    # refuse the rest as they refuse a short int
    ones = "1" * 5000
    code, out, _ = run(capsys, "ribbon", "--family", "A", "--alpha", f"{ones},1", "--mod", "3")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "ribbon", "--family", "A", "--alpha", f"{ones},1", "--mod", "3", "--format", "json")
    record = json.loads(out)
    assert code == 0 and record == {"family": "A", "alpha": [ones, "1"], "value": "2"}
    assert [int_value(part) for part in record["alpha"]] == [int_value(ones), 1]
    started = time.perf_counter()
    code, out, err = run(capsys, "macdonald", "--n", ones, "--p", "3")
    assert (code, out) == (2, "") and err.startswith("error: cvec.MACDONALD_COST_MAX: ")
    assert time.perf_counter() - started < 1
    code, out, err = run(capsys, "cvec", "--family", "A", "--n", ones, "--p", "3")
    assert (code, out) == (2, "") and err.startswith("error: cvec.RESULT_BITS_MAX: ")
    code, out, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", ones)
    assert (code, out) == (2, "") and "arith.MILLER_RABIN_LIMIT" in err
    # a malformed part, int option or index of 5000 characters is named by
    # its head, in a message of one short line
    head = f"{ones[:60]!r}... (5003 characters)"
    code, _, err = run(capsys, "ribbon", "--family", "A", "--alpha", f"{ones}x,1")
    assert code == 2 and err == f"error: malformed composition {head}\n"
    code, _, err = run(capsys, "coxeter", "--group", "A5", "--subset", f"{ones}x,1")
    assert code == 2 and err == f"error: --subset takes comma-separated generator indices, got {head}\n"
    with pytest.raises(SystemExit) as excinfo:
        main(["cvec", "--family", "A", "--n", f"{ones}x,1", "--p", "3"])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2 and err.endswith(f"error: argument --n: invalid int value: {head}\n")


def test_refusals_of_long_arguments_are_short(capsys):
    # a message names a long argument by its head, and a bad index by its
    # first bad part or a repeated generator by its value, so none echoes a
    # label, family or method of 10^6 characters, 10^5 parts, an edge's int
    # of 5001 digits or 200,000 generators; the command line writes one
    # short line and exits 2
    calls = ((lambda: builtin_diagram("Q" * 10**6), "unknown diagram label 'QQQ"),
             (lambda: CoxeterDiagram((1, 2), ((1, 10**5000, 3),)), "bad edge (1, an int of 16610 bits)"),
             (lambda: check_family("Q" * 10**6), "family must be one of ('A', 'B', 'D'), got 'QQQ"),
             (lambda: cvec("A", 5, 3, "x" * 10**6), "unknown method 'xxx"),
             (lambda: Composition([0] * 10**5), "Composition needs a first part >= 1 and the rest >= 1, got part 0 = 0"),
             (lambda: PseudoComposition([0] * 10**5),
              "PseudoComposition needs a first part >= 0 and the rest >= 1, got part 1 = 0"))
    for call, head in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        message = str(excinfo.value)
        assert message.startswith(head) and len(message) < 300, message[:300]
    for argv in (["--group", "Q" * 10**6], ["--group", "A3", "--subset", ",".join(["1"] * 200000)]):
        code, out, err = run(capsys, "coxeter", *argv)
        assert (code, out) == (2, "") and len(err) < 300, err[:300]
    assert err == "error: --subset repeats a generator: 1\n"


def test_ribbon_type_d_below_rank_2_refused_at_every_prime(capsys):
    for mod in ("2", "3"):
        code, out, err = run(capsys, "ribbon", "--family", "D", "--alpha", "1", "--mod", mod)
        assert (code, out) == (2, "") and "n >= 2" in err


def test_coxeter_budget_exit_codes(capsys):
    code, _, err = run(capsys, "coxeter", "--group", "A30")
    assert code == 2 and "coxeter.SUBSET_MAX_RANK" in err
    # 20 of 40 generators: 2^20 subsets on either side
    code, _, err = run(capsys, "coxeter", "--group", "A40", "--subset", ",".join(map(str, range(1, 21))))
    assert code == 2 and "coxeter.SUBSET_MAX_RANK" in err
    # all 40: the complement is empty, the class of the identity
    code, out, _ = run(capsys, "coxeter", "--group", "A40", "--subset", ",".join(map(str, range(1, 41))))
    assert (code, out.strip()) == (0, "1")


def test_coxeter_csv(capsys):
    code, out, _ = run(capsys, "coxeter", "--group", "H3", "--p", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["H3", "5", "-", "0", "0"]
    assert rows[2] == ["H3", "5", "-", "1", "4"]


def test_macdonald_command(capsys):
    code, out, _ = run(capsys, "macdonald", "--n", "4", "--p", "2")
    assert (code, out.strip()) == (0, "4")
    code, out, _ = run(capsys, "macdonald", "--n", "1", "--p", "3")
    assert (code, out.strip()) == (0, "1")
    code, _, _ = run(capsys, "macdonald", "--n", "4", "--p", "8")
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cvec", "--family", "Q", "--n", "4", "--p", "3"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_golden_loaders():
    assert golden_vectors("type_a.txt")[("A", 2, 2)][1] == 2
    vectors = golden_vectors("type_d.txt")
    assert vectors[("D", 3, 4)] == (0, 8, 8)
    multis = golden_multisets()
    assert multis["I2:3"] == {1: 2, 2: 2}
    assert format_multiset(sorted(multis["H3"].items())) == "1^2, 11^2, 19^2, 29^2"


def test_golden_shorthand_and_its_checks(monkeypatch):
    assert expand("2^3(0, 1)") == (0, 8)
    assert expand("2(1, 1, 0)") == (2, 2, 0)
    assert expand(" (6, 2) ") == (6, 2)
    for bad in ("3(1, 1)", "2^(1, 1)", "2^3 1, 1", "(1, (2))"):
        with pytest.raises(ValueError, match="bad shorthand"):
            expand(bad)
    verify = importlib.import_module("ribbonmod.verify")
    tables = {
        "ok": "# comment\np: 2, 3\nA 3: 2(1, 1) | 2(0, 1, 1)\n\np: 5\nH3: 2^2(0, 1, 0, 0, 1)\n",
        "short": "p: 3\nA 4: 2(2, 1)\n",
        "twice": "p: 3, 3\nA 4: 2(2, 1, 1) | 2(2, 1, 1)\n",
        "columns": "p: 2, 3\nA 3: 2(1, 1)\n",
    }
    monkeypatch.setattr(verify, "_data_text", tables.__getitem__)
    assert golden_vectors("ok") == {("A", 2, 3): (2, 2), ("A", 3, 3): (0, 2, 2), ("H3", 5, None): (0, 4, 0, 0, 4)}
    for name, message in (("short", "length p"), ("twice", "given twice"), ("columns", "1 vectors for 2 primes")):
        with pytest.raises(ValueError, match=message):
            golden_vectors(name)


def _group_type(label: str) -> IrreducibleType:
    # "E6" is E6, "I2:5" is I2(5)
    name, _, m = label.partition(":")
    return IrreducibleType(name[0], int(name[1:]), int(m) if m else None)


def test_golden_data_is_consistent_with_itself():
    # counts that any correct table meets, checked with no route run
    for name in TABLE_FILES:
        for (family, p, n), vector in golden_vectors(name).items():
            assert sum(vector) == 1 << (n - 1 if family == "A" else n), (family, p, n)
    multisets = golden_multisets()
    for group, sizes in multisets.items():
        group_type = _group_type(group)
        assert sum(sizes.values()) == 1 << group_type.rank, group
        assert sum(size * mult for size, mult in sizes.items()) == group_type.order, group
    histograms = golden_vectors(EXCEPTIONAL_HISTOGRAMS)
    assert {group for group, _, _ in histograms} == {"E6", "E7", "F4", "H3", "H4", "I2:5", "I2:6", "I2:7"}
    for (group, p, _), vector in histograms.items():
        assert sum(vector) == 1 << _group_type(group).rank, (group, p)
        assert tuple(residue_tally(multisets[group], p)) == vector, (group, p)


def test_loaded_data_files_are_package_data():
    # CI installs in editable mode, which reads src/ribbonmod/data directly:
    # a data file that no package-data glob matches passes every other test
    # and is missing from the wheel
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with (root / "pyproject.toml").open("rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["ribbonmod"]
    for name in TABLE_FILES + (EXCEPTIONAL_HISTOGRAMS, EXCEPTIONAL_MULTISETS):
        assert (root / "src" / "ribbonmod" / "data" / name).is_file(), name
        assert any(fnmatch.fnmatch(f"data/{name}", glob) for glob in globs), name


def test_verify_tables_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "PASS type_a.txt (70 vectors)" in out
    assert "verify: OK" in out


def test_verify_formulas_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "formulas")
    assert code == 0
    assert "PASS closed forms" in out


def test_verify_formulas_reports_a_refusal_as_a_fail_line(monkeypatch):
    # A n = 40 at p = 3 is its own n*, past the naive budget: the shape
    # rule's refusal is one FAIL line, and the suite fails
    verify = importlib.import_module("ribbonmod.verify")
    monkeypatch.setattr(verify, "closed_form_grid", lambda: [("A", 40, 3), ("A", 5, 3)])
    lines = []
    assert not verify._verify_formulas(lines.append)
    assert lines == [f"FAIL closed forms against the theorem method (A, n=40, p=3) [refused]: expected "
                     f"{cvec_theorem('A', 40, 3).counts}, computed cvec.SWEEP_MAX_BITS: the request needs 39; "
                     f"the budget is 26"]


def test_verify_oracles_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracles")
    assert code == 0
    assert "verify: OK" in out
    lines = [line for line in out.splitlines() if line.startswith("PASS oracle ")]
    assert len(lines) == sum(len(ns) for ns in ORACLE_GRID.values())
    assert "PASS oracle A n=9 (256 classes)" in lines
    assert "PASS oracle B n=7 (128 classes)" in lines


def test_verify_oracles_reports_each_mismatch(monkeypatch):
    # a route that disagrees with the group oracle on n = 3 only: each of
    # the 4 classes is one mismatch, and the suite fails
    verify = importlib.import_module("ribbonmod.verify")
    exact = verify.ribbon_exact
    monkeypatch.setattr(verify, "ORACLE_GRID", {"A": range(2, 4)})
    monkeypatch.setattr(verify, "ribbon_exact", lambda f, alpha: exact(f, alpha) + (alpha.n == 3))
    lines = []
    assert not verify._verify_oracles(lines.append)
    assert lines == ["PASS oracle A n=2 (2 classes)", "FAIL oracle A n=3: 4 mismatches"]


def test_verify_oracles_reports_a_missing_class_and_a_wrong_vector(monkeypatch):
    # a naive vector off by one at A n = 2 is one mismatch per prime; an
    # oracle that loses one class of A n = 3 is one for the class count and
    # one per prime, whose tallies lose that class's size
    verify = importlib.import_module("ribbonmod.verify")
    oracle, naive = verify.oracle_descent_class_sizes, verify.cvec_naive

    def short(family, n):
        classes = oracle(family, n)
        if n == 3:
            classes.popitem()
        return classes

    def off_by_one(family, n, p):
        vec = naive(family, n, p)
        return DimensionPVector(family, n, p, (vec.counts[0] + (n == 2),) + vec.counts[1:])

    monkeypatch.setattr(verify, "ORACLE_GRID", {"A": range(2, 4)})
    monkeypatch.setattr(verify, "oracle_descent_class_sizes", short)
    monkeypatch.setattr(verify, "cvec_naive", off_by_one)
    lines = []
    assert not verify._verify_oracles(lines.append)
    primes = len(verify.ORACLE_PRIMES)
    assert lines == [f"FAIL oracle A n=2: {primes} mismatches", f"FAIL oracle A n=3: {1 + primes} mismatches"]


def test_compare_reports_each_mismatch():
    lines = []
    triples = [("x", (1, 2), (1, 2)), ("y", (3,), (4,)), ("z", 5, 5)]
    assert not _compare(lines.append, "t.csv", "vectors", triples)
    assert lines == ["FAIL t.csv y: expected (3,), computed (4,)"]
    lines.clear()
    assert _compare(lines.append, "t.csv", "vectors", triples[::2])
    assert lines == ["PASS t.csv (2 vectors)"]
    lines.clear()
    assert not _compare(lines.append, "m.txt", "groups", [("g", 3, 4)], lambda v: f"<{v}>")
    assert lines == ["FAIL m.txt g: expected <3>, computed <4>"]


D_NOTE = "note: n < 4 is not a Coxeter group of type D\n"
H3_CSV = "family,p,n,residue,count\n" + "".join(
    f"H3,5,-,{i},{c}\n" for i, c in enumerate((0, 4, 0, 0, 4))
)

# (argv, exit code, stdout, stderr): one row per (command, format) pair
SURFACE = [
    ("ribbon --family A --alpha 1,2,1", 0, "5\n", ""),
    ("ribbon --family A --alpha 1,2,1 --format json", 0,
     '{"family": "A", "alpha": ["1", "2", "1"], "value": "5"}\n', ""),
    ("ribbon --family B --alpha 0,3 --mod 5", 0, "2\n", ""),
    ("ribbon --family B --alpha 0,3 --mod 5 --format json", 0,
     '{"family": "B", "alpha": ["0", "3"], "value": "2"}\n', ""),
    ("ribbon --family D --alpha 0,3", 0, "3\n", D_NOTE),
    ("ribbon --family D --alpha 0,3 --format json", 0,
     '{"family": "D", "alpha": ["0", "3"], "value": "3"}\n', ""),
    ("cvec --family A --n 5 --p 3", 0, "(6, 8, 2)\n", "method: closed-form:shape\n"),
    ("cvec --family A --n 5 --p 3 --format json", 0,
     '{"family": "A", "n": 5, "p": 3, "method": "closed-form:shape", "vector": ["6", "8", "2"]}\n', ""),
    ("cvec --family A --n 5 --p 3 --format csv", 0,
     "family,p,n,residue,count\nA,3,5,0,6\nA,3,5,1,8\nA,3,5,2,2\n", ""),
    ("cvec --family D --n 3 --p 3", 0, "(4, 2, 2)\n", D_NOTE + "method: closed-form:shape\n"),
    ("cvec --family D --n 3 --p 3 --format json", 0,
     '{"family": "D", "n": 3, "p": 3, "method": "closed-form:shape", "vector": ["4", "2", "2"]}\n', ""),
    ("coxeter --group H3", 0, "1^2, 11^2, 19^2, 29^2\n", ""),
    ("coxeter --group H3 --format json", 0,
     '{"group": "H3", "classes": [[1, 2], [11, 2], [19, 2], [29, 2]]}\n', ""),
    ("coxeter --group H3 --p 5", 0, "(0, 4, 0, 0, 4)\n", ""),
    ("coxeter --group H3 --p 5 --format json", 0,
     '{"group": "H3", "p": 5, "vector": ["0", "4", "0", "0", "4"]}\n', ""),
    ("coxeter --group H3 --p 5 --format csv", 0, H3_CSV, ""),
    ("coxeter --group B3 --subset 0,2", 0, "11\n", ""),
    ("coxeter --group B3 --subset 2,0 --format json", 0,
     '{"group": "B3", "subset": [0, 2], "value": "11"}\n', ""),
    ("macdonald --n 6 --p 2", 0, "8\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", SURFACE, ids=[row[0] for row in SURFACE])
def test_cli_surface_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, *argv.split()) == (code, out, err)


# (argv, text the error line must name): each is a usage error, exit code 2
USAGE_ERRORS = [
    ("", "required: command"),
    ("--bogus cvec", "--bogus"),
    ("frobnicate --n 3", "'frobnicate'"),
    ("cvec --family A --n 5 --p 3 stray", "unrecognized arguments: stray"),
    ("cvec --family A --n 5 --p 3 --colour red", "--colour"),
    ("cvec --family A --n 5 --p", "--p"),
    ("cvec --family Q --n 4 --p 3", "--family"),
    ("cvec --family A --n five --p 3", "--n"),
    ("cvec --family A --n 5", "--p"),
    ("coxeter --group B3 --subset 0 --p 5", "--p: not allowed with argument --subset"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS, ids=[row[0] or "bare" for row in USAGE_ERRORS])
def test_usage_errors_exit_2(capsys, argv, named):
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: ribbonmod")
    assert error.startswith("ribbonmod") and ": error: " in error and named in error, error


def test_usage_error_leaves_the_process_answering(capsys):
    # parsing keeps no state: after usage errors the same process prints
    # the pinned rows
    for argv, _ in USAGE_ERRORS:
        with pytest.raises(SystemExit):
            main(argv.split())
    capsys.readouterr()
    pinned = {row[0]: row[1:] for row in SURFACE}
    for argv in ("ribbon --family B --alpha 0,3 --mod 5", "coxeter --group H3 --p 5"):
        assert run(capsys, *argv.split()) == pinned[argv], argv


@pytest.mark.parametrize("argv, short", [
    ("cvec --family A --n 5 --p 3 --format json", "cvec --fam A --n=5 --p 3 --format=json"),
    ("coxeter --group H3 --p 5 --format csv", "coxeter --gr=H3 --p=5 --fo csv"),
    ("ribbon --family D --alpha 0,3", "ribbon --fa=D --a 0,3"),
])
def test_equals_and_prefix_forms_match_the_pinned_rows(capsys, argv, short):
    pinned = {row[0]: row[1:] for row in SURFACE}
    assert run(capsys, *short.split()) == pinned[argv]


@pytest.mark.parametrize("argv", ["-h", "--help"] + [f"{name} -h" for name in COMMANDS])
def test_help_exits_0_and_names_every_option(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ribbonmod")
    name = argv.split()[0]
    names = list(COMMANDS) if name not in COMMANDS else ["--help", *COMMANDS[name][2]]
    for word in names:
        assert word in out, (argv, word)


def test_cli_import_loads_only_what_commands_share():
    # a fresh interpreter without site (whose .pth files may import typing
    # or importlib.resources first) and without bytecode; getopt itself
    # loads re and gettext, so those are not checked
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    deferred = ("argparse", "dataclasses", "inspect", "typing", "json", "csv", "importlib.resources",
                "ribbonmod.verify")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ribbonmod; import ribbonmod.cli; "
             "print(' '.join(name for name in sys.argv[2:] if name in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-B", "-c", probe, str(src), *deferred], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == []


def test_verify_does_not_load_cli():
    # the suites and the golden loaders they read import nothing from cli,
    # so `python -m ribbonmod.cli verify` loads cli.py once, as __main__
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ribbonmod.verify; "
             "print('ribbonmod.cli' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-B", "-c", probe, str(src)], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == ["False"]
