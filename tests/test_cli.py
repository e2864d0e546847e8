import csv
import importlib.util
import io
import json
import pathlib
from importlib import resources

import pytest

from ribbonmod.cli import (
    EXCEPTIONAL_HISTOGRAMS,
    EXCEPTIONAL_MULTISETS,
    TABLE_FILES,
    GoldenRecord,
    build_parser,
    format_multiset,
    golden_multisets,
    golden_vectors,
    load_golden_records,
    main,
)
from ribbonmod.cvec import cvec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert json.loads(out) == {"family": "A", "alpha": [1, 2, 1], "value": "5"}


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
    golden = golden_vectors("type_a.csv")[("A", 3, 5)]
    assert tuple(parsed[i] for i in range(3)) == golden


def test_cvec_exit_codes(capsys):
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", "4")
    assert code == 2
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "11", "--p", "7", "--method", "closed")
    assert code == 1 and "closed" in err
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", str(2**89 - 1))
    assert code == 2 and "primality" in err
    code, _, err = run(capsys, "cvec", "--family", "A", "--n", "5", "--p", str(2**31 - 1))
    assert code == 2 and "budget" in err


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


def test_coxeter_budget_exit_codes(capsys):
    code, _, err = run(capsys, "coxeter", "--group", "A30")
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "coxeter", "--group", "A40", "--subset", ",".join(map(str, range(1, 41))))
    assert code == 2 and "budget" in err


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
    records = load_golden_records("type_a.csv")
    assert GoldenRecord("A", 2, 2, 1, 2) in records
    vectors = golden_vectors("type_d.csv")
    assert vectors[("D", 3, 4)] == (0, 8, 8)
    multis = golden_multisets()
    assert multis["I2:3"] == {1: 2, 2: 2}
    assert format_multiset(multis["H3"]) == "1^2, 11^2, 19^2, 29^2"


def test_verify_tables_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "PASS type_a.csv (70 vectors)" in out
    assert "verify: OK" in out


def test_verify_formulas_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "formulas")
    assert code == 0
    assert "PASS closed forms" in out


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "ribbonmod"


def test_make_golden_regenerates_package_data(tmp_path):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", script)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.main(tmp_path)
    for name in TABLE_FILES + (EXCEPTIONAL_HISTOGRAMS, EXCEPTIONAL_MULTISETS):
        packaged = resources.files("ribbonmod").joinpath(f"data/{name}").read_bytes()
        assert (tmp_path / name).read_bytes() == packaged, name
