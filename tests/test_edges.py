"""The budget-edge table of ``scripts/edges.py``, checked without running
its rows: ``python scripts/edges.py`` runs them."""

import importlib.util
import inspect
import json
import os
import re
import shutil
import signal
import time
from pathlib import Path

import pytest

from conftest import readme_budget_rows
from ribbonmod.cli import main, parse_args
from test_answer_digests import ENTRIES
from test_surface import _readme_budget_constants

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("edges", ROOT / "scripts" / "edges.py")
edges = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edges)
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
CLI = ["-m", "ribbonmod.cli"]


def _cli_args(row):
    # the command line of a row run through `python -m ribbonmod.cli`, else None
    at = next((i for i in range(len(row.argv)) if row.argv[i:i + 2] == CLI), None)
    return None if at is None else row.argv[at + 2:]


def test_rows_have_unique_names_one_check_at_most_and_earlier_partners():
    names = [row.name for row in edges.ROWS]
    assert len(set(names)) == len(names)
    for i, row in enumerate(edges.ROWS):
        assert sum((row.stdout is not None, row.partner is not None, bool(row.names))) <= 1, row.name
        assert (row.cap is None or row.cap > 0) and row.timeout > 0, row.name
        assert row.partner is None or row.partner in names[:i], row.name


def test_every_budget_has_an_at_edge_row_and_a_past_edge_row():
    # the README budget table's constants are the rows' `at` names, each
    # met by an at-edge row that expects exit 0 and by a past-edge row that
    # expects exit 2 and names it on stderr
    budgets = _readme_budget_constants()
    assert {row.at for row in edges.ROWS if row.at} == budgets
    assert {name for row in edges.ROWS for name in row.names} == budgets
    for row in edges.ROWS:
        assert not row.names or row.code == 2, row.name
        assert not row.at or row.code == 0, row.name


def test_api_refusals_exit_2_as_cli_main_does(capsys):
    # cli.main prints a refusal as "error: <message>" on stderr and returns
    # 2; every past-edge row that is not a command line is an `api` snippet,
    # which does the same for CapacityError alone
    assert 'print(f"error: {exc}", file=sys.stderr)\n        return 2' in inspect.getsource(main)
    snippets = [row.argv[1] for row in edges.ROWS if row.code == 2 and _cli_args(row) is None]
    assert snippets and all(edges.api(snippet.split("\n")[3][4:]) == ["-c", snippet] for snippet in snippets)
    with pytest.raises(SystemExit) as excinfo:
        exec(edges.api("oracle_descent_class_sizes('A', 10)")[1], {})
    api_err = capsys.readouterr().err
    assert excinfo.value.code == main(["cvec", "--family", "A", "--n", "5050", "--p", "101", "--method", "closed"]) == 2
    cli_err = capsys.readouterr().err
    assert api_err.startswith("error: ribbon.ORACLE_MAX_N: ") and cli_err.startswith("error: cvec.SWEEP_MAX_BITS: ")


def test_command_lines_parse_unless_they_are_usage_errors():
    for row in edges.ROWS:
        args = _cli_args(row)
        if args is None:
            continue
        if row.code == 2 and not row.names:
            with pytest.raises(SystemExit):
                parse_args(args)
        else:
            parse_args(args)


def test_readme_budget_table_cites_rows_by_name():
    # each row of README's budget table names in its CI column rows of the
    # runner, and every name it cites there is a row
    names = {row.name for row in edges.ROWS}
    for budget, _, _, in_ci in readme_budget_rows():
        cited = re.findall(r"`([^`]+)`", in_ci)
        assert cited and set(cited) <= names, budget


def test_each_point_tier1_leaves_out_has_a_row():
    # the digest entries tier-1 leaves out, and the at-size half of each
    # tier-1 check split by size, are each run by one row
    argvs = [row.argv for row in edges.ROWS]
    calls = [("test_answer_digests", f"check_digests({entry!r})") for entry in ENTRIES if entry.endswith(".edge")]
    calls += [(module, f"{name}(at_size=True)") for module, name in (
        ("test_cli", "check_decimal"), ("test_cvec", "check_term_table"), ("test_cvec", "check_spread"))]
    assert len(calls) == 6
    for module, call in calls:
        assert argvs.count(edges.check(module, call)) == 1, call


def _running(pid):
    # neither gone nor a zombie
    try:
        return (Path("/proc") / str(pid) / "stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states under /proc")
def test_a_timed_out_row_leaves_no_process_behind():
    # a row whose child starts a sleeping grandchild and outlives its 1 s
    # timeout fails, and its grandchild is stopped with it
    code = ("import subprocess, sys, time\n"
            "grandchild = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            "print(grandchild.pid, flush=True)\n"
            "time.sleep(60)")
    record = edges.run(edges.Row("outlives-its-timeout", ["-c", code], timeout=1), {})
    pid = int(record["output"].split()[0])
    try:
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not record["pass"] and not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def _quartiles(value):
    return set(value) == {"median", "q1", "q3"} and 0 <= value["q1"] <= value["median"] <= value["q3"]


def _check_tier1(tier1, where):
    assert set(tier1) == {"wall_s", "exit", "durations_sum_s", "slowest"} and tier1["exit"] == 0, where
    seconds = [phase["seconds"] for phase in tier1["slowest"]]
    assert len(seconds) == 10 and seconds == sorted(seconds, reverse=True), where
    assert sum(seconds) <= tier1["durations_sum_s"] + 0.01 and tier1["durations_sum_s"] <= tier1["wall_s"], where


def _check_paired_row(row, pairs, where):
    # each side's quartiles, the ratio of the medians, and the pairs won
    assert set(row) == {"base", "change", "ratio", "wins", "pass"} and row["pass"] is True, where
    for side in ("base", "change"):
        assert set(row[side]) == {"seconds", "peak_rss_mb"}, where
        assert _quartiles(row[side]["seconds"]) and _quartiles(row[side]["peak_rss_mb"]), where
    assert row["ratio"] == round(row["change"]["seconds"]["median"] / row["base"]["seconds"]["median"], 3), where
    assert isinstance(row["wins"], int) and 0 <= row["wins"] <= pairs, where


def test_bench_files_keep_the_schema_and_name_rows_of_the_runner():
    # scripts/bench.py's default rows, and every BENCH_<number>.json, name
    # rows of the runner; each file holds what bench.py wrote when it was
    # made: one tree's runs up to BENCH_55, paired runs against a base since
    names = {row.name for row in edges.ROWS}
    assert set(bench.ROWS) <= names
    assert {row.partner for row in edges.ROWS if row.name in bench.ROWS} <= {None, *bench.ROWS}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        assert path.stem.split("_", 1)[1].isdigit(), path.name
        assert re.fullmatch(r"[0-9a-f]{40}", record["sha"]) and isinstance(record["dirty"], bool), path.name
        assert record["rows"] and set(record["rows"]) <= names, path.name
        if "base" not in record:
            assert set(record) == {"sha", "dirty", "python", "machine", "cpus", "runs", "rows", "tier1"}, path.name
            assert record["runs"] >= 3, path.name
            for name, row in record["rows"].items():
                assert set(row) == {"seconds", "peak_rss_mb", "pass"} and row["pass"] is True, name
                assert _quartiles(row["seconds"]) and _quartiles(row["peak_rss_mb"]), name
            _check_tier1(record["tier1"], path.name)
            continue
        assert set(record) == {"sha", "dirty", "base", "python", "machine", "cpus", "pairs", "rows", "tier1"}, path.name
        assert re.fullmatch(r"[0-9a-f]{40}", record["base"]) and record["pairs"] >= 5, path.name
        for name, row in record["rows"].items():
            _check_paired_row(row, record["pairs"], f"{path.name} {name}")
        assert set(record["tier1"]) == {"base", "change"}, path.name
        for side, tier1 in record["tier1"].items():
            _check_tier1(tier1, f"{path.name} {side}")


def test_bench_pairs_a_row_against_a_base_tree(tmp_path):
    # the verify row, twice on a copy of this tree's src/ and scripts/ as
    # the base and twice on this tree, alternating, each through its own
    # tree's edges.run
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    records = bench.paired_rows(tmp_path, ("verify",), 2)
    assert set(records) == {"verify"}
    _check_paired_row(records["verify"], 2, "verify")
