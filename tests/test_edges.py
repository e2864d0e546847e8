"""The budget-edge table of ``scripts/edges.py``, checked without running
its rows: ``python scripts/edges.py`` runs them."""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from ribbonmod.cli import main, parse_args
from test_surface import _readme_budget_constants

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("edges", ROOT / "scripts" / "edges.py")
edges = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edges)
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
    assert api_err.startswith("error: ribbon.ORACLE_MAX_N: ") and cli_err.startswith("error: cvec.NAIVE_MAX_BITS: ")


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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| budget | constant | at the edge | in CI |\n", 1)[1].split("\n\n", 1)[0]
    names = {row.name for row in edges.ROWS}
    for line in table.splitlines()[1:]:
        cited = re.findall(r"`([^`]+)`", line.split(" | ")[-1])
        assert cited and set(cited) <= names, line[:60]
