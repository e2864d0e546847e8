"""Check that the tests catch known faults: each mutant of
scripts/mutants.json must fail the tests it names.

A mutant gives a file, the exact text it replaces there (which must occur
once), the new text and the tests that must kill it.  The checkout is
copied to a temporary directory once; each mutant is applied there in turn
and its tests run with ``pytest -x``.  The run fails when a mutant
survives (its tests pass), when its old text does not occur exactly once,
or when pytest stops for any reason other than a failing test.

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py NAME ...   # only these
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scripts" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks")


def main(names) -> int:
    mutants = json.loads(DATA.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for mutant in mutants:
            if names and mutant["name"] not in names:
                continue
            path = copy / mutant["file"]
            text = path.read_text()
            if text.count(mutant["old"]) != 1:
                print(f"STALE  {mutant['name']}: its old text occurs {text.count(mutant['old'])} times in {mutant['file']}")
                failures += 1
                continue
            path.write_text(text.replace(mutant["old"], mutant["new"]))
            try:
                run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]],
                                     cwd=copy, env=env, capture_output=True, text=True)
            finally:
                path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(run.returncode, f"ERROR (pytest exit {run.returncode})")
            print(f"{verdict:8} {mutant['name']}")
            if run.returncode != 1:
                failures += 1
                print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
