"""Write BENCH_<number>.json, a perf record of this checkout, number being the change's own:

    python scripts/bench.py NUMBER

Each row of scripts/edges.py that ROWS below names runs RUNS times through `edges.run`, under the row's own cap, timeout
and check; the file keeps each row's median and quartiles of seconds and of peak RSS, and whether every run
passed.  Then tier-1 runs once: its wall time, its summed `--durations=0` seconds and its ten slowest test phases.  `sha`
is HEAD's, and `dirty` tells whether tracked files differ from it.  Exits 1 if a run of a row or tier-1 fails."""

import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("edges", ROOT / "scripts" / "edges.py")
edges = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edges)
RUNS = 3
# the hot paths at their edges, and the tier-1 points that run once at size
ROWS = ("verify", "naive-D26-p3", "naive-D26-p131", "theorem-A49-p3", "coxeter-D18-p3", "result-A-2^32-p2",
        "digests-cvec.closed.edge", "digests-cvec.theorem.edge", "decimal-at-size", "term-table-at-size", "spread-at-size")
# --durations-min=0: pytest leaves phases under 5 ms out of --durations=0 unless told otherwise
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=0",
         "--durations-min=0"]
DURATION = re.compile(r"^([\d.]+)s (call|setup|teardown) +(\S+)$", re.M)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def bench_rows():
    outputs, records = {}, {}
    for row in edges.ROWS:
        if row.name in ROWS:
            runs = [edges.run(row, outputs) for _ in range(RUNS)]
            records[row.name] = {"seconds": quartiles([run["seconds"] for run in runs]),
                                 "peak_rss_mb": quartiles([run["peak_rss_mb"] for run in runs]),
                                 "pass": all(run["pass"] for run in runs)}
    return records


def tier1():
    started = time.perf_counter()
    run = subprocess.run(TIER1, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True)
    wall = time.perf_counter() - started
    phases = sorted(((float(s), f"{test} ({phase})") for s, phase, test in DURATION.findall(run.stdout)), reverse=True)
    return {"wall_s": round(wall, 2), "exit": run.returncode, "durations_sum_s": round(sum(s for s, _ in phases), 2),
            "slowest": [{"test": name, "seconds": s} for s, name in phases[:10]]}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    record = {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(), "runs": RUNS,
              "rows": bench_rows(), "tier1": tier1()}
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if record["tier1"]["exit"] == 0 and all(row["pass"] for row in record["rows"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
