"""Write BENCH_<number>.json, a paired perf record of this checkout against a base, number being the change's own:

    python scripts/bench.py NUMBER

The base is the commit named by the `sha` of the highest-numbered BENCH_*.json; `git archive` extracts it into a temporary
directory, which is removed afterwards.  Each row of scripts/edges.py that ROWS below names runs as PAIRS alternating
base/change pairs, each side through its own `edges.run`, under that side's cap, timeout and check.  The file keeps, for
each row and side, the median and quartiles of seconds and of peak RSS, the ratio of the change's median seconds to the
base's, how many pairs the change ran faster, and whether every run passed.  Then tier-1 runs once on each side: its wall
time, its summed `--durations=0` seconds and its ten slowest test phases.  `sha` is HEAD's, and `dirty` tells whether
tracked files differ from it.  Exits 1 if a run of a row or tier-1 fails."""

import importlib.util
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
# the hot paths at their edges, and the tier-1 points that run once at size
ROWS = ("verify", "naive-D26-p3", "naive-D26-p131", "theorem-A49-p3", "coxeter-D18-p3", "result-A-2^32-p2",
        "digests-cvec.closed.edge", "digests-cvec.theorem.edge", "decimal-at-size", "term-table-at-size", "spread-at-size")
# --durations-min=0: pytest leaves phases under 5 ms out of --durations=0 unless told otherwise
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=0",
         "--durations-min=0"]
DURATION = re.compile(r"^([\d.]+)s (call|setup|teardown) +(\S+)$", re.M)


def edges_of(root):
    """The scripts/edges.py of the tree at root, which runs that tree's src/."""
    spec = importlib.util.spec_from_file_location("edges", Path(root) / "scripts" / "edges.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def paired_rows(base_root, names=ROWS, pairs=PAIRS):
    """Each named row, base run then change run, pairs times over, each side through the edges.run of its own tree."""
    sides = {"base": edges_of(base_root), "change": edges_of(ROOT)}
    rows = {side: {row.name: row for row in module.ROWS} for side, module in sides.items()}
    outputs = {side: {} for side in sides}
    records = {}
    for name in names:
        runs = {side: [] for side in sides}
        for _ in range(pairs):
            for side, module in sides.items():
                runs[side].append(module.run(rows[side][name], outputs[side]))
        seconds = {side: [run["seconds"] for run in runs[side]] for side in sides}
        record = {side: {"seconds": quartiles(seconds[side]), "peak_rss_mb": quartiles([run["peak_rss_mb"] for run in runs[side]])}
                  for side in sides}
        records[name] = {**record, "ratio": round(record["change"]["seconds"]["median"] / record["base"]["seconds"]["median"], 3),
                         "wins": sum(change < base for change, base in zip(seconds["change"], seconds["base"])),
                         "pass": all(run["pass"] for side in sides for run in runs[side])}
    return records


def tier1(root):
    started = time.perf_counter()
    run = subprocess.run(TIER1, cwd=root, env=dict(os.environ, PYTHONPATH=str(Path(root) / "src")), capture_output=True,
                         text=True)
    wall = time.perf_counter() - started
    phases = sorted(((float(s), f"{test} ({phase})") for s, phase, test in DURATION.findall(run.stdout)), reverse=True)
    return {"wall_s": round(wall, 2), "exit": run.returncode, "durations_sum_s": round(sum(s for s, _ in phases), 2),
            "slowest": [{"test": name, "seconds": s} for s, name in phases[:10]]}


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=text, check=True).stdout


def base_sha():
    """The sha of the highest-numbered BENCH_*.json."""
    files = {int(path.stem.split("_", 1)[1]): path for path in ROOT.glob("BENCH_*.json")}
    return json.loads(files[max(files)].read_text())["sha"]


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    base = base_sha()
    record = {"sha": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
              "base": base, "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
              "pairs": PAIRS}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", base, text=False))) as archive:
            archive.extractall(tmp)
        record["rows"] = paired_rows(tmp)
        record["tier1"] = {"base": tier1(tmp), "change": tier1(ROOT)}
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    passed = all(side["exit"] == 0 for side in record["tier1"].values()) and all(row["pass"] for row in record["rows"].values())
    return 0 if passed else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # an exit that removes the base copy
    sys.exit(main(sys.argv[1:]))
