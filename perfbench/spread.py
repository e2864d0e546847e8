"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workloads digits bignum --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), untraced, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  A spread is flagged when it exceeds a third of the
metric's bound.  ``--out`` keeps every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    flagged = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong answers", file=sys.stderr)
                flagged += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        runs[workload] = values
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            over = spread > bounds[name] / 3
            flagged += over
            print(f"{workload:8s} {name:13s} median {median:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}{'  OVER' if over else ''}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
