"""Self-test of the benchmark's tracing: wrapping and the bypass predictions.

    python3 perfbench/selftest.py

Runs every workload once, traced and shortened, through ``run.py`` and
checks that

  * every wrapped function is bound at one site at least, and records calls
    (spans, for the spanned ones) on each workload meant to load it;
  * the bypass predictions hold as counts: no ``term_mod_p`` call on
    lattice, no naive index on digits and no ``cvec`` call on classes;
  * every answer is correct, and the per-layer metrics reported are the
    ones ``BENCHMARK.json`` declares.

Exits 1 and lists the failed checks otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import HOT, LAYER_METRICS, SPANNED  # noqa: E402

SEED = 7
SECONDS = 3  # one query per stratum

# wrapped function -> workloads meant to load it
LOADS = {
    "cli.main": ("lattice", "digits", "classes"),
    "cvec.dispatch": ("lattice", "digits", "bignum"),
    "cvec.closed_form": ("digits", "bignum"),
    "cvec.theorem": ("digits",),
    "cvec.naive": ("lattice",),
    "cvec.support_set": ("digits",),
    "coxeter.descent_class_sizes": ("classes",),
    "coxeter.ribbon_general": ("classes",),
    "coxeter.parabolic_order": ("classes",),
    "coxeter.classify_components": ("classes",),
    "ribbon.exact": ("classes",),
    "ribbon.mod_p": ("classes", "bignum"),
    "ribbon.oracle": ("classes",),
    "ribbon.term_mod_p": ("digits", "bignum"),
    "arith.multinomial_exact": ("digits", "classes"),
    "arith.check_prime": ("lattice", "digits", "classes", "bignum"),
    "arith.base_p_digits": ("digits", "bignum"),
    "compositions.from_mask": ("classes", "bignum"),
}

# (workload, per-layer metric) pairs that must read exactly zero
BYPASS = (
    ("lattice", "ribbon.term_mod_p.calls"),
    ("digits", "cvec.naive.indices"),
    ("classes", "cvec.calls"),
)


def traced_run(workload: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(HERE.parent / ".perfbench" / f"{workload}-seed{SEED}-trace1.json") as fh:
        return result, json.load(fh)


def main() -> int:
    problems = []
    if set(LOADS) != set(SPANNED) | set(HOT) | {"compositions.from_mask"}:
        problems.append("LOADS does not name exactly the wrapped functions")
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    if declared != [tuple(m) for m in LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    workloads = sorted({w for ws in LOADS.values() for w in ws})
    runs = {w: traced_run(w) for w in workloads}
    for workload, (result, report) in runs.items():
        if not result["correct"]:
            problems.append(f"{workload}: wrong answers {report['wrong']}")
        for name, sites in report["binding_sites"].items():
            if not sites:
                problems.append(f"{name}: no binding site found")
    for name, meant in LOADS.items():
        for workload in meant:
            if runs[workload][1]["calls"].get(name, 0) == 0:
                problems.append(f"{name}: no calls recorded on {workload}")
    for workload, metric in BYPASS:
        value = runs[workload][0]["metrics"][metric]["value"]
        if value != 0:
            problems.append(f"bypass: {metric} = {value} on {workload}, predicted 0")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("FAILED" if problems else f"OK ({len(LOADS)} wrapped functions)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
