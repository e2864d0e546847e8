"""ribbonmod benchmark: one seeded workload, checked answers, one JSON line.

    python3 perfbench/run.py --workload digits --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The query list comes from ``catalog.json`` and the seed (``workloads.py``),
sized to a third of ``--seconds``.  Every pass is a fresh interpreter with
``RIBBONMOD_THREADS`` removed from its environment, so it is one
single-threaded process whose in-process caches start cold.

With ``--trace 0`` the end-to-end metrics are measured:

  * ``setup_s``: the median, over fresh interpreters started before each
    pass, of the time from starting the interpreter until ``ribbonmod.cli``
    is imported;
  * three untraced passes answer the whole list in a closed loop.
    ``wall_s`` is the mean over the passes and ``peak_rss_mb`` the median;
    the latency percentiles are taken over the queries of all passes
    together.

Query times are scaled by the calibration loop timed before each query
(``calibrate.py``), so that a slow minute of a shared machine does not read
as a slower program; the raw times are kept in the run's record.

With ``--trace 1`` one untraced pass is followed by one traced pass over the
same list, which gives the per-layer metrics; ``trace.overhead_s`` is the
traced pass's wall time minus the untraced one's.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
A query fails when, in any pass, it raises, exits with an unexpected code,
or disagrees with the catalog; ``correct`` is false only when an answer was
wrong.  The environment, the query list and every pass's outcomes are
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from calibrate import scaled  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import PLANS, load_catalog, sample  # noqa: E402

PASSES = 3
SETUP_PROBES = 5  # before each pass
WORKER_TIMEOUT_S = 55
# Variables that would change what a CLI user sees: worker fan-out and the
# int<->str digit limit, whose default the benchmark must keep.
STRIPPED_ENV = ("RIBBONMOD_THREADS", "PYTHONINTMAXSTRDIGITS")
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ribbonmod.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until ribbonmod.cli is imported, per probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(ROOT / "src")],
                              stdout=subprocess.PIPE, env=child_env(), text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            raise BenchError("a fresh interpreter could not import ribbonmod.cli")
        probes.append(elapsed)
    return probes


def run_worker(queries: Path, tag: str, traced: bool) -> dict:
    result = OUT / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(queries), str(result)]
    if traced:
        cmd += ["--trace", str(OUT / f"{tag}.spans.json")]
    with subprocess.Popen(cmd, env=child_env()) as worker:
        try:
            code = worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {code}")
    with open(result) as fh:
        return json.load(fh)


def judge(entry: dict, record: dict) -> tuple[bool, bool]:
    """(failed, wrong) for one query."""
    expect = entry["expect"]
    wrong = record.get("invariant") is False
    if record["outcome"] != expect["outcome"]:
        return True, wrong
    wrong = wrong or record.get("digest") != expect.get("digest")
    return wrong, wrong


def latencies(result: dict, scale: bool = True) -> list[float]:
    """The pass's query latencies, scaled by the calibration loop unless ``scale`` is false."""
    done = [r for r in result["records"] if r["latency_s"] is not None]
    times = [r["latency_s"] for r in done]
    return scaled(times, [r["calib_s"] for r in done]) if scale else times


def timings(passes: list[dict], scale: bool) -> tuple[dict, dict]:
    """wall_s, query_p50_s and query_tail_s, and where the tail lies."""
    walls = [sum(latencies(p, scale)) for p in passes]
    pooled = sorted(t for p in passes for t in latencies(p, scale))
    count = len(pooled)
    beyond = min(10, count - 1)  # samples left above the tail sample
    tail_rank = count - beyond  # 1-based rank of the tail sample
    values = {
        "wall_s": statistics.fmean(walls),
        "query_p50_s": statistics.median(pooled),
        "query_tail_s": pooled[tail_rank - 1],
    }
    tail = {"percentile": round(100 * tail_rank / count, 2), "samples": count, "beyond": beyond}
    return values, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ribbonmod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ribbonmod" / "__init__.py").is_file():
        print(f"error: no ribbonmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    entries = sample(load_catalog(), args.workload, args.seed, args.seconds / PASSES)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    queries = OUT / f"{tag}.queries.json"
    with open(queries, "w") as fh:
        json.dump([{"id": e["id"], "query": e["query"]} for e in entries], fh)

    try:
        if args.trace:
            passes = [run_worker(queries, f"{tag}-pass0", traced=False),
                      run_worker(queries, f"{tag}-traced", traced=True)]
        else:
            setup, passes = [], []
            for i in range(PASSES):
                setup += measure_setup()
                passes.append(run_worker(queries, f"{tag}-pass{i}", traced=False))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # by list position: a stratum may hold the same query twice (a subset
    # draw on a small diagram can repeat), and each copy counts
    failed_at, wrong_at = set(), set()
    for result in passes:
        for i, (entry, record) in enumerate(zip(entries, result["records"])):
            failed, wrong = judge(entry, record)
            if failed:
                failed_at.add(i)
            if wrong:
                wrong_at.add(i)
    failed_ids = [entries[i]["id"] for i in sorted(failed_at)]
    wrong_ids = [entries[i]["id"] for i in sorted(wrong_at)]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": passes[0]["python"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "int_max_str_digits": passes[0]["int_max_str_digits"],
        "stripped_env": list(STRIPPED_ENV),
        "failed": failed_ids,
        "wrong": wrong_ids,
        "queries": [
            {"id": e["id"], "outcomes": [p["records"][i]["outcome"] for p in passes],
             "latency_s": [p["records"][i]["latency_s"] for p in passes],
             "calib_s": [p["records"][i].get("calib_s") for p in passes]}
            for i, e in enumerate(entries)
        ],
    }
    if args.trace:
        layers = passes[1]["layers"]
        layers["trace.overhead_s"] = sum(latencies(passes[1])) - sum(latencies(passes[0]))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        report["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        report["calls"] = passes[1]["calls"]
        report["binding_sites"] = passes[1]["binding_sites"]
    else:
        values, report["query_tail"] = timings(passes, scale=True)
        report["raw_times"], _ = timings(passes, scale=False)
        # not scaled: starting a process and importing do not track the loop
        values["setup_s"] = statistics.median(setup)
        report["setup_probes"] = setup
        values["peak_rss_mb"] = statistics.median(p["peak_rss_kb"] for p in passes) / 1024
        values["ok_ratio"] = 1 - len(failed_at) / len(entries)
        units = {"peak_rss_mb": "MB", "ok_ratio": "1"}
        metrics = {name: {"value": value, "unit": units.get(name, "s")} for name, value in values.items()}
        report["end_to_end"] = values
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    summary = ("workload", "seed", "git_sha", "python", "nproc", "int_max_str_digits", "query_tail",
               "raw_times")
    print(json.dumps({k: report[k] for k in summary if k in report}), file=sys.stderr)
    if wrong_ids:
        print(f"wrong answers: {wrong_ids}", file=sys.stderr)
    print(json.dumps({"correct": not wrong_ids, "attempted": len(entries),
                      "failed": len(failed_at), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
