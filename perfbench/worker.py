"""One benchmark pass: a fresh interpreter answers a query list in a closed loop.

    python3 perfbench/worker.py QUERIES.json RESULT.json [--trace SPANS.json]

``QUERIES.json`` is a list of catalog entries (``run.py`` writes one per
run, so any run can be replayed with this command).  The worker imports
ribbonmod from ``src/`` of the checkout it lives in, runs the queries one
after another, and writes each query's latency, outcome and answer digest to
``RESULT.json`` together with its own peak RSS.  Before each query it times
the loop of ``calibrate.py`` and records that time with the query.  With
``--trace`` it first wraps the package's functions (see ``tracer.py``),
writes the spans to ``SPANS.json`` and adds the per-layer metrics to the
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Stop starting queries after this long, so a run that has become far
# slower still ends in time; the queries left over count as failed.
DEADLINE_S = 40.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("queries")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ribbonmod
    import ribbonmod.cli

    if Path(ribbonmod.__file__).resolve().parent != SRC / "ribbonmod":
        print(f"error: imported ribbonmod from {ribbonmod.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from calibrate import calibrate
    from queries import execute

    with open(args.queries) as fh:
        entries = json.load(fh)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    start = time.perf_counter()
    for index, entry in enumerate(entries):
        if time.perf_counter() - start > DEADLINE_S:
            records.append({"latency_s": None, "outcome": "skipped", "bytes": 0})
            continue
        loop_s = calibrate()
        if tracer is not None:
            tracer.query_id = index
        record = execute(ribbonmod, ribbonmod.cli, entry["query"])
        record["calib_s"] = loop_s
        records.append(record)

    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(r["bytes"] for r in records))
        result["calls"] = dict(tracer.calls, **{"compositions.from_mask": tracer.counters["from_mask"]})
        result["binding_sites"] = tracer.sites
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "query"],
                       "spans": tracer.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
