"""Seeded query lists drawn from the catalog of checked queries.

``catalog.json`` (written by ``make_catalog.py``) holds, per workload, strata
of queries whose answers were cross-checked when the catalog was made.  A
plan fixes how many queries each stratum contributes per ``NOMINAL_SECONDS``
of list time, so every seed gets the same mix of query sizes and differs only
in which queries of a stratum run, and in what order.  The list does not
depend on how fast the program is, so two versions of the program answer
the same queries for the same seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOG = Path(__file__).resolve().parent / "catalog.json"

NOMINAL_SECONDS = 8
ALL = "all"  # every query of the stratum, whatever the list length

PLANS = {
    # one stratum per (family, n); its queries run back to back, one per
    # prime.  Two primes at the middle n put the median latency inside that
    # group rather than in the gap between two groups.
    "lattice": {"A18": 1, "A19": 2, "A20": 1, "B17": 1, "B18": 2, "D17": 1, "D18": 2},
    # strata by support size |S|, plus small n and closed-form hits.  The
    # counts of the costliest strata (S17, small-n; exact18; p1e11, p1e10)
    # put the tail sample, the eleventh slowest of three passes, inside one
    # stratum's latencies rather than at the edge between two strata.
    "digits": {"S12": 6, "S13": 5, "S14": 3, "S15": 1, "S16": 1, "S17": 2,
               "small-n": 3, "closed": 6},
    # strata exact<l>: exact ribbon numbers with l parts
    "classes": {"groups": ALL, "subset": 16, "exact12": 1, "exact13": 1, "exact14": 1,
                "exact15": 1, "exact16": 1, "exact17": 1, "exact18": 4,
                "mod": 6, "oracle": ALL},
    # the largest query, API p-vectors by size of n, ribbon_mod_p by size of
    # p, budget-edge refusals, and CLI p-vectors too long to print
    "bignum": {"top": 1, "n1e8": ALL, "n1e7": ALL, "n1e6": ALL, "p1e9": ALL, "p1e10": 5,
               "p1e11": 2, "capacity": ALL, "cli": 10},
}

# Workloads whose strata run back to back, in plan order, as a script
# building a table family by family would; the lru-cached weight tables
# that stay alive then depend on the plan, not on the seed.
GROUPED = {"lattice"}
# A stratum that runs first, on a fresh heap, so that the peak RSS it sets
# does not depend on what ran before it.
LEADING = {"bignum": "top"}


def load_catalog(path: Path = CATALOG) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _count(planned, seconds: float, available: int) -> int:
    if planned == ALL:
        return available
    return min(available, max(1, round(planned * seconds / NOMINAL_SECONDS)))


def sample(catalog: dict, workload: str, seed: int, seconds: float) -> list[dict]:
    """One run's query list, about ``seconds`` long: catalog entries with
    their expected answers."""
    rng = random.Random(f"{workload}:{seed}")
    strata = catalog["workloads"][workload]
    picks = {}
    for name, planned in PLANS[workload].items():
        entries = strata[name]
        picks[name] = rng.sample(entries, _count(planned, seconds, len(entries)))
    if workload in GROUPED:
        return [entry for group in picks.values() for entry in group]
    lead = picks.pop(LEADING[workload]) if workload in LEADING else []
    rest = [entry for group in picks.values() for entry in group]
    rng.shuffle(rest)
    return lead + rest
