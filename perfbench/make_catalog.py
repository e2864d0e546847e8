"""Write ``catalog.json``: every query a benchmark run can draw, with its
expected answer, cross-checked by a second route where one exists.

    python3 perfbench/make_catalog.py [workload ...]   # from the repository root

Each expected answer comes from running the query itself against the
program in ``src/``.  It is then compared with an independent computation:

  * lattice (naive route): the theorem route;
  * digits: naive for small n, the theorem route for closed-form hits, and
    for n >= 30 (beyond the naive budget) only the sum invariant;
  * classes: the bundled exceptional multisets, exact ribbon numbers for the
    A/B/D multisets and subsets, the determinant (type A) or ribbon numbers
    mod small primes (types B, D) for exact values, the exact value for
    ``--mod``, and the exact values for the oracle;
  * bignum: the theorem route against closed forms, the exact value mod p
    for huge p, and both routes refusing for the budget-edge queries.

A mismatch aborts.  Each entry also records its cost as measured here, which
is used only to keep the strata narrow; run lengths come from the plans in
``workloads.py``.  Regenerate the catalog only together with a change to
the benchmark, never in a change that claims a speed-up.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ribbonmod  # noqa: E402
import ribbonmod.cli as cli  # noqa: E402
from ribbonmod.arith import is_prime  # noqa: E402

from queries import digest_answer, execute, int_digest  # noqa: E402

cvec_module = sys.modules["ribbonmod.cvec"]

EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "H3": 120, "H4": 14400}
LATTICE_PRIMES = (2, 3, 5, 7, 11, 13)
DIGIT_PRIMES = (3, 5, 7, 11, 13)


class Mismatch(AssertionError):
    pass


def expect_equal(got, want, what):
    if got != want:
        raise Mismatch(f"{what}: {got!r} != {want!r}")


def family_order(family: str, n: int) -> int:
    """|W| of the group whose descent classes the family-n ribbon numbers count."""
    if family == "A":
        return factorial(n)
    return factorial(n) << (n if family == "B" else n - 1)


def coxeter_order(label: str) -> tuple[int, int]:
    """(|W|, rank) of a builtin diagram label."""
    fam, rank = label[0], int(label[1:])
    if fam == "A":
        return factorial(rank + 1), rank
    if fam in "BD":
        return family_order(fam, rank), rank
    return EXCEPTIONAL_ORDERS[label], rank


def cvec_query(family, n, p, method=None, kind="cli"):
    check = {"type": "cvec", "family": family, "n": n, "p": p}
    if kind == "api":
        return {"kind": "api", "func": "cvec", "args": [family, n, p], "check": check}
    argv = ["cvec", "--family", family, "--n", str(n), "--p", str(p)]
    if method:
        argv += ["--method", method]
    return {"kind": "cli", "argv": argv + ["--format", "json"], "check": check}


def run_entry(ident, query, cross_check, repeats=3):
    """Execute the query ``repeats`` times and turn the outcome into a catalog
    entry; its cost is the fastest run, the one least disturbed by whatever
    else shares the machine."""
    records = [execute(ribbonmod, cli, query) for _ in range(repeats)]
    record = records[0]
    if record.get("invariant") is False:
        raise Mismatch(f"{ident}: invariant fails on the program's own answer")
    for other in records[1:]:
        expect_equal((other["outcome"], other.get("digest")), (record["outcome"], record.get("digest")),
                     f"{ident}: repeated run")
    expect = {"outcome": record["outcome"]}
    if "digest" in record:
        expect["digest"] = record["digest"]
    return {"id": ident, "query": query, "expect": expect,
            "cost_s": round(min(r["latency_s"] for r in records), 4), "cross_check": cross_check}


def vector_digest(family, n, p, counts):
    return digest_answer({"type": "cvec", "family": family, "n": n, "p": p}, counts)[0]


def narrow(entries, keep, spread=0.15):
    """Up to ``keep`` entries whose cost lies within ``spread`` of the median."""
    costs = sorted(e["cost_s"] for e in entries)
    mid = costs[len(costs) // 2]
    close = [e for e in entries if abs(e["cost_s"] - mid) <= spread * mid]
    return sorted(close, key=lambda e: abs(e["cost_s"] - mid))[:keep]


def narrow_by_cell(entries, keep, rng, spread=0.2):
    """Up to ``keep`` entries within ``spread`` of the median cost, taken in
    turn from each (family, p) cell, so that every family and prime with a
    query of typical cost stays in the stratum."""
    costs = sorted(e["cost_s"] for e in entries)
    mid = costs[len(costs) // 2]
    cells = {}
    for e in entries:
        if abs(e["cost_s"] - mid) <= spread * mid:
            argv = e["query"]["argv"]
            cell = (argv[argv.index("--family") + 1], argv[argv.index("--p") + 1])
            cells.setdefault(cell, []).append(e)
    order = sorted(cells)
    rng.shuffle(order)
    ranked = [sorted(cells[key], key=lambda e: abs(e["cost_s"] - mid)) for key in order]
    picked = []
    for depth in range(keep):
        picked += [cell[depth] for cell in ranked if depth < len(cell)]
    return picked[:keep]


# ---------------------------------------------------------------------------
# lattice


def lattice(rng):
    strata = {}
    for family, ns in (("A", (18, 19, 20)), ("B", (17, 18)), ("D", (17, 18))):
        for n in ns:
            entries = []
            for p in LATTICE_PRIMES:
                cvec_module._exact_weight_table.cache_clear()
                entry = run_entry(f"lattice/{family}{n}/p{p}", cvec_query(family, n, p, "naive"), "theorem",
                                  repeats=1)
                reference = ribbonmod.cvec(family, n, p, method="theorem").counts
                expect_equal(entry["expect"]["digest"], vector_digest(family, n, p, reference), entry["id"])
                entries.append(entry)
            strata[f"{family}{n}"] = entries
    return strata


# ---------------------------------------------------------------------------
# digits


def _support_size(family, n, p):
    prod = 1
    for d in ribbonmod.base_p_digits(n, p):
        prod *= d + 1
    if prod > 64:
        return None
    return len(ribbonmod.support_set(family, n, p))


def digits(rng):
    pools = {f"S{k}": [] for k in range(12, 18)}
    pools["small-n"], pools["closed"] = [], []
    for family in "ABD":
        for p in DIGIT_PRIMES:
            for n in list(range(17, 22)) + list(range(30, 2001)):
                nonzero = sum(1 for d in ribbonmod.base_p_digits(n, p) if d)
                if nonzero <= 4 and n >= 30 and ribbonmod.cvec_closed_form(family, n, p) is not None:
                    pools["closed"].append((family, n, p))
                    continue
                if n < 30 and ribbonmod.cvec_closed_form(family, n, p) is not None:
                    continue
                size = _support_size(family, n, p)
                if n < 30 and size in (16, 17):
                    pools["small-n"].append((family, n, p))
                elif n >= 30 and size is not None and 12 <= size <= 17:
                    pools[f"S{size}"].append((family, n, p))
    strata = {}
    for name, pool in pools.items():
        if name.startswith("S"):
            # up to three per (family, p), so that every family and prime
            # with this support size can be drawn
            cells = {}
            for family, n, p in pool:
                cells.setdefault((family, p), []).append((family, n, p))
            chosen = [q for cell in cells.values() for q in rng.sample(cell, min(len(cell), 3))]
        else:
            chosen = rng.sample(pool, min(len(pool), 24))
        entries = []
        for family, n, p in chosen:
            ident = f"digits/{name}/{family}{n}/p{p}"
            route = {"small-n": "naive", "closed": "theorem"}.get(name)
            entry = run_entry(ident, cvec_query(family, n, p), route)
            if route is not None:
                reference = ribbonmod.cvec(family, n, p, method=route).counts
                expect_equal(entry["expect"]["digest"], vector_digest(family, n, p, reference), ident)
            entries.append(entry)
        if name == "closed":
            # closed forms range from table lookups to chain sweeps; keep them all
            strata[name] = entries
        elif name == "small-n":
            strata[name] = narrow(entries, 12)
        else:
            strata[name] = narrow_by_cell(entries, 12, rng)
    return strata


# ---------------------------------------------------------------------------
# classes


def _index(family, parts):
    cls = ribbonmod.Composition if family == "A" else ribbonmod.PseudoComposition
    return cls(parts)


def _multiset(sizes):
    return sorted([size, mult] for size, mult in Counter(sizes).items())


def _ribbon_multiset(label):
    fam, rank = label[0], int(label[1:])
    if fam == "A":
        return _multiset(ribbonmod.ribbon_exact("A", alpha)
                         for alpha in ribbonmod.enumerate_compositions(rank + 1))
    return _multiset(ribbonmod.ribbon_exact(fam, alpha)
                     for alpha in ribbonmod.enumerate_pseudo_compositions(rank))


def _general_multiset(label):
    diagram = ribbonmod.builtin_diagram(label)
    gens = diagram.generators
    return _multiset(ribbonmod.ribbon_general(diagram, [g for i, g in enumerate(gens) if mask >> i & 1])
                     for mask in range(1 << len(gens)))


def _subset_reference(label, subset):
    fam, rank = label[0], int(label[1:])
    if fam in "ABD":
        lo = 1 if fam == "A" else 0
        mask = sum(1 << (g - lo) for g in subset)
        if fam == "A":
            return ribbonmod.ribbon_exact("A", ribbonmod.Composition.from_mask(rank + 1, mask))
        return ribbonmod.ribbon_exact(fam, ribbonmod.PseudoComposition.from_mask(rank, mask))
    sizes = ribbonmod.descent_class_sizes(ribbonmod.builtin_diagram(label))
    return sizes[frozenset(subset)]


def _random_parts(rng, family, length):
    parts = [rng.randint(1, 3) for _ in range(length)]
    if family != "A":
        parts[0] = rng.randint(0, 3)
    return parts


def classes(rng):
    strata = {}
    golden = {k: _multiset(v.elements()) for k, v in cli.golden_multisets().items()}
    labels = ["A9", "A10", "A11", "A12", "B9", "B10", "B11", "D9", "D10", "D11",
              "E6", "E7", "E8", "F4", "H3", "H4"]
    entries = []
    for label in labels:
        order, rank = coxeter_order(label)
        query = {"kind": "cli", "argv": ["coxeter", "--group", label, "--format", "json"],
                 "check": {"type": "multiset", "order": order, "rank": rank}}
        if label in golden:
            route, reference = "golden", golden[label]
        elif label[0] in "ABD":
            route, reference = "ribbon_exact", _ribbon_multiset(label)
        else:
            route, reference = "ribbon_general", _general_multiset(label)
        entry = run_entry(f"classes/group/{label}", query, route)
        expect_equal(entry["expect"]["digest"], digest_answer(query["check"], reference)[0], entry["id"])
        entries.append(entry)
    strata["groups"] = entries

    entries = []
    for label in labels[:-2]:
        order, rank = coxeter_order(label)
        gens = list(ribbonmod.builtin_diagram(label).generators)
        for _ in range(2):
            subset = sorted(rng.sample(gens, min(rank, rng.randint(6, 9))))
            query = {"kind": "cli",
                     "argv": ["coxeter", "--group", label, "--subset", ",".join(map(str, subset)),
                              "--format", "json"],
                     "check": {"type": "value", "max": order}}
            ident = f"classes/subset/{label}/{'-'.join(map(str, subset))}"
            entry = run_entry(ident, query, "ribbon_exact" if label[0] in "ABD" else "descent_class_sizes")
            expect_equal(entry["expect"]["digest"], int_digest(_subset_reference(label, subset)), ident)
            entries.append(entry)
    strata["subset"] = entries

    for length in range(12, 19):
        entries = []
        for family in "ABD":
            for _ in range(4):
                parts = _random_parts(rng, family, length)
                alpha = _index(family, parts)
                query = {"kind": "cli",
                         "argv": ["ribbon", "--family", family, "--alpha", ",".join(map(str, parts)),
                                  "--format", "json"],
                         "check": {"type": "value", "max": family_order(family, alpha.n)}}
                ident = f"classes/exact{length}/{family}/{'-'.join(map(str, parts))}"
                entry = run_entry(ident, query, "ribbon_a_det" if family == "A" else "ribbon_mod_p")
                value = ribbonmod.ribbon_exact(family, alpha)
                if family == "A":
                    expect_equal(ribbonmod.ribbon_a_det(alpha), value, ident)
                else:
                    for q in (5, 7, 11, 13):
                        expect_equal(ribbonmod.ribbon_mod_p(family, alpha, q), value % q, ident)
                expect_equal(entry["expect"]["digest"], int_digest(value), ident)
                entries.append(entry)
        strata[f"exact{length}"] = narrow(entries, 8)

    entries = []
    for family in "ABD":
        for _ in range(5):
            parts = _random_parts(rng, family, 14)
            alpha = _index(family, parts)
            p = next(q for q in range(alpha.n + 1 + rng.randint(0, 30), 10**4) if is_prime(q))
            query = {"kind": "cli",
                     "argv": ["ribbon", "--family", family, "--alpha", ",".join(map(str, parts)),
                              "--mod", str(p), "--format", "json"],
                     "check": {"type": "value", "max": p - 1}}
            ident = f"classes/mod/{family}/{'-'.join(map(str, parts))}/p{p}"
            entry = run_entry(ident, query, "ribbon_exact")
            expect_equal(entry["expect"]["digest"], ribbonmod.ribbon_exact(family, alpha) % p, ident)
            entries.append(entry)
    strata["mod"] = narrow(entries, 12)

    entries = []
    for family, n in (("A", 8), ("B", 6), ("D", 6)):
        query = {"kind": "api", "func": "oracle_descent_class_sizes", "args": [family, n],
                 "check": {"type": "oracle", "order": family_order(family, n),
                           "classes": 1 << (n - 1 if family == "A" else n)}}
        entry = run_entry(f"classes/oracle/{family}{n}", query, "ribbon_exact")
        reference = []
        for descents, _ in ribbonmod.oracle_descent_class_sizes(family, n).items():
            alpha = ribbonmod.from_descent_set(n, descents)
            reference.append([descents.mask, ribbonmod.ribbon_exact(family, alpha)])
        expect_equal(entry["expect"]["digest"], digest_answer(query["check"], sorted(reference))[0],
                     entry["id"])
        entries.append(entry)
    strata["oracle"] = entries
    return strata


# ---------------------------------------------------------------------------
# bignum


def _shapes(p, low, high):
    """(n, shape) pairs with low <= n < high: closed-form digit patterns and
    small-support patterns that only the theorem route answers."""
    out = []
    for d in range(1, 64):
        for m in range(1, p):
            out.append((m * p**d, "m*p^d"))
        for e in range(d):
            out.append((p**d + p**e, "p^a+p^b"))
            out.append((2 * p**d + p**e, "2p^d+p^e"))
            for f in range(e):
                out.append((p**d + p**e + p**f, "p^a+p^b+p^c"))
                out.append((p**d + 2 * p**e + p**f, "small-support"))
    return [(n, shape) for n, shape in out if low <= n < high]


def _cvec_entry(ident, family, n, p, kind, rng_shape):
    query = cvec_query(family, n, p, kind=kind)
    if kind == "cli":
        # the expected answer is the vector itself, computed in-process,
        # because the CLI cannot print it under the int->str digit limit
        entry = run_entry(ident, query, None)
        vec = ribbonmod.cvec(family, n, p)
        entry["expect"] = {"outcome": "exit:0", "digest": vector_digest(family, n, p, vec.counts)}
    else:
        entry = run_entry(ident, query, None)
        vec = ribbonmod.cvec(family, n, p)
    if vec.method.startswith("closed-form"):
        entry["cross_check"] = "theorem"
        reference = ribbonmod.cvec(family, n, p, method="theorem").counts
        expect_equal(vector_digest(family, n, p, reference), entry["expect"]["digest"], ident)
    entry["shape"] = rng_shape
    return entry


def _api_cvec_stratum(rng, name, low, high, keep):
    pool = []
    for p in (3, 5, 7):
        pool.extend((family, n, p, shape) for n, shape in _shapes(p, low, high) for family in "ABD")
    entries = []
    for family, n, p, shape in rng.sample(pool, min(keep, len(pool))):
        entries.append(_cvec_entry(f"bignum/{name}/{family}{n}/p{p}", family, n, p, "api", shape))
    return entries


def _next_prime(x):
    while not is_prime(x):
        x += 1
    return x


def bignum(rng):
    strata = {}
    # the largest query of every run: two huge counts of about 1.16e9 bits each
    strata["top"] = [_cvec_entry(f"bignum/top/{family}{3**19}/p3", family, 3**19, 3, "api", "m*p^d")
                     for family in "AB"]
    for name, low, high in (("n1e8", 10**8, 2 * 10**8), ("n1e7", 10**7, 2 * 10**7),
                            ("n1e6", 10**6, 2 * 10**6)):
        strata[name] = _api_cvec_stratum(rng, name, low, high, 10)
    for name, center in (("p1e9", 10**9), ("p1e10", 10**10), ("p1e11", 10**11)):
        entries = []
        for j in range(12):
            p = _next_prime(center + j * center // 100)
            family = "ABD"[j % 3]
            parts = [rng.randint(1, 9) for _ in range(12)]
            query = {"kind": "api", "func": "ribbon_mod_p", "args": [family, parts, p],
                     "check": {"type": "value", "max": p - 1}}
            ident = f"bignum/{name}/{family}/{'-'.join(map(str, parts))}/p{p}"
            entry = run_entry(ident, query, "ribbon_exact")
            exact = ribbonmod.ribbon_exact(family, _index(family, parts))
            expect_equal(entry["expect"]["digest"], exact % p, ident)
            entries.append(entry)
        strata[name] = narrow(entries, 9)
    entries = []
    for p, digits_count in ((11, 5), (13, 5), (13, 6)):
        n = p**digits_count - 1  # every digit is p-1: support far past the budget
        for family in "ABD":
            query = cvec_query(family, n, p, kind="api")
            ident = f"bignum/capacity/{family}{n}/p{p}"
            entry = run_entry(ident, query, "theorem+naive")
            expect_equal(entry["expect"]["outcome"], "raised:CapacityError", ident)
            for method in ("theorem", "naive"):
                try:
                    ribbonmod.cvec(family, n, p, method=method)
                except ribbonmod.CapacityError:
                    continue
                raise Mismatch(f"{ident}: method {method} did not refuse")
            entries.append(entry)
    strata["capacity"] = entries
    pool = []
    for p in (3, 5, 7):
        pool.extend((family, n, p, shape) for n, shape in _shapes(p, 2 * 10**4, 10**5) for family in "ABD")
    strata["cli"] = [_cvec_entry(f"bignum/cli/{family}{n}/p{p}", family, n, p, "cli", shape)
                     for family, n, p, shape in rng.sample(pool, 16)]
    return strata


def main(argv) -> int:
    """Rebuild the named workloads (all by default), keeping the others."""
    makers = {"lattice": lattice, "digits": digits, "classes": classes, "bignum": bignum}
    path = HERE / "catalog.json"
    catalog = {"program": "ribbonmod " + ribbonmod.__version__, "workloads": {}}
    if argv and path.exists():
        with open(path) as fh:
            catalog["workloads"] = json.load(fh)["workloads"]
    for name in argv or makers:
        # one generator per workload, so rebuilding one leaves the others' draws alone
        catalog["workloads"][name] = makers[name](random.Random(f"catalog:{name}"))
        sizes = {k: len(v) for k, v in catalog["workloads"][name].items()}
        print(f"{name}: {sizes}", file=sys.stderr, flush=True)
        with open(path, "w") as fh:
            json.dump(catalog, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
