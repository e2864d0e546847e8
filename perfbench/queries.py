"""Run one benchmark query against ribbonmod and reduce its answer to a digest.

A query is a JSON object.  ``{"kind": "cli", "argv": [...]}`` goes through
``ribbonmod.cli.main(argv)`` in-process with stdout captured;
``{"kind": "api", "func": name, "args": [...]}`` calls a public function of
the package.  ``check`` says how to read the answer:

  * ``cvec``      -- a p-vector; counts must sum to 2^(n-1) (A) or 2^n (B, D);
  * ``multiset``  -- ``coxeter --group`` classes; sizes must sum to |W|;
  * ``value``     -- one integer, bounded by ``check["max"]``;
  * ``oracle``    -- a {descent set: size} dict; sizes must sum to |W|.

Every answer is reduced in the process that computed it, so huge integers
never leave it.  An integer above 64 bits becomes ``[bits, top64, low64]``:
shifts and masks with small results, never a second integer of the same
size.  The sum invariant of huge vectors is checked modulo a prime below
2^30, which CPython divides by in one linear pass without allocating.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

MASK64 = (1 << 64) - 1
# A prime below 2**30, so ``x % CHECK_PRIME`` takes the single-digit path.
CHECK_PRIME = 1073741789
# Stay below the interpreter's default 4300-digit int<->str limit.
DECIMAL_CHUNK = 4000


def int_digest(x: int):
    """x itself when it fits in 64 bits, else [bit length, top 64 bits, low 64 bits]."""
    if 0 <= x <= MASK64:
        return x
    bits = x.bit_length()
    return [bits, x >> (bits - 64), x & MASK64]


def parse_decimal(text: str) -> int:
    """Exact int of a decimal string of any length, converted in chunks
    below the int<->str digit limit (which this module never changes)."""
    if len(text) <= DECIMAL_CHUNK:
        return int(text)
    half = len(text) // 2
    return parse_decimal(text[:half]) * 10 ** (len(text) - half) + parse_decimal(text[half:])


def structure_digest(obj) -> str:
    """SHA-256 of the canonical JSON text of a small structure."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sum_is_power_of_two(counts, exponent: int) -> bool:
    return sum(c % CHECK_PRIME for c in counts) % CHECK_PRIME == pow(2, exponent, CHECK_PRIME)


def digest_answer(check: dict, answer):
    """(digest, invariant_holds) of an answer already parsed into Python values."""
    kind = check["type"]
    if kind == "cvec":
        exponent = check["n"] - 1 if check["family"] == "A" else check["n"]
        ok = len(answer) == check["p"] and _sum_is_power_of_two(answer, exponent)
        return [int_digest(c) for c in answer], ok
    if kind == "multiset":
        ok = (
            sum(size * mult for size, mult in answer) == check["order"]
            and sum(mult for _, mult in answer) == 1 << check["rank"]
        )
        return structure_digest(answer), ok
    if kind == "value":
        return int_digest(answer), 0 <= answer <= check["max"]
    if kind == "oracle":
        ok = sum(size for _, size in answer) == check["order"] and len(answer) == check["classes"]
        return structure_digest(answer), ok
    raise ValueError(f"unknown check type {kind!r}")


def _parse_cli_output(check: dict, text: str):
    record = json.loads(text)
    kind = check["type"]
    if kind == "cvec":
        return [parse_decimal(c) for c in record["vector"]]
    if kind == "multiset":
        return [list(pair) for pair in record["classes"]]
    return parse_decimal(record["value"])


def _api_answer(check: dict, result):
    if check["type"] == "cvec":
        return result.counts
    if check["type"] == "oracle":
        return sorted([d.mask, size] for d, size in result.items())
    return result


def _api_call(package, query: dict):
    """The callable and its arguments, with any index object built up front."""
    func = getattr(package, query["func"])
    args = list(query["args"])
    if query["func"] == "ribbon_mod_p":
        family, parts, p = args
        cls = package.Composition if family == "A" else package.PseudoComposition
        args = [family, cls(parts), p]
    return func, args


def execute(package, cli, query: dict) -> dict:
    """Run one query and return its outcome record.

    ``latency_s`` covers only the call into the program (and, for the CLI,
    its captured printing); parsing and digesting come after the clock
    stops.  ``outcome`` is ``ok`` or ``exit:<code>`` for an answer, or
    ``raised:<exception class>``.
    """
    check = query["check"]
    if query["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(query["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI would exit with a traceback
            latency = time.perf_counter() - start
            return {"latency_s": latency, "outcome": f"raised:{type(exc).__name__}", "bytes": 0}
        latency = time.perf_counter() - start
        text = out.getvalue()
        record = {"latency_s": latency, "outcome": f"exit:{code}", "bytes": len(text.encode())}
        if code == 0:
            record["digest"], record["invariant"] = digest_answer(check, _parse_cli_output(check, text))
        return record
    func, args = _api_call(package, query)
    start = time.perf_counter()
    try:
        result = func(*args)
    except Exception as exc:
        return {"latency_s": time.perf_counter() - start, "outcome": f"raised:{type(exc).__name__}", "bytes": 0}
    latency = time.perf_counter() - start
    digest, invariant = digest_answer(check, _api_answer(check, result))
    del result
    return {"latency_s": latency, "outcome": "ok", "bytes": 0, "digest": digest, "invariant": invariant}
