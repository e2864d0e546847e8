"""Spans and counters around ribbonmod's public functions, from outside.

``Tracer.install()`` wraps each function named below at *every* binding
site: the defining module, every module that imported the name, and the
package namespace.  The sites are found by identity over ``sys.modules``,
which is also how the ``ribbonmod.cvec`` module is reached, since the
package attribute of that name is the function.  Nothing under ``src/``
changes.

Functions in ``SPANNED`` record one span per call (name, start, end, parent
span, query id), kept in memory and written out at the end.  Functions in
``HOT`` are the leaves called hundreds of thousands of times per run; they
record only a call count and their self time.  ``compositions.from_mask``
records a count only.  A function's self time is its duration minus the
time its wrapped callees took, whether those are spanned or hot.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANNED = {
    "cli.main": ("ribbonmod.cli", "main"),
    "cvec.dispatch": ("ribbonmod.cvec", "cvec"),
    "cvec.closed_form": ("ribbonmod.cvec", "cvec_closed_form"),
    "cvec.theorem": ("ribbonmod.cvec", "cvec_theorem"),
    "cvec.naive": ("ribbonmod.cvec", "cvec_naive"),
    "cvec.support_set": ("ribbonmod.cvec", "support_set"),
    "coxeter.descent_class_sizes": ("ribbonmod.coxeter", "descent_class_sizes"),
    "coxeter.ribbon_general": ("ribbonmod.coxeter", "ribbon_general"),
    "ribbon.exact": ("ribbonmod.ribbon", "ribbon_exact"),
    "ribbon.mod_p": ("ribbonmod.ribbon", "ribbon_mod_p"),
    "ribbon.oracle": ("ribbonmod.ribbon", "oracle_descent_class_sizes"),
}

HOT = {
    "ribbon.term_mod_p": ("ribbonmod.ribbon", "term_mod_p"),
    "arith.multinomial_exact": ("ribbonmod.arith", "multinomial_exact"),
    "arith.check_prime": ("ribbonmod.arith", "check_prime"),
    "arith.base_p_digits": ("ribbonmod.arith", "base_p_digits"),
    "coxeter.parabolic_order": ("ribbonmod.coxeter", "parabolic_order"),
    "coxeter.classify_components": ("ribbonmod.coxeter", "classify_components"),
}

# Per-layer metrics, in the order they are reported: (name, unit).
LAYER_METRICS = [
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cvec.calls", "count"),
    ("cvec.result_bits", "bits"),
    ("cvec.fallback_ratio", "1"),
    ("cvec.support_set.calls", "count"),
    ("cvec.support_size_max", "count"),
    ("cvec.theorem.self_s", "s"),
    ("cvec.theorem.subsets", "count"),
    ("cvec.theorem.subsets_per_s", "1/s"),
    ("cvec.naive.self_s", "s"),
    ("cvec.naive.indices", "count"),
    ("cvec.naive.indices_per_s", "1/s"),
    ("cvec.closed_form.self_s", "s"),
    ("cvec.closed_form.hit_ratio", "1"),
    ("ribbon.term_mod_p.calls", "count"),
    ("ribbon.term_mod_p.self_s", "s"),
    ("ribbon.term_mod_p.nonzero_ratio", "1"),
    ("ribbon.exact.self_s", "s"),
    ("ribbon.exact.terms", "count"),
    ("ribbon.mod_p.self_s", "s"),
    ("ribbon.oracle.self_s", "s"),
    ("ribbon.oracle.elements", "count"),
    ("compositions.from_mask.calls", "count"),
    ("arith.multinomial_exact.calls", "count"),
    ("arith.multinomial_exact.self_s", "s"),
    ("arith.check_prime.calls", "count"),
    ("arith.check_prime.self_s", "s"),
    ("arith.base_p_digits.calls", "count"),
    ("arith.base_p_digits.self_s", "s"),
    ("coxeter.descent_class_sizes.self_s", "s"),
    ("coxeter.ie_terms", "count"),
    ("coxeter.parabolic_order.calls", "count"),
    ("coxeter.parabolic_order.self_s", "s"),
    ("coxeter.classify_components.self_s", "s"),
    ("coxeter.ribbon_general.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ribbonmod" or name.startswith("ribbonmod."))]


def _rebind(original, replacement) -> list[str]:
    """Point every ribbonmod binding of ``original`` at ``replacement``."""
    sites = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append(f"{mod.__name__}.{attr}")
    return sites


class Tracer:
    """Records spans and per-function counters for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, query id)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.sites: dict[str, list[str]] = {}
        self.query_id = None
        self._frames = [[0.0]]  # child time of each open call; the root is a sentinel
        self._span = (None, None)  # (id, name) of the innermost open span
        self._dispatch_auto = False
        self._swept = None  # support size of the theorem sweep in progress

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for table, spanned in ((SPANNED, True), (HOT, False)):
            for name, (module, attr) in table.items():
                original = getattr(sys.modules[module], attr)
                wrapper = self._timed(name, original, spanned)
                self.sites[name] = _rebind(original, wrapper)
        comp = sys.modules["ribbonmod.compositions"]._MaskBacked
        from_mask = comp.__dict__["from_mask"].__func__
        counters = self.counters

        def counted_from_mask(cls, n, mask):
            counters["from_mask"] += 1
            return from_mask(cls, n, mask)

        comp.from_mask = classmethod(counted_from_mask)
        self.sites["compositions.from_mask"] = ["ribbonmod.compositions._MaskBacked.from_mask"]

    def _timed(self, name, fn, spanned):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        frames, clock = self._frames, time.perf_counter
        calls, self_s, total_s, spans = self.calls, self.self_s, self.total_s, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            frames.append(frame)
            if spanned:
                outer = self._span
                span_id = len(spans)
                spans.append(None)  # reserved, filled when the call ends
                self._span = (span_id, name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                frames[-1][0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if spanned:
                    self._span = outer
                    spans[span_id] = (span_id, name, start, end, outer[0], self.query_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function counters (looked up by name in _timed) ---------------

    def _before_cvec_dispatch(self, args, kwargs):
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        self._dispatch_auto = method == "auto"
        self.counters["auto"] += self._dispatch_auto

    def _after_cvec_dispatch(self, args, kwargs, vec):
        self.counters["result_bits"] += sum(c.bit_length() for c in vec.counts)

    def _before_cvec_naive(self, args, kwargs):
        # the dispatcher reaching the naive route under ``auto`` is a fallback
        if self._span[1] == "cvec.dispatch" and self._dispatch_auto:
            self.counters["fallbacks"] += 1

    def _after_cvec_naive(self, args, kwargs, vec):
        self.counters["naive_indices"] += 1 << (vec.n - 1 if vec.family == "A" else vec.n)

    def _after_cvec_closed_form(self, args, kwargs, vec):
        self.counters["closed_hits"] += vec is not None

    def _before_cvec_theorem(self, args, kwargs):
        self._swept = None

    def _after_cvec_support_set(self, args, kwargs, support):
        if self._span[1] == "cvec.theorem":
            self._swept = len(support)

    def _after_cvec_theorem(self, args, kwargs, vec):
        # counted only when the sweep ran: a support past the budget is refused
        if self._swept is not None:
            self.counters["support_max"] = max(self.counters["support_max"], self._swept)
            self.counters["subsets"] += 1 << self._swept

    def _after_ribbon_term_mod_p(self, args, kwargs, value):
        self.counters["nonzero_terms"] += value != 0

    def _before_ribbon_exact(self, args, kwargs):
        self.counters["exact_terms"] += 1 << (len(args[1]) - 1)

    def _after_ribbon_oracle(self, args, kwargs, classes):
        self.counters["oracle_elements"] += sum(classes.values())

    def _before_coxeter_descent_class_sizes(self, args, kwargs):
        self.counters["ie_terms"] += 3 ** args[0].rank()

    def _before_coxeter_ribbon_general(self, args, kwargs):
        self.counters["ie_terms"] += 1 << len(set(args[1]))

    # -- reporting ---------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict[str, float]:
        c, calls, self_s, total_s = self.counters, self.calls, self.self_s, self.total_s

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cli.output_bytes": output_bytes,
            "cvec.calls": calls["cvec.dispatch"],
            "cvec.result_bits": c["result_bits"],
            "cvec.fallback_ratio": ratio(c["fallbacks"], c["auto"]),
            "cvec.support_set.calls": calls["cvec.support_set"],
            "cvec.support_size_max": c["support_max"],
            "cvec.theorem.subsets": c["subsets"],
            "cvec.theorem.subsets_per_s": ratio(c["subsets"], total_s["cvec.theorem"]),
            "cvec.naive.indices": c["naive_indices"],
            "cvec.naive.indices_per_s": ratio(c["naive_indices"], total_s["cvec.naive"]),
            "cvec.closed_form.hit_ratio": ratio(c["closed_hits"], calls["cvec.closed_form"]),
            "ribbon.term_mod_p.nonzero_ratio": ratio(c["nonzero_terms"], calls["ribbon.term_mod_p"]),
            "ribbon.exact.terms": c["exact_terms"],
            "ribbon.oracle.elements": c["oracle_elements"],
            "compositions.from_mask.calls": c["from_mask"],
            "coxeter.ie_terms": c["ie_terms"],
        }
        for name, _ in LAYER_METRICS:
            if name in out or name == "trace.overhead_s":
                continue
            func, stat = name.rsplit(".", 1)
            out[name] = self_s[func] if stat == "self_s" else calls[func]
        return out
