"""Every budget's refusal past its edge, in one table.

Each row is one call past one budget of README's budget table, with its
arguments built when the table is, and the exact refusal it must raise:
``CapacityError(budget, needed, cap)``.  One harness checks every row
in process: the exact type, the ints, the ``str()`` and ``repr()`` text
(an int past 128 bits written as its lower bound ``2^(b - 1) or more``),
the faster of two calls under 0.1 s, and under 1 MiB traced; at a row of
``cvec``'s ``auto``, ``cvec_theorem`` raises the same refusal.  A row
marked ``unread`` is refused again with ``cvec``'s digit reader broken,
so no digit of n is read.
The edge of each budget, and one point past it at the command line, are
rows of ``scripts/edges.py``, run out of process under ``RLIMIT_AS``.
"""

import importlib
import time
from collections import namedtuple

import pytest

from conftest import traced_peak
from ribbonmod.arith import MILLER_RABIN_LIMIT, TALLY_MAX_BITS, check_prime, is_prime
from ribbonmod.compositions import (
    COMPLEMENT_MAX_POSITIONS,
    CapacityError,
    Composition,
    PseudoComposition,
)
from ribbonmod.coxeter import (
    DIAGRAM_MAX_RANK,
    SUBSET_MAX_RANK,
    builtin_diagram,
    descent_class_multiset,
    descent_class_sizes,
    residue_histogram,
    ribbon_general,
)
from ribbonmod.cvec import (
    MACDONALD_COST_MAX,
    RESULT_BITS_MAX,
    SUPPORT_N_BITS_MAX,
    SUPPORT_SET_BITS_MAX,
    SWEEP_MAX_BITS,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    support_set,
)
from ribbonmod.ribbon import ORACLE_MAX_N, oracle_descent_class_sizes
from test_surface import _readme_budget_constants

Row = namedtuple("Row", "call args budget needed cap unread", defaults=(False,))

GATE = RESULT_BITS_MAX + TALLY_MAX_BITS + 1  # the largest n of a p-vector
A3, A30, A40 = (builtin_diagram(name) for name in ("A3", "A30", "A40"))


def _past_gate(call, *args):
    # every cvec method refuses an n past GATE by the least bits its largest
    # count could have, n - TALLY_MAX_BITS, before any digit of n is read
    return Row(call, args, "cvec.RESULT_BITS_MAX", args[1] - TALLY_MAX_BITS, RESULT_BITS_MAX, unread=True)


ROWS = [
    # the naive sweep of A n = 40: 39 index bits
    Row(cvec_naive, ("A", 40, 3), "cvec.SWEEP_MAX_BITS", 39, SWEEP_MAX_BITS),
    # a p-entry tally of p = 2^31 - 1 would take gigabytes: every entry
    # refuses the prime by its bits before allocating anything of size p
    *(Row(call, ("A", 7, 2**31 - 1), "arith.TALLY_MAX_BITS", 31, TALLY_MAX_BITS)
      for call in (cvec, cvec_naive, cvec_theorem, cvec_closed_form)),
    Row(residue_histogram, (A3, 2**31 - 1), "arith.TALLY_MAX_BITS", 31, TALLY_MAX_BITS),
    # n = 3^13 - 1 has thirteen digits 2: a support of 3^13 - 2 positions
    # (type D adjoins 1), whose 1.6 million sums would take over 100 MB,
    # read off the digits; auto raises the theorem route's refusal.  One
    # past the edge, B n = 62 = (6, 1, 1) in base 7 has a support of
    # 7 * 2 * 2 - 1 = 27 positions, and is its own n*
    Row(cvec, ("A", 3**13 - 1, 3), "cvec.SWEEP_MAX_BITS", 3**13 - 2, SWEEP_MAX_BITS),
    Row(cvec, ("B", 62, 7), "cvec.SWEEP_MAX_BITS", 27, SWEEP_MAX_BITS),
    Row(cvec_theorem, ("A", 3**13 - 1, 3), "cvec.SWEEP_MAX_BITS", 3**13 - 2, SWEEP_MAX_BITS),
    Row(cvec_theorem, ("D", 3**13 - 1, 3), "cvec.SWEEP_MAX_BITS", 3**13 - 1, SWEEP_MAX_BITS),
    Row(cvec_theorem, ("B", 62, 7), "cvec.SWEEP_MAX_BITS", 27, SWEEP_MAX_BITS),
    # support_set's own budget, in positions times the bits of n: 3^15 - 1
    # positions of 24 bits, and for 18 and 22 digits 1, 1500 places apart
    # at p = 3, 2^18 - 2 and 2^22 - 2 positions of about 40,000 and 50,000
    # bits (the first ended in MemoryError under a 600 MB cap when the
    # budget counted positions alone)
    Row(support_set, ("B", 3**15 - 1, 3), "cvec.SUPPORT_SET_BITS_MAX", (3**15 - 1) * 24, SUPPORT_SET_BITS_MAX),
    *(Row(support_set, ("A", n, 3), "cvec.SUPPORT_SET_BITS_MAX", (2**places - 2) * n.bit_length(), SUPPORT_SET_BITS_MAX)
      for places in (18, 22) for n in [sum(3 ** (1500 * j) for j in range(places))]),
    # support_set's gate on n, one bit past it and far past it
    *(Row(support_set, (family, n, 3), "cvec.SUPPORT_N_BITS_MAX", n.bit_length(), SUPPORT_N_BITS_MAX, unread=True)
      for n in (1 << SUPPORT_N_BITS_MAX, 1 << 10**7) for family in "ABD"),
    # results past the bit budget, before any count is shifted, by auto and
    # by the route that answers: past the gate on n, A n = 2^40 at p = 2
    # (one count of 2^40 bits), D n = 7^12 + 7^5 + 3 at p = 7 and the parity
    # answers of B and D at 2^40; under it _spread refuses A n = 2^32 + 16
    # at p = 2 (two equal counts of 2^32 + 15 bits), D n = 7^11 + 7^5 + 3 at
    # p = 7 (four of about 2 * 10^9, by auto and by the theorem route) and
    # the parity answers of n = 2^32 + 1
    *(_past_gate(call, family, n, p) for call, family, n, p in (
        (cvec, "A", 2**40, 2), (cvec_closed_form, "A", 2**40, 2), (cvec, "D", 7**12 + 7**5 + 3, 7),
        (cvec_theorem, "D", 7**12 + 7**5 + 3, 7), (cvec_theorem, "B", 2**40, 2), (cvec_closed_form, "D", 2**40, 2))),
    *(Row(call, (family, 2**32 + 16, 2), "cvec.RESULT_BITS_MAX", 2**32 + 15, RESULT_BITS_MAX)
      for call, family in ((cvec, "A"), (cvec_closed_form, "A"))),
    Row(cvec, ("D", 7**11 + 7**5 + 3, 7), "cvec.RESULT_BITS_MAX", 7909374204, RESULT_BITS_MAX),
    Row(cvec_theorem, ("D", 7**11 + 7**5 + 3, 7), "cvec.RESULT_BITS_MAX", 7909374204, RESULT_BITS_MAX),
    *(Row(call, (family, 2**32 + 1, 2), "cvec.RESULT_BITS_MAX", 2**32 + 2, RESULT_BITS_MAX)
      for call, family in ((cvec_theorem, "B"), (cvec_closed_form, "D"))),
    # the gate on n, one past it and far past it, by every method; and n
    # past the interpreter's 4300-digit limit
    *(_past_gate(cvec, family, n, 3, method) for n in (GATE + 1, 2**200000) for family in "ABD"
      for method in ("auto", "naive", "theorem", "closed")),
    *(_past_gate(cvec, "A", n, 3) for n in (3**20000 + 1, 2**40000)),
    # macdonald_mp's gate on n: the top digit's coefficient alone has at
    # least bits(n) - bits(p) bits, so (bits(n) - bits(p))^2 // 30 is a
    # floor of its cost
    *(Row(macdonald_mp, (n, p), "cvec.MACDONALD_COST_MAX", (n.bit_length() - p.bit_length()) ** 2 // 30,
          MACDONALD_COST_MAX, unread=True) for n, p in ((1 << 10**7, 3), (3 << 700000, 2))),
    # digit 1000 at p^2 = 1009^2 colours (series of about 20000-bit
    # coefficients, 2.0e10 bit steps) and the 1250 digits 1 of 2^1250 - 1
    # (a product of 2^j for j < 1250, 2.0e10)
    Row(macdonald_mp, (1000 * 1009**2, 1009), "cvec.MACDONALD_COST_MAX", 20013333333, MACDONALD_COST_MAX),
    Row(macdonald_mp, (2**1250 - 1, 2), "cvec.MACDONALD_COST_MAX", 15011433251, MACDONALD_COST_MAX),
    # one digit 2467 below p = 2473, one past the largest lone digit the
    # cost admits (m^3 + m^2 // 30 bit steps), and one digit 10^9 below
    # p = 10^9 + 7, whose series would be 10^9 + 1 ints
    Row(macdonald_mp, (2467, 2473), "cvec.MACDONALD_COST_MAX", 15014584432, MACDONALD_COST_MAX),
    Row(macdonald_mp, (10**9, 10**9 + 7), "cvec.MACDONALD_COST_MAX", 10**27 + 10**18 // 30, MACDONALD_COST_MAX),
    # a prime past the exact Miller-Rabin range, prime or not, and one of
    # 5000 digits
    *(Row(is_prime, (p,), "arith.MILLER_RABIN_LIMIT", p, MILLER_RABIN_LIMIT) for p in (MILLER_RABIN_LIMIT, 2**89 - 1)),
    Row(cvec, ("A", 5, 10**5000 + 1), "arith.MILLER_RABIN_LIMIT", 10**5000 + 1, MILLER_RABIN_LIMIT),
    Row(check_prime, (10**5000 + 1,), "arith.MILLER_RABIN_LIMIT", 10**5000 + 1, MILLER_RABIN_LIMIT),
    # A10^9 would be 10^9 generator ints and edge tuples: the rank is
    # checked as it is parsed, and a rank of more digits than the budget's
    # (5000, past int()'s limit) by its digit count, 10^4999 or more;
    # leading zeros are not digits of it
    *(Row(builtin_diagram, (label,), "coxeter.DIAGRAM_MAX_RANK", rank, DIAGRAM_MAX_RANK) for label, rank in (
        ("A1000000000", 10**9), ("B1000000000", 10**9), ("D1000000000", 10**9),
        (f"A{DIAGRAM_MAX_RANK + 1}", DIAGRAM_MAX_RANK + 1), ("A" + "1" * 5000, 10**4999), ("d" + "1" * 5000, 10**4999),
        ("B" + "0" * 5000 + f"{DIAGRAM_MAX_RANK + 1}", DIAGRAM_MAX_RANK + 1))),
    # 2^30 descent classes, and one class of 20 or 19 generators of A40,
    # with 20 and 21 in its complement
    *(Row(call, args, "coxeter.SUBSET_MAX_RANK", 30, SUBSET_MAX_RANK)
      for call, args in ((descent_class_sizes, (A30,)), (descent_class_multiset, (A30,)), (residue_histogram, (A30, 3)))),
    *(Row(ribbon_general, (A40, A40.generators[:rank]), "coxeter.SUBSET_MAX_RANK", rank, SUBSET_MAX_RANK)
      for rank in (20, SUBSET_MAX_RANK + 1)),
    # the group oracles
    Row(oracle_descent_class_sizes, ("A", 10), "ribbon.ORACLE_MAX_N", 10, ORACLE_MAX_N["A"]),
    Row(oracle_descent_class_sizes, ("B", 8), "ribbon.ORACLE_MAX_N", 8, ORACLE_MAX_N["B"]),
    # the complement of one part of 10^10, read off the positions
    *(Row(type(index).complement, (index,), "compositions.COMPLEMENT_MAX_POSITIONS", 10**10 - 1,
          COMPLEMENT_MAX_POSITIONS) for index in (Composition((10**10, 1)), PseudoComposition((0, 10**10)))),
]


def _text(value):
    return f"2^{value.bit_length() - 1} or more" if value.bit_length() > 128 else str(value)


def _arg_text(value):
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<{value.bit_length()} bits>"
    if isinstance(value, str) and len(value) > 20:
        return f"{value[:12]}...<{len(value)}>"
    if isinstance(value, tuple):
        return f"<{len(value)} generators>"
    return getattr(value, "name", None) or str(value)


def _row_id(row):
    return f"{row.call.__qualname__}({', '.join(map(_arg_text, row.args))})"


def _refused(row):
    with pytest.raises(CapacityError) as excinfo:
        row.call(*row.args)
    return excinfo.value


def _check(refusal, budget, needed, cap):
    # the exact type, ints, message and repr of a refusal
    assert type(refusal) is CapacityError
    assert (refusal.budget, refusal.needed, refusal.cap) == (budget, needed, cap)
    text = f"{budget}: the request needs {_text(needed)}; the budget is {_text(cap)}"
    assert (str(refusal), repr(refusal)) == (text, f"CapacityError({budget!r}, {_text(needed)}, {_text(cap)})")


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_refused_past_the_edge_at_once_in_bounded_memory(row, monkeypatch):
    refusals = []
    if row.unread:
        # first, so that a missing gate fails here rather than reading n
        def unread(n, p):
            raise AssertionError("a digit of n was read")

        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("ribbonmod.cvec"), "base_p_digits", unread)
            refusals.append(_refused(row))
    times = []
    for _ in range(2):  # the faster of two calls, so one slow moment of a busy machine does not fail a row
        started = time.perf_counter()
        refusals.append(_refused(row))
        times.append(time.perf_counter() - started)
    traced, peak = traced_peak(lambda: _refused(row))
    if row.call is cvec and row.args[3:] in ((), ("auto",)):
        # auto answers by the shape rule, else by the theorem route, whose
        # refusal is then auto's
        refusals.append(_refused(row._replace(call=cvec_theorem, args=row.args[:3])))
    for refusal in (*refusals, traced):
        _check(refusal, row.budget, row.needed, row.cap)
    assert min(times) < 0.1 and peak < 1 << 20, (times, peak)


def test_every_budget_of_the_readme_table_has_a_row():
    # the rows' budgets are the constants of README's budget table, both ways
    assert {row.budget for row in ROWS} == _readme_budget_constants()
