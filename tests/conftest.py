"""Fixed hypothesis draws: every ``@given`` test draws the same examples on
every run, and no example database is read or written.  ``traced_peak`` is
the one ``tracemalloc`` reading of the bounded-memory tests,
``inverse_zeta_packed`` the packed output of the kernel tests,
``indices`` the walk over every index of one n, ``coarsenings`` the walk
over the coarsenings of one index, and ``readme_budget_rows`` the one
reader of README's budget table."""

import re
import tracemalloc
from itertools import repeat
from pathlib import Path

from hypothesis import settings

from ribbonmod.arith import _butterfly, _fields, _planes

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


def traced_peak(call):
    """``(call(), peak)``: the result of ``call()`` and the peak of the
    memory traced while it ran, in bytes.  Only what ``call`` allocates is
    traced, so build its arguments first."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def inverse_zeta_packed(fields, m):
    """The output fields of the bit-plane kernel (arith's planes, butterfly
    and fields) on ``fields``: a ``field_buffer``, an unsigned ``array``
    whose items fit m, or bytes of little-endian ``field_width(m)``-byte
    fields.  A view of them in the input's item format, beside
    ``inverse_zeta_tally``."""
    planes, size, width, big = _planes(fields, m)
    _butterfly(planes, m, size)
    return memoryview(_fields(planes, size, width, big)).cast(memoryview(fields).format)


def indices(cls, n):
    """Every index of n of the class ``cls`` (``Composition`` or
    ``PseudoComposition``), in ascending descent-mask order."""
    return map(cls.from_mask, repeat(n), range(1 << (n - cls.offset)))


def coarsenings(alpha):
    """Every index of alpha's kind whose descent set is a subset of
    alpha's, in ascending submask order."""
    sub = 0
    while True:
        yield type(alpha).from_mask(alpha.n, sub)
        if sub == alpha.mask:
            return
        sub = (sub - alpha.mask) & alpha.mask


def readme_budget_rows():
    """The rows of README's budget table, each the list of its four cells
    (budget, constant, at the edge, in CI), stripped; an escaped ``\\|``
    stays inside its cell."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| budget | constant | at the edge | in CI |\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line) for line in table.splitlines()[1:]]
    assert rows and all(len(row) == 6 and row[0] == row[-1] == "" for row in rows)
    return [[cell.strip() for cell in row[1:-1]] for row in rows]
