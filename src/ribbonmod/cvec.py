"""Dimension p-vectors: how many ribbon numbers fall in each class mod p.

For a family F in {A, B, D}, the vector counts the indices alpha (of the
2^(n-1) compositions in type A, the 2^n pseudo-compositions otherwise)
whose ribbon number is congruent to each residue mod p.  Three methods:

  * ``cvec_naive``    -- the sweep of the whole index lattice, one
    inclusion-exclusion butterfly over its covering counts mod p, whose
    table ``_weight_table`` and ``_chain_table`` state.
  * ``cvec_theorem``  -- the digit method, the naive sweep restricted to the
    support set of n, whose terms ``_term_table`` states.
  * ``cvec_closed_form`` -- the shape rule, the vector of n from that of
    n*, the least n of the same shape, as its docstring states.

Every method ends in one rule, ``_spread``, whose docstring states how the
positions that hold 0 mod p and complement symmetry write the vector.

``cvec`` dispatches by one rule: the shape rule, else, when its sweep of
n* is past SWEEP_MAX_BITS, the theorem method.  Since n* <= n, a query
past the shape rule's budget is past the naive sweep's too, so ``auto``
never sweeps n naively, and a sweep past its budget ends the call with
``CapacityError``.
Every p-vector has p entries, so a prime past ``arith``'s tally budget
2^TALLY_MAX_BITS is refused with ``CapacityError`` before any work.  Its
counts may have about n bits each, so a vector whose distinct nonzero
counts would take more than RESULT_BITS_MAX bits together is refused
with ``CapacityError`` by ``_spread`` before any shift (the parity
answers at p = 2 in types B and D, (0, 2^n), too), and so is an n past
RESULT_BITS_MAX + TALLY_MAX_BITS + 1, before any digit of n is read.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from operator import add, mul

from .arith import (
    TALLY_MAX_BITS,
    base_p_digits,
    check_prime,
    check_tally_prime,
    field_buffer,
    field_scaler,
    inverse_zeta_tally,
    lucas_binomial,
)
from .compositions import CapacityError, _Record, check_family, check_n, mask_offset, text_head

# Largest number of descent positions a p-vector sweep covers, top
# position included: every position of n in the naive sweep, dropped or
# kept, and the support's in the theorem sweep, which is the naive sweep
# restricted to the support.  Either sweeps at most 2^(bits - 1) fields, the
# half without the top position, and at the same number of positions the
# two cost the same.  Counted in positions, not fields, so that a refusal
# never builds 2^(n - 1) to say how far past it is.  A budget by estimated
# cost is ROADMAP item 12.
SWEEP_MAX_BITS = 26

# Largest n, in bits, whose base-p digits support_set reads: the split
# digit reader is quadratic in them: 0.06-0.08 s at 2^18 bits, 0.24-0.28 s
# at 2^19 and 0.87-1.07 s at 2^20, at p = 2, 3, 1009 and 2^61 - 1 (in
# process, 2-core machine, Python 3.11).  It admits 3^200000 + 1, of
# 316,993 bits.
SUPPORT_N_BITS_MAX = 1 << 19

# Largest set support_set builds, in its positions times the bits of n,
# read off the digits before the set is made.  At the edge,
# support_set("A", 2**22 - 1, 2), 2^22 - 2 positions of 22 bits, took
# 2.1-2.4 s and 402-403 MB peak RSS in a fresh process; no set of more
# positions fits, since an n of b bits has fewer than 2^b.
SUPPORT_SET_BITS_MAX = 22 << 22

# Largest p-vector ``_spread`` writes, in bits of its distinct nonzero
# counts (equal counts share one int).  It admits B n = 3^19 at p = 3,
# 1,162,261,467 bits.  At the edge, cvec("A", 2**32, 2), one count of 2^32
# bits, took 0.7-1.0 s and 561 MB in a fresh process under a 1 GB
# address-space cap (2-core machine, Python 3.11); B n = 2^32 at p = 2,
# one bit past it, is refused in under 1 ms.
RESULT_BITS_MAX = 1 << 32

# Largest estimated cost of macdonald_mp, in bit steps of a big-int pass:
# a digit m at position j has coefficients of about s = m * log2(p^j) bits,
# and its series takes about m^2 / 2 products of one of them by a small
# int, so m^2 * s; the product of the digits' coefficients, of S bits
# together, adds S^2 / 30, the cost of a running product (30-bit int
# digits times each other).  The product is a balanced tree, so that term
# overcharges it.  Measured in process with the tree (2-core machine,
# Python 3.11, best of 3, three runs): digit 1000 at p = 1009, j = 1
# (series 1.0e10) 0.07-0.13 s, and at j = 2 (2.0e10, refused) 0.22-0.38 s;
# the 1000 digits 1 of 2^1000 - 1 at p = 2 (product 8.4e9) 0.006-0.011 s,
# of which the product 0.004-0.006 s; the 650 digits 2 of 3^650 - 1
# (product 1.5e10) 0.06-0.10 s, of which the product 0.05-0.09 s.  Per
# estimated step the product runs 2 to 15 times faster than a series.
# The cap and the estimate stay until the budget edges are re-run together.
MACDONALD_COST_MAX = 15 * 10**9


def _check_n_in_range(family: str, n: int) -> None:
    # an int n at least the family minimum, 1 or 2 in type D (a bool is
    # refused, as check_prime refuses it)
    if check_n(n) < 1 or (family == "D" and n < 2):
        raise ValueError(f"n={text_head(n)} out of range for family {family}")


def _check_query(family: str, n: int, p: int) -> None:
    # the argument gate of every cvec method: family, prime, and n.  The
    # gate on n moves no answer: a largest count >= 2^(n - 1) / p, with
    # p <= 2^TALLY_MAX_BITS, has >= n - TALLY_MAX_BITS bits, which _spread refuses
    check_family(family)
    check_tally_prime(p)
    _check_n_in_range(family, n)
    if n > RESULT_BITS_MAX + TALLY_MAX_BITS + 1:
        raise CapacityError("cvec.RESULT_BITS_MAX", n - TALLY_MAX_BITS, RESULT_BITS_MAX)


class DimensionPVector(_Record):
    """Length-p vector of exact counts, one per residue class, with provenance."""

    __slots__ = ("family", "n", "p", "counts", "method")
    _compared = ("family", "n", "p", "counts")  # the method tag is provenance

    def __init__(self, family: str, n: int, p: int, counts: tuple[int, ...], method: str = "naive"):
        if len(counts) != p:
            raise ValueError("counts must have one entry per residue class")
        _Record.__init__(self, family, n, p, counts, method)

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def total(self) -> int:
        return sum(self.counts)


def _support_size(family: str, digits) -> int:
    # |support_set| from the base-p digits of n alone: prod(d_j + 1)
    # digit-bounded sums, less {0, n} in type A and {n} in type B; type D
    # adjoins 1, which is a new element only when the lowest digit is 0
    size = prod(d + 1 for d in digits)
    if family == "A":
        return size - 2
    return size if family == "D" and digits[0] == 0 else size - 1


def support_set(family: str, n: int, p: int) -> tuple[int, ...]:
    """The family-adjusted set of digit-bounded sums of powers of p, as a
    sorted tuple of descent positions.

    Starting from all sums b_0 + b_1 p + ... with 0 <= b_j <= (j-th digit
    of n): family A drops {0, n}, family B drops {n}, family D adjoins {1}
    and drops {n}.  Any prime p is accepted in every family.  An n past
    SUPPORT_N_BITS_MAX bits is refused with CapacityError before any of
    its digits is read, and a set whose positions times the bits of n
    would pass SUPPORT_SET_BITS_MAX before any position is made.
    """
    check_family(family)
    check_prime(p)
    _check_n_in_range(family, n)
    if n.bit_length() > SUPPORT_N_BITS_MAX:
        raise CapacityError("cvec.SUPPORT_N_BITS_MAX", n.bit_length(), SUPPORT_N_BITS_MAX)
    digits = base_p_digits(n, p)
    bits = _support_size(family, digits) * n.bit_length()
    if bits > SUPPORT_SET_BITS_MAX:
        raise CapacityError("cvec.SUPPORT_SET_BITS_MAX", bits, SUPPORT_SET_BITS_MAX)
    vals = [0]
    for j, dj in enumerate(digits):
        if dj == 0:
            continue
        step = p**j
        vals = [v + b * step for v in vals for b in range(dj + 1)]
    base = set(vals)
    if family == "A":
        base -= {0, n}
    elif family == "B":
        base -= {n}
    else:
        base.add(1)
        base -= {n}
    return tuple(sorted(base))


# ---------------------------------------------------------------------------
# naive method: butterfly over the index lattice


def _chain_table(family: str, n: int, p: int, positions, binom):
    """Chain products mod p over the sorted descent ``positions``, as a
    pair: a ``field_buffer`` for p and the number of positions it drops.
    ``binom(top, bottom)`` is C(top, bottom), exact or mod p.

    The block of position h holds the masks whose top position is h.  At
    h alone sits its seed, the family weight of a lowest descent d times
    C(n, d): 1 in type A, 2^(n - d) in type B, and in type D 2^(n - d),
    or 2^(n - 1) for d <= 1 (a first part of at most 1 halves the count
    2^n).  Each lower block k is copied scaled by the step constant
    C(n - d_k, d_h - d_k) (``arith.field_scaler``): adding d_h above a top descent d_k splits the
    last part n - d_k into d_h - d_k and n - d_h.  So a mask holds its
    multinomial times the weight of its lowest descent, its covering count.
    One upward pass finds the live positions, those whose seed is nonzero
    or a nonzero constant links to a live lower one, so constants are made
    only toward live positions.  Any other position has an all-zero block,
    and every mask through it is 0, as the blocks above reach it only
    through its block.  The table's bits are the kept positions, in order,
    and no block is copied by a constant of 0.  Type D keeps positions 0
    and 1, live or not (a dead one's block stays 0), at bits 0 and 1,
    because one copy then sets mask 4j + 2 to mask 4j + 1: a lone descent
    at 1 merges into the next part, as one at 0 does; the last field is
    never read, so the two slices match even in a table of two fields."""
    seeds = [binom(n, d) * pow(2, 0 if family == "A" else n - 1 if family == "D" and d <= 1 else n - d, p) % p
             for d in positions]
    rows = {}  # live position: its constants toward the live ones below it
    for h, d in enumerate(positions):
        row = [binom(n - positions[k], d - positions[k]) % p for k in rows]
        if seeds[h] or any(row):
            rows[h] = row
    keep = sorted(set(rows).union(range(min(2, len(seeds))))) if family == "D" else list(rows)
    at = [keep.index(h) for h in rows]
    scale = field_scaler(p)
    g = field_buffer(1 << len(keep), p)
    g[0] = 1
    for (h, row), i in zip(rows.items(), at):
        base = 1 << i
        g[base] = seeds[h]
        for j, c in zip(at, row):
            if c:
                g[base + (1 << j):base + (2 << j)] = scale(g[1 << j:2 << j], c)
    if family == "D":
        g[2::4] = g[1:-1:4]
    return g, len(seeds) - len(keep)


def _weight_table(family: str, n: int, p: int):
    """Covering counts mod p of the lower half of the index lattice, in a
    ``field_buffer`` for p, and the number of positions dropped from it
    (``_chain_table``, with exact binomials, so no base-p digit is read):
    the masks without the top descent (bit bits - 1, where
    bits = n - mask_offset(family)) are over the other bits - 1 positions
    (A n = 1 has none: its table is the one field of the empty mask), and
    entry mask, for every mask over the positions kept, is the number of
    group elements whose descent set is contained in the mask's descent
    set.  Every mask through a dropped position has a count of 0 mod p.
    At p <= n most positions drop, as a multinomial is 0 mod p once one of
    its partial sums d has C(n, d) = 0 mod p.

    Bit b of a mask stands for the descent position b + mask_offset(family),
    the generator s_(b + mask_offset) of ``coxeter.builtin_diagram`` (type A
    numbered from 1; types B and D from 0, with s_0, s_1 the fork tips in
    type D), and the covering count of a mask is the coset count
    |W| / |W_(S - J)| of its generator set J: for the parts a_0, a_1, ...
    S - J splits into B_(a_0) (type B) or D_(a_0) (type D, a_0 >= 2) times
    A_(a_i - 1) for i >= 1, and in type D a first part of 1 (a lone
    descent at 1) leaves s_0 on the path s_0 - s_2 - ..., as a descent at
    0 leaves s_1.  So the ribbon number of a mask is the size of the
    descent class of J.  The tests check the numbering against
    ``coxeter.ribbon_general`` (n <= 6) and the vector against a sweep of
    the whole lattice (n <= 12)."""
    return _chain_table(family, n, p, range(mask_offset(family), n - 1), comb)


def _spread(tally, flips: int, doubled: bool) -> tuple[int, ...]:
    """The p-vector from the residue tally of the masks kept, in the
    paper's shorthand 2^k (a_0, ..., a_(p-1)): every method ends here.

    A position e that holds 0 mod p on every mask through it (dropped from
    a table, or outside the support) only flips signs: the transform gives
    beta(T + e) = -beta(T) for every T without e, so ``flips`` >= 1 such
    positions turn the tally t into 2^(flips - 1) (t[r] + t[-r mod p]).
    ``doubled`` adds the complements of a sweep of the masks without the
    top position (closed under submasks, so the butterfly over them is
    exact): w -> w0 w maps the descent class of a generator set onto the
    class of its complement, since l(w0 w) = l(w0) - l(w) turns every right
    descent into an ascent and back (Bjorner and Brenti, *Combinatorics of
    Coxeter Groups*, Prop. 2.3.2), so an index and its complement have the
    same ribbon number.  In the theorem method the complement of a subset
    T of the support S is S - T, whose residue is that of T times
    (-1)^free: the sign is +1 with no free position, and with one the
    spread has made the tally symmetric under r <-> -r, so it never
    matters.  With no top position (type A at n = 1, or an empty support
    at n = p^d) the one mask is its own complement and nothing doubles.

    The whole power of two is one shift per distinct weight, so equal
    entries are one int object, not copies of a number that may be
    megabytes long.  Before any shift, a vector whose distinct nonzero
    entries would take more than RESULT_BITS_MAX bits together is refused
    with CapacityError.
    """
    shift = flips + doubled
    if flips:
        tally = list(map(add, tally, tally[:1] + tally[:0:-1]))
        shift -= 1
    weights = set(tally)
    bits = sum(w.bit_length() + shift for w in weights if w)
    if bits > RESULT_BITS_MAX:
        raise CapacityError("cvec.RESULT_BITS_MAX", bits, RESULT_BITS_MAX)
    shifted = {w: w << shift for w in weights}
    return tuple(shifted[w] for w in tally)


def _chain_counts(chain, p: int, free: int, doubled: bool) -> tuple[int, ...]:
    """The p-vector of the subset transform over the masks of a
    ``_chain_table``, from its (table, dropped) pair: the residue tally of
    the table, spread over its dropped positions and ``free`` more that
    hold 0 on every mask through them.

    ``arith.inverse_zeta_tally`` runs the butterfly on the table's
    (p - 1).bit_length() bit planes and tallies its output by residue, so
    no list of 2^n ints and no exact weight is ever made; the field format
    and the planes are arith's alone, and this module passes moduli, never
    widths.  The table is handed over as a temporary, so its fields are
    freed once its planes are made.
    """
    *box, dropped = chain
    del chain
    return _spread(inverse_zeta_tally(box.pop(), p), dropped + free, doubled)


def _naive_counts(family: str, n: int, p: int) -> tuple[int, ...]:
    bits = n - mask_offset(family)
    if bits > SWEEP_MAX_BITS:
        raise CapacityError("cvec.SWEEP_MAX_BITS", bits, SWEEP_MAX_BITS)
    # field mask becomes the ribbon number mod p of the index with that
    # descent mask; the masks with the top descent, if there is one, are
    # the complements of the half, with the same ribbon numbers
    return _chain_counts(_weight_table(family, n, p), p, 0, bits > 0)


def cvec_naive(family: str, n: int, p: int) -> DimensionPVector:
    """Histogram of all ribbon numbers mod p, by sweeping the index lattice."""
    _check_query(family, n, p)
    return DimensionPVector(family, n, p, _naive_counts(family, n, p), "naive")


# ---------------------------------------------------------------------------
# theorem method: support-subset sweep


def _term_table(family: str, n: int, p: int, pos: tuple[int, ...]):
    """g[mask] = the refinement term of the descent set picked by mask
    from the sorted support positions ``pos``, reduced mod p, in a
    ``field_buffer`` for p.

    A term is the weight of its lowest descent times the multinomial
    C(n, d_1) C(n - d_1, d_2 - d_1) ..., the naive method's covering
    count, so ``_chain_table`` builds it over the support with every
    binomial mod p from ``lucas_binomial`` on ints (as ``ribbon_mod_p``
    takes them), and the same butterfly and tally run over it: the family
    rules, type D's included, are stated once for both sweeps, for every
    prime.  By Lucas's theorem every term through a position outside the
    support is 0 mod p, so each such free position holds 0 on every mask
    through it, and an index with descent set D has the residue
    (-1)^|D - S| r(D & S).  Agrees with ``term_mod_p`` on every mask.
    For m positions it costs O(m^2) Lucas binomials and one field per
    subset, whatever p is, also when every subset is a digitwise chain
    (``cvec --family A --n 23 --p 101 --method theorem``, 22 positions,
    took 0.14-0.15 s and 21 MB).

    Every seed but that of type D's adjoined 1 is a unit mod p, so
    ``_chain_table`` drops no position, except at p = 2 in types B and D:
    every weight there is even, so every position but type D's 0 and 1 is
    dropped (``cvec_theorem`` answers those by parity).
    """
    return _chain_table(family, n, p, pos, lambda top, bottom: lucas_binomial(top, bottom, p))


def _theorem_counts(family: str, n: int, p: int) -> tuple[int, ...]:
    # the support's size is refused from the digits of n, before the set
    # or anything of its size is made
    m = _support_size(family, base_p_digits(n, p))
    if m > SWEEP_MAX_BITS:
        raise CapacityError("cvec.SWEEP_MAX_BITS", m, SWEEP_MAX_BITS)
    pos = support_set(family, n, p)
    free = n - mask_offset(family) - m
    # the subsets without the top position are closed under submasks, so
    # the butterfly over them alone is exact; their complements are the
    # subsets with it (``_spread``)
    return _chain_counts(_term_table(family, n, p, pos[:-1]), p, free, bool(pos))


def cvec_theorem(family: str, n: int, p: int) -> DimensionPVector:
    """Dimension p-vector by the digit method; never enumerates the lattice.

    Only descent positions whose base-p digits are bounded by the digits of
    n (``support_set``) carry terms that survive mod p, so a sweep of the
    subsets of that support (``_term_table``) and the power-of-two spread
    of the other positions give the vector, and n may reach the gate on n,
    2^32 + 27, as long as the support stays within SWEEP_MAX_BITS.
    """
    _check_query(family, n, p)
    if p == 2 and family in ("B", "D"):
        # every type-B/D ribbon number is odd: the 2^n indices are n
        # doublings of the empty mask's residue 1 (at p = 2, -r = r)
        return DimensionPVector(family, n, p, _spread((0, 1), n, False), "theorem")
    return DimensionPVector(family, n, p, _theorem_counts(family, n, p), "theorem")


# ---------------------------------------------------------------------------
# closed forms

# The shape rule's memo: n*'s p-vector by (family, n*, p), so that a process
# sweeps each n* once.  n* fits the sweep budget, so each of its counts is
# at most 2^26, its number of indices; the spread over the n - n* more free
# positions of n, ints as long as n, is made per call and never kept.  Only
# p <= SHAPE_MEMO_MAX_P is kept (one-byte fields, at most 256 small ints a
# vector); a larger p sweeps n* every time.  Past SHAPE_MEMO_SHAPES shapes
# the least recently used goes.  Worst case kept, in bytes as tracemalloc
# counts them (CPython 3.11, 64-bit): 256 shapes, each a tuple of 256
# pointers (2,088) and 256 distinct ints below 2^30 (32 each as allocated,
# 8,192), with lru_cache's key and link per shape, 2,636,336 in all, under
# SHAPE_MEMO_BYTES_MAX.  It is a ``functools.lru_cache``:
# ``_memo_counts.cache_clear()`` empties it and ``cache_info()`` counts it.
# The package attribute ``ribbonmod.cvec`` is the function, so the module is
# reached by ``importlib.import_module("ribbonmod.cvec")``.
SHAPE_MEMO_SHAPES = 256
SHAPE_MEMO_MAX_P = 256
SHAPE_MEMO_BYTES_MAX = 2_700_000


@lru_cache(maxsize=SHAPE_MEMO_SHAPES)
def _memo_counts(family: str, least: int, p: int) -> tuple[int, ...]:
    return _naive_counts(family, least, p)


def cvec_closed_form(family: str, n: int, p: int) -> DimensionPVector:
    """The dimension p-vector of n from that of n*, the least n of the same
    shape, swept by the naive method, whose CapacityError refuses n* past
    its budget.

    The shape of n is the multiset of its nonzero base-p digits, and in
    type D also its digit n_0.  The theorem method's tally depends on
    nothing else, and the paper's m*p^d closed form is the case of one
    digit:

      * by Dickson's congruence a multinomial mod p is the product of the
        multinomials of the digits in each place, and 0 once a part's
        digits carry, so the term of a subset of the support is 0 unless
        its positions rise digit by digit, and then it is a product over
        the places, each reading that place's digits alone;
      * the support is the product over the places of the chains
        [0, n_j], so moving the nonzero digits of n to other places maps
        its support onto that of the moved n, keeping that order and
        every term;
      * the type-B weight 2^(n - s) mod p depends only on n - s mod p - 1,
        the digit sum of n - s, which the move keeps; the type-D seed
        rule of ``_chain_table`` treats a lowest descent s <= 1 apart,
        which reads place 0 alone, so type D keeps n_0 in place 0, and
        with it the adjoined 1.

    The support's size and whether it has a top position follow the
    digits too, so only the free count differs, by n - n*, and n's vector
    is n*'s spread over n - n* more free positions (when n* has a free
    position its vector is already symmetric under r <-> -r, and the
    spread only doubles it).  n* puts the digits in descending order from
    place 0 (type D from place 1, after n_0).  Types B and D at p = 2 take
    the parity answer, as ``cvec_theorem`` does.
    n*'s vector comes from the memo (``_memo_counts``, at p <=
    SHAPE_MEMO_MAX_P) when an earlier call swept it; a refusal is never kept.
    The provenance tag is ``closed-form:shape`` (``closed-form:parity``).
    """
    _check_query(family, n, p)
    if p == 2 and family != "A":
        return DimensionPVector(family, n, p, _spread((0, 1), n, False), "closed-form:parity")
    digits = base_p_digits(n, p)
    fixed = digits[:1] if family == "D" else ()
    shape = fixed + tuple(sorted(filter(None, digits[len(fixed):]), reverse=True))
    least = sum(d * p**j for j, d in enumerate(shape))
    counts = (_memo_counts if p <= SHAPE_MEMO_MAX_P else _naive_counts)(family, least, p)
    return DimensionPVector(family, n, p, _spread(counts, n - least, False), "closed-form:shape")


# ---------------------------------------------------------------------------
# dispatch


def cvec(family: str, n: int, p: int, method: str = "auto") -> DimensionPVector:
    """Compute the dimension p-vector by the requested method.

    ``auto`` runs the closed form (the shape rule), and the theorem method
    only when the shape rule's sweep of n*, the least n of n's shape, is
    refused past SWEEP_MAX_BITS; n* <= n, so the naive sweep of n is past
    it too.  ``closed`` raises that refusal, which names n*'s index bits;
    past it ``auto``'s answer or refusal is the theorem method's, whose
    refusal names the support's positions against the same budget.  Every
    other refusal ends the call.  Each method checks its arguments.
    """
    if method not in ("auto", "naive", "theorem", "closed"):
        raise ValueError(f"unknown method {text_head(method)}")
    if method == "naive":
        return cvec_naive(family, n, p)
    if method == "theorem":
        return cvec_theorem(family, n, p)
    try:
        return cvec_closed_form(family, n, p)
    except CapacityError as shape:
        if method == "closed" or shape.budget != "cvec.SWEEP_MAX_BITS":
            raise
    return cvec_theorem(family, n, p)


# ---------------------------------------------------------------------------
# symmetric-group side counts


def _colored_partition_count(m: int, colors: int) -> int:
    # coefficient a(m) of x^m in prod_{i >= 1} (1 - x^i)^(-colors), by the
    # logarithmic derivative: j a(j) = colors * sum_{k=1..j} sigma(k) a(j - k),
    # with sigma(k) the sum of the divisors of k
    sigma = [0] * (m + 1)
    for d in range(1, m + 1):
        for k in range(d, m + 1, d):
            sigma[k] += d
    a = [1]
    for j in range(1, m + 1):
        a.append(colors * sum(map(mul, sigma[1:j + 1], reversed(a))) // j)
    return a[m]


def macdonald_mp(n: int, p: int) -> int:
    """How many irreducible symmetric-group representations of S_n have
    dimension coprime to p: the product over base-p digits n_j of the
    coefficient of x^(n_j) in prod_i (1 - x^i)^(-p^j).

    Digits whose series and product are estimated past MACDONALD_COST_MAX
    bit steps (about n_j^2 * s_j for the series of digit n_j, whose
    coefficients have about s_j = n_j * log2(p^j) bits, plus (sum of the
    s_j)^2 / 30, a bound on the balanced product of the coefficients) are
    refused with CapacityError before any series is built, so a digit m,
    of at least m^3 steps, is at most 2466.  The top digit's coefficient
    alone has at least bits(n) - bits(p) bits, so an n whose product term
    from that bound is past MACDONALD_COST_MAX is refused before any of
    its digits is read, after the argument checks; the estimate over the
    digits would refuse it too, so no answer moves."""
    check_prime(p)
    if check_n(n) < 1:
        raise ValueError(f"n must be a positive int, got {text_head(n)}")
    floor = max(n.bit_length() - p.bit_length(), 0) ** 2 // 30
    if floor > MACDONALD_COST_MAX:
        raise CapacityError("cvec.MACDONALD_COST_MAX", floor, MACDONALD_COST_MAX)
    digits = base_p_digits(n, p)
    series = size = 0
    for j, nj in enumerate(digits):
        if nj:
            bits = nj * (p**j).bit_length()
            series += nj * nj * bits
            size += bits
            cost = series + size * size // 30
            if cost > MACDONALD_COST_MAX:
                raise CapacityError("cvec.MACDONALD_COST_MAX", cost, MACDONALD_COST_MAX)
    return _tree_product([_colored_partition_count(nj, p**j) for j, nj in enumerate(digits) if nj])


def _tree_product(values: list[int]) -> int:
    # multiply neighbours round by round, so that each big-int product joins
    # factors of about the same size: quasi-linear in the total bits, where
    # a running product is quadratic
    while len(values) > 1:
        values = [prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1
