"""Dimension p-vectors: how many ribbon numbers fall in each class mod p.

For a family F in {A, B, D}, the vector counts the indices alpha (of the
2^(n-1) compositions in type A, the 2^n pseudo-compositions otherwise)
whose ribbon number is congruent to each residue mod p.  Three methods:

  * ``cvec_naive``    -- reduce every ribbon number mod p and tally.  The
    index lattice is processed at once with an inclusion-exclusion
    butterfly over multinomial weights, so nothing here touches the digit
    machinery used by the other two methods.  The weight table is built
    mod p by ``_chain_table`` into an ``arith.field_buffer`` for p, block
    by block: the masks with top descent d are a seed, the mask of d alone
    with the B/D first-part weight of d, and scaled copies of the blocks
    below, one exact binomial per block (``arith.field_scaler``), so every
    mask carries the weight of its lowest descent.  At p <= n most of those
    weights are 0 mod p, as a multinomial is once one of its partial sums
    d has C(n, d) = 0 mod p.  A position whose seed is 0 and whose block
    constants to the live positions below it are 0 has an all-zero block,
    and every mask through it is 0: the table keeps only the live
    positions as its bits (and type D's 0 and 1, for its copy rule),
    decided from the same exact binomials, never from base-p digits.
    ``arith.inverse_zeta_tally(table, p)`` runs the butterfly on the
    table's (p - 1).bit_length() bit planes and tallies its output by
    residue; no list of 2^n ints and no exact weight is ever made.  The
    field format and the planes are arith's alone: this module passes
    moduli, never widths.  Only the lower half of the lattice is tallied,
    the masks without the top descent.  Bit b of a mask stands for the
    generator s_(b + mask_offset) of ``coxeter.builtin_diagram`` (type A
    numbered from 1; types B and D from 0, with s_0, s_1 the fork tips in
    type D), and the covering count of a mask is the coset count
    |W| / |W_(S - J)| of its generator set J: for the parts a_0, a_1, ...
    S - J splits into B_(a_0) (type B) or D_(a_0) (type D, a_0 >= 2) times
    A_(a_i - 1) for i >= 1, and in type D a first part of 1 (a lone
    descent at 1) leaves s_0 on the path s_0 - s_2 - ..., as a descent at
    0 leaves s_1.  So the ribbon number of a mask is the size of the
    descent class of J.  The tests check the numbering against
    ``coxeter.ribbon_general`` (n <= 6) and the vector against a sweep of
    the whole lattice (n <= 12).
  * ``cvec_theorem``  -- the digit method.  Only descent positions whose
    base-p digits are bounded by the digits of n can carry surviving
    refinement terms; sweeping the subsets T of that support set and
    weighting the residue tally by powers of two gives the vector without
    ever enumerating the index lattice, so n may be astronomically large
    as long as the support stays small.  The support's size is read off the
    digits of n and refused past 2^SUPPORT_MAX subsets before the support
    is made.  For m support positions it fills the terms of the 2^(m - 1)
    subsets without the top position by the naive method's
    ``_chain_table``, with O(m^2) block constants from
    ``arith.lucas_binomial`` on the positions and n as ints, the binomials
    that ``ribbon_mod_p`` runs too, and runs the same packed butterfly and
    tally over them.  By Lucas's theorem every term through a position
    outside the support is 0 mod p, so each of these free positions is one
    more that holds 0 on every mask through it: an index with descent set
    D has the residue (-1)^|D - S| r(D & S).
    The seeds come from ``ribbon._first_step``, the first-step rule (the
    power-of-two weight and binomial base of the lowest descent) that the
    chain kernel of ``ribbon_exact`` and ``ribbon_mod_p`` runs, so the
    family rules, type D's included, are stated once, for every prime.
  * ``cvec_closed_form`` -- the shape rule.  The theorem method's tally
    depends only on the multiset of nonzero base-p digits of n (and on n_0
    in type D), so the vector of n is that of n*, the least n of the same
    shape, swept by the naive method and spread over the n - n* more free
    positions of n; the paper's m*p^d closed form is the case of one digit.
    It answers None when n* is past the naive budget.

Every method ends in one rule, ``_spread``, which writes the vector as
the paper does, 2^k (a_0, ..., a_(p-1)).  A position e that holds 0 mod p
on every mask through it (dropped from a table, or outside the support)
only flips signs: the transform gives beta(T + e) = -beta(T) for every T
without e, so f >= 1 of them turn the tally t of the masks kept into
2^(f - 1) (t[r] + t[-r mod p]).  A sweep of the masks without the top
position (closed under submasks, so the butterfly over them is exact) is
then doubled by complement symmetry: w -> w0 w maps the descent class of
a generator set onto the class of its complement, since
l(w0 w) = l(w0) - l(w) turns every right descent into an ascent and back
(Bjorner and Brenti, *Combinatorics of Coxeter Groups*, Prop. 2.3.2), so
an index and its complement have the same ribbon number.  In the theorem
method the complement of a subset T of the support S is S - T, whose
residue is that of T times (-1)^free: the sign is +1 with no free
position, and with one the spread has made the tally symmetric under
r <-> -r, so it never matters.  With no top position (type A at n = 1, or
an empty support at n = p^d) the one mask is its own complement and
nothing doubles.

``cvec`` dispatches: the shape rule when n* fits the naive budget, else
theorem, else naive.
Every p-vector has p entries, so a prime past ``arith``'s tally budget
2^TALLY_MAX_BITS is refused with ``CapacityError`` before any work.  Its
counts may have about n bits each, so ``_spread`` refuses, also with
``CapacityError`` and before any shift, a vector whose distinct nonzero
counts would take more than RESULT_BITS_MAX bits together; the parity
answers at p = 2 in types B and D, (0, 2^n), are spread like any other.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import add, mul

from .arith import (
    base_p_digits,
    check_prime,
    check_tally_prime,
    field_buffer,
    field_scaler,
    inverse_zeta_tally,
    lucas_binomial,
)
from .compositions import CapacityError, _Record, check_family, mask_offset
from .ribbon import _first_step

# Full index-lattice sweeps (naive method) and support-subset sweeps
# (theorem method) are capped to keep memory and time sane.
NAIVE_MAX_BITS = 26
SUPPORT_MAX = 22

# Largest p-vector ``_spread`` writes, in bits of its distinct nonzero
# counts (equal counts share one int).  It admits B n = 3^19 at p = 3,
# 1,162,261,467 bits.  At the edge, cvec("A", 2**32, 2), one count of 2^32
# bits, took 0.7-1.0 s and 561 MB in a fresh process under a 1 GB
# address-space cap (2-core machine, Python 3.11); B n = 2^32 at p = 2,
# one bit past it, is refused in under 1 ms.
RESULT_BITS_MAX = 1 << 32

# The least n of the theorem route, by family: support_set and cvec_theorem
# refuse a smaller n, the shape rule, a reduction of the theorem route's
# tally, answers None for it, and cvec sweeps it naively
_THEOREM_MIN_N = {"A": 2, "B": 2, "D": 4}

# Largest base-p digit m of n that macdonald_mp expands (an (m+1)-entry
# series by the divisor-sum recurrence, about m^2 / 2 big-int products):
# m = 1000 took 0.05 s with p > n and 0.14 s at p = 1009, j = 1; m = 2000
# took 0.18 s and 0.47 s (2-core machine, Python 3.11, best of 3).
MACDONALD_DIGIT_MAX = 1000

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


class _SweepTooLarge(CapacityError):
    """A sweep refused by its own size budget, before any work: ``cvec``'s
    auto path then tries the next route.  Every other refusal, such as a
    vector past RESULT_BITS_MAX, holds for every route and ends the call."""


def _check_query(family: str, n: int, p: int) -> None:
    # the argument gate of every cvec method: family, prime, and an int n at
    # least the family minimum (a bool is refused, as check_prime refuses it)
    check_family(family)
    check_tally_prime(p)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1 or (family == "D" and n < 2):
        raise ValueError(f"n={n} out of range for family {family}")


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
    and drops {n}.  Any prime p is accepted in every family.  A set of
    more than 2^SUPPORT_MAX sums is refused with CapacityError before any
    is made.
    """
    check_family(family)
    check_prime(p)
    if n < _THEOREM_MIN_N[family]:
        kind = "type-D support set" if family == "D" else "support set"
        raise ValueError(f"the {kind} needs n >= {_THEOREM_MIN_N[family]}")
    digits = base_p_digits(n, p)
    if _support_size(family, digits) > 1 << SUPPORT_MAX:
        raise CapacityError("support set too large to materialize")
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


def _chain_table(family: str, p: int, seeds, const):
    """Chain products mod p over the positions of ``seeds``, as a pair: a
    ``field_buffer`` for p and the number of positions it drops.

    The block of position h holds the masks whose top position is h:
    ``seeds[h]`` (a residue mod p) at h alone, and the masks of each lower
    block k scaled by ``const(h, k)``, the factor of a step from position k
    up to h.  So a mask holds the seed of its lowest position times one
    constant per step.  The constants are reduced once; a position is live
    when its seed is nonzero or a nonzero constant links it to a live lower
    position.  Any other position has an all-zero block, and every mask
    through it is 0, as the blocks above reach it only through its block.
    The table's bits are the kept positions, in order, and no block is
    copied by a constant of 0; with every position live it is the whole
    table.  Type D keeps positions 0 and 1, live or not, at bits 0 and 1,
    because one copy then sets mask 4j + 2 to mask 4j + 1: a lone descent
    at 1 counts as one at 0, ``ribbon._first_step``'s rule; the last field
    is never read, so the two slices match even in a table of two
    fields."""
    consts = [[const(h, k) % p for k in range(h)] for h in range(len(seeds))]
    live = []
    for h, seed in enumerate(seeds):
        if seed or any(consts[h][k] for k in live):
            live.append(h)
    keep = sorted(set(live).union(range(min(2, len(seeds))))) if family == "D" else live
    scale = field_scaler(p)
    g = field_buffer(1 << len(keep), p)
    g[0] = 1
    for i, h in enumerate(keep):
        base = 1 << i
        g[base] = seeds[h]
        for j, c in enumerate(consts[h][k] for k in keep[:i]):
            if c:
                g[base + (1 << j):base + (2 << j)] = scale(g[1 << j:2 << j], c)
    if family == "D":
        g[2::4] = g[1:-1:4]
    return g, len(seeds) - len(keep)


def _weight_table(family: str, n: int, p: int):
    """Covering counts mod p of the lower half of the index lattice, in a
    ``field_buffer`` for p, and the number of positions dropped from it
    (``_chain_table``): the masks without the top descent (bit bits - 1,
    where bits = n - mask_offset(family)) are over the other bits - 1
    positions (A n = 1 has none: its table is the one field of the empty
    mask), and entry mask, for every mask over the positions kept, is
    the number of group elements whose descent set is contained in the
    mask's descent set.  Every mask through a dropped position has a count
    of 0 mod p."""
    # The multinomial of the composition whose descent set is mask (bit b
    # encodes descent position b + lo) grows one factor per descent: adding
    # d above a rest whose top descent is t splits the last part n - t into
    # d - t and n - d, which multiplies the multinomial by C(n - t, d - t),
    # and d alone gives C(n, d).  In types B and D a mask's covering count
    # is its multinomial times 2^(n - f) for its lowest descent f
    # (2^(n - 1) in type D for f <= 1), so the seeds carry the weights.
    lo = mask_offset(family)
    seeds = []
    for d in range(lo, n - 1):
        shift = 0 if family == "A" else n - 1 if family == "D" and d <= 1 else n - d
        seeds.append(comb(n, d) * pow(2, shift, p) % p)
    return _chain_table(family, p, seeds, lambda h, k: comb(n - k - lo, h - k))


def _spread(tally, flips: int, doubled: bool) -> tuple[int, ...]:
    """The p-vector from the residue tally of the masks kept, in the
    paper's shorthand 2^k (a_0, ..., a_(p-1)) (module docstring).

    Each of ``flips`` positions that hold 0 on every mask through them
    pairs r with -r: with flips >= 1 the tally t becomes
    2^(flips - 1) (t[r] + t[-r mod p]).  ``doubled`` adds the complements
    of a half lattice.  The whole power of two is one shift per distinct
    weight, so equal entries are one int object, not copies of a number
    that may be megabytes long.  Before any shift, a vector whose distinct
    nonzero entries would take more than RESULT_BITS_MAX bits together is
    refused with CapacityError.
    """
    shift = flips + doubled
    if flips:
        tally = list(map(add, tally, tally[:1] + tally[:0:-1]))
        shift -= 1
    weights = set(tally)
    bits = sum(w.bit_length() + shift for w in weights if w)
    if bits > RESULT_BITS_MAX:
        raise CapacityError(
            f"the p-vector needs {bits} bits of distinct counts; the budget is {RESULT_BITS_MAX} bits"
        )
    shifted = {w: w << shift for w in weights}
    return tuple(shifted[w] for w in tally)


def _chain_counts(chain, p: int, free: int, doubled: bool) -> tuple[int, ...]:
    """The p-vector of the subset transform over the masks of a
    ``_chain_table``, from its (table, dropped) pair: the residue tally of
    the table, spread over its dropped positions and ``free`` more that
    hold 0 on every mask through them.

    The table is handed to ``arith.inverse_zeta_tally`` as a temporary, so
    its fields are freed once its planes are made.
    """
    *box, dropped = chain
    del chain
    return _spread(inverse_zeta_tally(box.pop(), p), dropped + free, doubled)


def _naive_counts(family: str, n: int, p: int) -> tuple[int, ...]:
    bits = n - mask_offset(family)
    if bits > NAIVE_MAX_BITS:
        raise _SweepTooLarge(
            f"naive sweep needs 2^{bits} indices; the budget is 2^{NAIVE_MAX_BITS}"
        )
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

    A term is the ``ribbon._first_step`` weight of its lowest descent times
    the multinomial C(n, d_1) C(n - d_1, d_2 - d_1) ..., so ``_chain_table``
    builds the terms from the seeds weight * C(n, base) and the constants
    C(n - a, b - a) = C(n, b) C(b, a) / C(n, a), each binomial mod p from
    ``lucas_binomial`` on the positions.  C(n, a) is a unit mod p at every
    support position but type D's adjoined 1, where 0 stands in for its
    inverse: there every chain from 0 through 1 is 0 (no support position
    is digitwise above 1), and the type-D copy overwrites the chains that
    start at 1.  Agrees with ``term_mod_p`` on every mask.  Every seed is a
    unit mod p, so ``_chain_table`` drops no position, except at p = 2 in
    types B and D: every weight there is even, so every position but type
    D's 0 and 1 is dropped (``cvec_theorem`` answers those by parity).
    """
    top = [lucas_binomial(n, d, p) for d in pos]
    inv = [pow(t, -1, p) if t else 0 for t in top]
    # C(n, base) of each position's first step (a type-D base 0 is pos[0])
    binom = dict(zip(pos, top))
    first = _first_step(family, n, lambda e: pow(2, e, p))
    seeds = [weight * binom[base] % p for weight, base in map(first, pos)]
    return _chain_table(
        family, p, seeds,
        lambda h, k: top[h] * lucas_binomial(pos[h], pos[k], p) * inv[k] % p,
    )


def _theorem_counts(family: str, n: int, p: int) -> tuple[int, ...]:
    # the support's size is refused from the digits of n, before the set
    # or anything of its size is made
    nd = base_p_digits(n, p)
    m = _support_size(family, nd)
    if m > SUPPORT_MAX:
        raise _SweepTooLarge(
            f"support sweep needs 2^{m} subsets; the budget is 2^{SUPPORT_MAX}"
        )
    pos = support_set(family, n, p)
    free = n - mask_offset(family) - m
    # the subsets without the top position are closed under submasks, so
    # the butterfly over them alone is exact; their complements are the
    # subsets with it (module docstring)
    return _chain_counts(_term_table(family, n, p, pos[:-1]), p, free, bool(pos))


def cvec_theorem(family: str, n: int, p: int) -> DimensionPVector:
    """Dimension p-vector by the digit method; never enumerates the lattice."""
    _check_query(family, n, p)
    low = _THEOREM_MIN_N[family]
    if n < low:
        raise ValueError(f"the theorem method needs n >= {low} in type {family}")
    if p == 2 and family in ("B", "D"):
        # every type-B/D ribbon number is odd: the 2^n indices are n
        # doublings of the empty mask's residue 1 (at p = 2, -r = r)
        return DimensionPVector(family, n, p, _spread((0, 1), n, False), "theorem")
    return DimensionPVector(family, n, p, _theorem_counts(family, n, p), "theorem")


# ---------------------------------------------------------------------------
# closed forms


class NoClosedFormError(LookupError):
    """No closed form applies to the requested (family, n, p)."""


def cvec_closed_form(family: str, n: int, p: int):
    """The dimension p-vector of n from that of n*, the least n of the same
    shape, swept by the naive method; None when n* is past its budget.

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
        the digit sum of n - s, which the move keeps; the type-D
        first-part rule (``ribbon._first_step``) treats a lowest descent
        s <= 1 apart, which reads place 0 alone, so type D keeps n_0 in
        place 0, and with it the adjoined 1.

    The support's size and whether it has a top position follow the
    digits too, so only the free count differs, by n - n*, and n's vector
    is n*'s spread over n - n* more free positions (when n* has a free
    position its vector is already symmetric under r <-> -r, and the
    spread only doubles it).  n* puts the digits in descending order from
    place 0 (type D from place 1, after n_0).  Types B and D at p = 2 take
    the parity answer, as ``cvec_theorem`` does, and below the theorem
    method's least n, whose tally the rule reduces, the answer is None.
    The provenance tag is ``closed-form:shape`` (``closed-form:parity``).
    """
    _check_query(family, n, p)
    if n < _THEOREM_MIN_N[family]:
        return None
    if p == 2 and family != "A":
        return DimensionPVector(family, n, p, _spread((0, 1), n, False), "closed-form:parity")
    digits = base_p_digits(n, p)
    fixed = digits[:1] if family == "D" else ()
    shape = fixed + tuple(sorted(filter(None, digits[len(fixed):]), reverse=True))
    # n* grows with each digit placed, so a shape of many digits stops
    # after a few, before p**j grows with them
    least = 0
    for j, d in enumerate(shape):
        least += d * p**j
        if least - mask_offset(family) > NAIVE_MAX_BITS:
            return None
    counts = _spread(_naive_counts(family, least, p), n - least, False)
    return DimensionPVector(family, n, p, counts, "closed-form:shape")


# ---------------------------------------------------------------------------
# dispatch


def cvec(family: str, n: int, p: int, method: str = "auto") -> DimensionPVector:
    """Compute the dimension p-vector by the requested method.

    ``auto`` prefers the closed form (the shape rule, which answers None
    when the least n of n's shape is past the naive budget, or n is below
    the theorem method's least n), then the theorem method, then the naive
    sweep.  Only a sweep past its own size budget passes the query on to
    the next route, and when both sweeps on n are past theirs, the
    ``CapacityError`` names both.  Any other refusal, such as a vector
    past RESULT_BITS_MAX, holds for every route and ends the call.  Each
    method's function checks the arguments.
    """
    if method not in ("auto", "naive", "theorem", "closed"):
        raise ValueError(f"unknown method {method!r}")
    if method == "naive":
        return cvec_naive(family, n, p)
    if method == "theorem":
        return cvec_theorem(family, n, p)
    vec = cvec_closed_form(family, n, p)
    if vec is not None:
        return vec
    if method == "closed":
        raise NoClosedFormError(f"no closed form applies to ({family}, n={n}, p={p})")
    if n < _THEOREM_MIN_N[family]:
        return cvec_naive(family, n, p)
    try:
        return cvec_theorem(family, n, p)
    except _SweepTooLarge as exc:
        refused = exc
    try:
        return cvec_naive(family, n, p)
    except CapacityError as exc:
        raise CapacityError(f"theorem route: {refused}; naive route: {exc}") from None


# ---------------------------------------------------------------------------
# symmetric-group side counts


def partitions(n: int, _max: int | None = None):
    """Weakly decreasing positive tuples summing to n, largest part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    top = n if _max is None or _max > n else _max
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def standard_tableau_count(shape) -> int:
    """Number of standard fillings of a partition shape (hook products)."""
    shape = tuple(shape)
    if not shape or any(a < 1 for a in shape):
        raise ValueError("shape parts must be positive")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must be weakly decreasing")
    n = sum(shape)
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(n) // hooks


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

    A digit past MACDONALD_DIGIT_MAX, or digits whose series and product
    are estimated past MACDONALD_COST_MAX bit steps (about n_j^2 * s_j
    for the series of digit n_j, whose coefficients have about
    s_j = n_j * log2(p^j) bits, plus (sum of the s_j)^2 / 30, a bound on
    the balanced product of the coefficients), is refused with
    CapacityError before any series is built."""
    digits = base_p_digits(n, p)
    if n < 1:
        raise ValueError("n must be positive")
    if max(digits) > MACDONALD_DIGIT_MAX:
        raise CapacityError(f"base-{p} digit {max(digits)} of n is past the budget of {MACDONALD_DIGIT_MAX}")
    series = size = 0
    for j, nj in enumerate(digits):
        if nj:
            bits = nj * (p**j).bit_length()
            series += nj * nj * bits
            size += bits
            cost = series + size * size // 30
            if cost > MACDONALD_COST_MAX:
                raise CapacityError(
                    f"the base-{p} digits of n cost at least {cost:.2e} bit steps"
                    f" to expand; the budget is {MACDONALD_COST_MAX:.2e}"
                )
    return _tree_product([_colored_partition_count(nj, p**j) for j, nj in enumerate(digits) if nj])


def _tree_product(values: list[int]) -> int:
    # multiply neighbours round by round, so that each big-int product joins
    # factors of about the same size: quasi-linear in the total bits, where
    # a running product is quadratic
    while len(values) > 1:
        values = [prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1
