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
    moduli, never widths.  Each dropped position e comes back by the
    transform identity beta(T + e) = -beta(T), for every T without e: with
    d >= 1 of them dropped the tally t becomes 2^(d - 1) (t[r] +
    t[-r mod p]) (``_chain_tally``).  Only the lower half of
    the lattice is tallied, the masks without the top descent (closed under
    submasks, so the butterfly over them is exact), and the tally doubles,
    by complement symmetry: bit b of a mask stands for the generator
    s_(b + mask_offset) of ``coxeter.builtin_diagram`` (type A numbered
    from 1; types B and D from 0, with s_0, s_1 the fork tips in type D),
    and the covering count of a mask is the coset count |W| / |W_(S - J)|
    of its generator set J: for the parts a_0, a_1, ... S - J splits into
    B_(a_0) (type B) or D_(a_0) (type D, a_0 >= 2) times A_(a_i - 1) for
    i >= 1, and in type D a first part of 1 (a lone descent at 1) leaves
    s_0 on the path s_0 - s_2 - ..., as a descent at 0 leaves s_1.  So the
    ribbon number of a mask is the size of the descent class of J, and
    w -> w0 w maps that class onto the class of S - J, since
    l(w0 w) = l(w0) - l(w) turns every right descent into an ascent and
    back (Bjorner and Brenti, *Combinatorics of Coxeter Groups*, Prop.
    2.3.2).  The complement of a half mask has the top descent, so the
    upper half repeats the lower one's ribbon numbers.  The tests check
    the numbering against ``coxeter.ribbon_general`` (n <= 6) and the
    doubled tally against a sweep of the whole lattice (n <= 12).  The
    theorem method mirrors its sweep by the same symmetry.
  * ``cvec_theorem``  -- the digit method.  Only descent positions whose
    base-p digits are bounded by the digits of n can carry surviving
    refinement terms; sweeping the subsets T of that support set and
    weighting the residue tally by powers of two gives the vector without
    ever enumerating the index lattice, so n may be astronomically large
    as long as the support stays small.  The support's size is read off the
    digits of n and refused past 2^SUPPORT_MAX subsets before the support
    is made.  For m support positions it fills the terms of the 2^(m - 1)
    subsets without the top position by the naive method's
    ``_chain_table``, with O(m^2) block constants from Lucas binomials on
    digit tuples made once per position, runs the same packed butterfly
    and tally over them (closed under submasks, so exact), and mirrors the
    tally onto the subsets with the top position.
    The mirror is complement symmetry: an index with descent set D and
    T = D & S has beta(D) = (-1)^|D - S| r(T) mod p, where r(T) is the
    residue of T and free the number of positions outside S; beta(D) =
    beta(D^c) and D^c & S = S - T, so r(S - T) = (-1)^free r(T), and the
    tally over all subsets is full[r] = half[r] + half[(-1)^free r mod p].
    Plain doubling would tally wrongly when free is odd.  An empty
    support (type A, n = p^d) keeps its one self-complementary subset.
    The seeds come from ``ribbon._first_step``, the first-step rule (the
    power-of-two weight and binomial base of the lowest descent) that the
    chain kernel of ``ribbon_exact`` and ``ribbon_mod_p`` runs, so the
    family rules, type D's included, are stated once, for every prime.
  * ``cvec_closed_form`` -- closed forms for special digit patterns of n
    (single nonzero digit, digits all 0/1, and a handful of type-D shapes).
    A single digit m at p^d (types A, B) runs the naive method on m; every
    other pattern picks one entry of a frozen table of exact residue
    tallies.  Every pattern leaves the positions outside the support free.

``cvec`` dispatches: closed form if one applies, else theorem, else naive.
Every p-vector has p entries, so a prime past the index budget
2^NAIVE_MAX_BITS is refused with ``CapacityError`` before any work.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import mul

from .arith import (
    base_p_digits,
    check_prime,
    field_buffer,
    field_scaler,
    inverse_zeta_tally,
    lucas_binomial,
    residue_tally,
)
from .compositions import CapacityError, _Record, mask_offset
from .ribbon import _check_family, _first_step

# Full index-lattice sweeps (naive method) and support-subset sweeps
# (theorem method) are capped to keep memory and time sane.  The index
# budget also caps p, the length of every residue tally.
NAIVE_MAX_BITS = 26
SUPPORT_MAX = 22

# The least n of the theorem route, by family: support_set and cvec_theorem
# refuse a smaller n, cvec sweeps it naively, and no closed form applies
# below it in type D
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


def _check_tally_prime(p: int) -> None:
    # refuse a prime whose p-entry residue tally would be past the index
    # budget, before anything of size p is allocated
    check_prime(p)
    if p > 1 << NAIVE_MAX_BITS:
        raise CapacityError(
            f"a tally of {p} residue classes is past the budget of 2^{NAIVE_MAX_BITS}"
        )


def _check_query(family: str, n: int, p: int) -> None:
    # the argument gate of every cvec method: family, prime, and an int n at
    # least the family minimum (a bool is refused, as check_prime refuses it)
    _check_family(family)
    _check_tally_prime(p)
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
    _check_family(family)
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
    where bits = n - mask_offset(family) >= 1) are over the other bits - 1
    positions, and entry mask, for every mask over the positions kept, is
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
        seeds.append((comb(n, d) << shift) % p)
    return _chain_table(family, p, seeds, lambda h, k: comb(n - k - lo, h - k))


def _chain_tally(chain, p: int) -> list[int]:
    """The residue tally of the subset transform over every mask of the
    positions of a ``_chain_table``, from its (table, dropped) pair.

    The table is handed to ``arith.inverse_zeta_tally`` as a temporary, so
    its fields are freed once its planes are made.  A dropped position e
    holds 0 on every mask through it, so the transform gives
    beta(T + e) = -beta(T) for every T without e: the masks of d >= 1
    dropped positions spread each residue r of the table's tally t over
    2^(d - 1) copies of r and as many of -r, t[r] <- 2^(d - 1) (t[r] +
    t[-r mod p]).
    """
    *box, dropped = chain
    del chain
    tally = inverse_zeta_tally(box.pop(), p)
    if dropped:
        tally = [(tally[r] + tally[-r % p]) << (dropped - 1) for r in range(p)]
    return tally


def _naive_tally(family: str, n: int, p: int) -> list[int]:
    bits = n - mask_offset(family)
    if bits > NAIVE_MAX_BITS:
        raise CapacityError(
            f"naive sweep needs 2^{bits} indices; the budget is 2^{NAIVE_MAX_BITS}"
        )
    if not bits:
        # A n = 1: the one index is its own complement, with ribbon number 1
        return residue_tally({1: 1}, p)
    # field mask becomes the ribbon number mod p of the index with that
    # descent mask; the masks with the top descent are the complements of
    # the half, with the same ribbon numbers, so each count doubles
    return [2 * c for c in _chain_tally(_weight_table(family, n, p), p)]


def cvec_naive(family: str, n: int, p: int) -> DimensionPVector:
    """Histogram of all ribbon numbers mod p, by sweeping the index lattice."""
    _check_query(family, n, p)
    return DimensionPVector(family, n, p, tuple(_naive_tally(family, n, p)), "naive")


# ---------------------------------------------------------------------------
# theorem method: support-subset sweep


def _assemble(p: int, tally: list[int], free: int) -> tuple[int, ...]:
    """The p-vector from a residue tally over the support patterns.

    free = number of descent positions outside the support; each support
    pattern is shared by 2^free indices.  When p is odd and some free
    position exists, half of those indices flip the sign of the residue,
    pairing i with p - i.  Every entry is a weight shifted left, as in the
    paper's shorthand 2^k (a_0, ..., a_(p-1)); each distinct weight is
    shifted once, so equal entries are one int object, not copies of a
    number that may be megabytes long.
    """
    if p == 2 or free == 0:
        weights, shift = tally, free
    else:
        weights = [2 * tally[0]] + [tally[i] + tally[p - i] for i in range(1, p)]
        shift = free - 1
    shifted = {w: w << shift for w in set(weights)}
    return tuple(shifted[w] for w in weights)


def _term_table(family: str, n: int, p: int, pos: tuple[int, ...]):
    """g[mask] = the refinement term of the descent set picked by mask
    from the sorted support positions ``pos``, reduced mod p, in a
    ``field_buffer`` for p.

    A term is the ``ribbon._first_step`` weight of its lowest descent times
    the multinomial C(n, d_1) C(n - d_1, d_2 - d_1) ..., so ``_chain_table``
    builds the terms from the seeds weight * C(n, base) and the constants
    C(n - a, b - a) = C(n, b) C(b, a) / C(n, a), by Lucas's theorem on digit
    tuples made once per position.  C(n, a) is a unit mod p at every
    support position but type D's adjoined 1, where 0 stands in for its
    inverse: there every chain from 0 through 1 is 0 (no support position
    is digitwise above 1), and the type-D copy overwrites the chains that
    start at 1.  Agrees with ``term_mod_p`` on every mask.  Every seed is a
    unit mod p, so ``_chain_table`` drops no position, except at p = 2 in
    types B and D: every weight there is even, so every position but type
    D's 0 and 1 is dropped (``cvec_theorem`` answers those by parity).
    """
    nd = base_p_digits(n, p)
    digits = [base_p_digits(d, p) for d in pos]
    top = [lucas_binomial(nd, dd, p) for dd in digits]
    inv = [pow(t, -1, p) if t else 0 for t in top]
    # C(n, base) of each position's first step (a type-D base 0 is pos[0])
    binom = dict(zip(pos, top))
    first = _first_step(family, n, lambda e: pow(2, e, p))
    seeds = [weight * binom[base] % p for weight, base in map(first, pos)]
    return _chain_table(
        family, p, seeds,
        lambda h, k: top[h] * lucas_binomial(digits[h], digits[k], p) * inv[k] % p,
    )


def _theorem_tally(family: str, n: int, p: int) -> tuple[list[int], int]:
    # the support's size is refused from the digits of n, before the set
    # or anything of its size is made
    nd = base_p_digits(n, p)
    m = _support_size(family, nd)
    if m > SUPPORT_MAX:
        raise CapacityError(
            f"support sweep needs 2^{m} subsets; the budget is 2^{SUPPORT_MAX}"
        )
    pos = support_set(family, n, p)
    free = n - mask_offset(family) - m
    if not pos:
        # type A, n = p^d: the one subset is its own complement
        return _chain_tally(_term_table(family, n, p, pos), p), free
    # the subsets without the top position are closed under submasks, so
    # the butterfly over them alone is exact; their complements, the
    # subsets with it, have the residues r(S - T) = (-1)^free r(T) (module
    # docstring), so the whole tally is the half one plus its signed mirror
    half = _chain_tally(_term_table(family, n, p, pos[:-1]), p)
    sign = -1 if free % 2 else 1
    return [half[r] + half[sign * r % p] for r in range(p)], free


def cvec_theorem(family: str, n: int, p: int) -> DimensionPVector:
    """Dimension p-vector by the digit method; never enumerates the lattice."""
    _check_query(family, n, p)
    low = _THEOREM_MIN_N[family]
    if n < low:
        raise ValueError(f"the theorem method needs n >= {low} in type {family}")
    if p == 2 and family in ("B", "D"):
        # every type-B/D ribbon number is odd
        counts = (0, 1 << n)
        return DimensionPVector(family, n, p, counts, "theorem")
    tally, free = _theorem_tally(family, n, p)
    return DimensionPVector(family, n, p, _assemble(p, tally, free), "theorem")


# ---------------------------------------------------------------------------
# closed forms


class NoClosedFormError(LookupError):
    """No closed form applies to the requested (family, n, p)."""


# Exact residue tallies {value: count} of the closed-form rules, one count
# per subset of the support, keyed by (family, rule, number of nonzero
# base-p digits of n) and reduced mod p on use.  The p-powers rows (n a sum
# of k distinct powers of p) tally, over every subset of the proper
# sub-sums, a chain statistic of the nonempty ones: signed chain counts
# (type A) or 2-weighted ones (type B), as rebuilt by
# test_rule_table_p_powers_rows_from_chain_statistics; the other rows come
# from the support-subset analysis of their digit shapes.
_RULES = {
    ("A", "p-powers", 2): {1: 1, 0: 2, -1: 1},
    ("A", "p-powers", 3): {1: 2, 0: 30, -1: 30, -2: 2},
    ("A", "p-powers", 4): {5: 1, -5: 1, 4: 6, -4: 6, 3: 81, -3: 81,
                           2: 672, -2: 672, 1: 3630, -1: 3630, 0: 7604},
    ("A", "2p^d+p^e", 2): {0: 6, 1: 6, -1: 2, -2: 2},
    ("B", "p-powers", 2): {1: 2, -1: 4, -3: 2},
    ("D", "p^d", 1): {1: 1, 0: 2, -1: 1},
    ("D", "2p^d", 1): {1: 3, -1: 3, 3: 1, -3: 1},
    ("D", "3p^d", 1): {1: 1, -1: 1, 3: 4, -3: 4, 5: 1, -5: 1, 7: 1, -7: 1, 11: 1, -11: 1},
    ("D", "1+p^d", 2): {1: 4, -1: 4},
    ("D", "p^a+p^b", 2): {1: 10, -1: 4, -3: 2},
}


def _closed_rule(family: str, nonzero) -> str | None:
    # the rule named by the nonzero (position, digit) pairs of n; whether it
    # holds for this many digits is up to _RULES
    digits = sorted(d for _, d in nonzero)
    if family == "D" and len(digits) == 1:
        return {1: "p^d", 2: "2p^d", 3: "3p^d"}.get(digits[0])
    if digits == [1] * len(digits):
        if family != "D":
            return "p-powers"
        return "1+p^d" if nonzero[0][0] == 0 else "p^a+p^b"
    return "2p^d+p^e" if digits == [1, 2] else None


def cvec_closed_form(family: str, n: int, p: int):
    """The dimension p-vector when n matches a pattern with a closed form.

    Returns None when no pattern applies.  The provenance tag records the
    pattern, e.g. ``closed-form:p^a+p^b``.
    """
    _check_query(family, n, p)
    if family == "D" and n < _THEOREM_MIN_N[family]:
        return None
    if p == 2 and family != "A":
        return DimensionPVector(family, n, p, (0, 1 << n), "closed-form:parity")
    digits = base_p_digits(n, p)
    nonzero = [(j, d) for j, d in enumerate(digits) if d]
    if family != "D" and len(nonzero) == 1 and nonzero[0][0] >= 1:
        rule = "m*p^d"
        tally = _naive_tally(family, nonzero[0][1], p)
    else:
        rule = _closed_rule(family, nonzero)
        raw = _RULES.get((family, rule, len(nonzero)))
        if raw is None:
            return None
        tally = residue_tally(raw, p)
    free = n - mask_offset(family) - _support_size(family, digits)
    return DimensionPVector(family, n, p, _assemble(p, tally, free), f"closed-form:{rule}")


# ---------------------------------------------------------------------------
# dispatch


def cvec(family: str, n: int, p: int, method: str = "auto") -> DimensionPVector:
    """Compute the dimension p-vector by the requested method.

    ``auto`` prefers a closed form, then the theorem method, then the
    naive sweep; when both sweeps are past their budgets, the
    ``CapacityError`` names both, also where the m*p^d closed form's naive
    sweep on m was past its own.  Each method's function checks the
    arguments.
    """
    if method not in ("auto", "naive", "theorem", "closed"):
        raise ValueError(f"unknown method {method!r}")
    if method == "naive":
        return cvec_naive(family, n, p)
    if method == "theorem":
        return cvec_theorem(family, n, p)
    # past the argument checks, a closed form refuses only its naive sweep on m
    _check_query(family, n, p)
    try:
        vec = cvec_closed_form(family, n, p)
    except CapacityError:
        if method == "closed":
            raise
        vec = None
    if vec is not None:
        return vec
    if method == "closed":
        raise NoClosedFormError(f"no closed form applies to ({family}, n={n}, p={p})")
    if n < _THEOREM_MIN_N[family]:
        return cvec_naive(family, n, p)
    try:
        return cvec_theorem(family, n, p)
    except CapacityError as exc:
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
