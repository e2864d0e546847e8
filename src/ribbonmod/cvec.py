"""Dimension p-vectors: how many ribbon numbers fall in each class mod p.

For a family F in {A, B, D}, the vector counts the indices alpha (of the
2^(n-1) compositions in type A, the 2^n pseudo-compositions otherwise)
whose ribbon number is congruent to each residue mod p.  Three methods:

  * ``cvec_naive``    -- reduce every ribbon number mod p and tally.  The
    whole index lattice is processed at once with an inclusion-exclusion
    butterfly over exact multinomial weights, so nothing here touches the
    digit machinery used by the other two methods.  The weight table is
    built block by block (the masks with top descent d are scaled copies
    of the blocks below, one constant per block; the B/D first-part
    weights are one strided slice per lowest descent) and kept for the
    next prime; the butterfly is ``arith.inverse_zeta`` on packed integer
    fields.
  * ``cvec_theorem``  -- the digit method.  Only descent positions whose
    base-p digits are bounded by the digits of n can carry surviving
    refinement terms; sweeping the subsets T of that support set and
    weighting the residue tally by powers of two gives the vector without
    ever enumerating the index lattice, so n may be astronomically large
    as long as the support stays small.  For m support positions it builds
    an O(m^2) table of Lucas binomials between positions, fills the 2^m
    subset terms by extending digitwise chains one position at a time (all
    other terms are 0), and runs the O(m 2^m) inclusion-exclusion
    butterfly.
  * ``cvec_closed_form`` -- closed forms for special digit patterns of n
    (single nonzero digit, digits all 0/1, and a handful of type-D shapes).
    A single digit m at p^d (types A, B) runs the naive method on m; every
    other pattern picks one entry of a frozen table of exact residue
    tallies and support sizes.

``cvec`` dispatches: closed form if one applies, else theorem, else naive.
Every p-vector has p entries, so a prime past the index budget
2^NAIVE_MAX_BITS is refused with ``CapacityError`` before any work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

from .arith import base_p_digits, check_odd_prime, check_prime, inverse_zeta, lucas_binomial
from .compositions import CapacityError
from .ribbon import _check_family, chain_mod_p

# Full index-lattice sweeps (naive method) and support-subset sweeps
# (theorem method) are capped to keep memory and time sane.  The index
# budget also caps p, the length of every residue tally.
NAIVE_MAX_BITS = 26
SUPPORT_MAX = 22


def _check_tally_prime(p: int) -> None:
    # refuse a prime whose p-entry residue tally would be past the index
    # budget, before anything of size p is allocated
    check_prime(p)
    if p > 1 << NAIVE_MAX_BITS:
        raise CapacityError(
            f"a tally of {p} residue classes is past the budget of 2^{NAIVE_MAX_BITS}"
        )


@dataclass(frozen=True)
class DimensionPVector:
    """Length-p vector of exact counts, one per residue class, with provenance."""

    family: str
    n: int
    p: int
    counts: tuple[int, ...]
    method: str = field(compare=False, default="naive")

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("counts must have one entry per residue class")

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class SupportSet:
    """Descent positions that can carry mod-p survivors, for one (family, n, p)."""

    family: str
    n: int
    p: int
    elements: tuple[int, ...]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def support_set(family: str, n: int, p: int) -> SupportSet:
    """The family-adjusted set of digit-bounded sums of powers of p.

    Starting from all sums b_0 + b_1 p + ... with 0 <= b_j <= (j-th digit
    of n): family A drops {0, n}, family B drops {n}, family D adjoins {1}
    and drops {n}.
    """
    _check_family(family)
    check_prime(p)
    if family == "D":
        if n < 4:
            raise ValueError("the type-D support set needs n >= 4")
        check_odd_prime(p)
    else:
        if n < 2:
            raise ValueError("the support set needs n >= 2")
        if family == "B":
            check_odd_prime(p)
    digits = base_p_digits(n, p).digits
    vals = [0]
    for j, dj in enumerate(digits):
        if dj == 0:
            continue
        if len(vals) * (dj + 1) > 1 << SUPPORT_MAX:
            raise CapacityError("support set too large to materialize")
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
    return SupportSet(family, n, p, tuple(sorted(base)))


def support_residue(family: str, subset, n: int, p: int) -> int:
    """Residue contributed by one support subset T.

    The alternating sum, over (pseudo-)compositions beta with descents
    inside T whose digit rows survive the vanishing test, of the Dickson
    digit product (with the family's power-of-two weights, and the type-D
    first-part adjustment), evaluated as one chain sum over T.  Every index
    whose descent pattern restricted to the support equals T has ribbon
    number congruent to +/- this value.
    """
    sup = support_set(family, n, p)
    T = tuple(sorted(set(subset)))
    if not set(T) <= set(sup.elements):
        raise ValueError("subset must lie inside the support set")
    return chain_mod_p(family, n, T, p)


# ---------------------------------------------------------------------------
# naive method: butterfly over the full index lattice


def _multinomial_table(n: int, lo: int) -> list[int]:
    # out[mask] = multinomial of the composition whose descent set is mask,
    # where bit b encodes descent position b + lo.  The masks whose top bit
    # is h (top descent d = h + lo) form the block [2^h, 2^(h+1)).  Adding d
    # above a rest whose top descent is t splits the last part n - t into
    # d - t and n - d, which multiplies the multinomial by C(n - t, d - t);
    # so block h is 2^h scaled copies of the blocks below it, one constant
    # per lower block (t = k + lo on block k, and t = 0 for the empty rest).
    bits = n - 1 if lo else n
    out = [1]
    for h in range(bits):
        d = h + lo
        out.append(comb(n, d))
        for k in range(h):
            t = k + lo
            c = comb(n - t, d - t)
            out += [c * x for x in out[1 << k:2 << k]]
    return out


@lru_cache(maxsize=4)
def _exact_weight_table(family: str, n: int) -> tuple[int, ...]:
    """Covering counts indexed by descent mask: the number of group elements
    whose descent set is contained in the mask's descent set."""
    if family == "A":
        return tuple(_multinomial_table(n, 1))
    mult = _multinomial_table(n, 0)
    out = [1] * len(mult)
    # the masks whose lowest descent is f are the stride [2^f :: 2^(f+1)];
    # in type B their covering count is the multinomial times 2^(n - f)
    for f in range(n):
        source = slice(1 << f, None, 2 << f)
        weight = 1 << (n - f)
        if family == "D" and f < 2:
            # a first part of at most 1 halves the weight, and a lone
            # descent at 1 counts as one at 0: mask 4j + 2 reads 4j + 1
            weight = 1 << (n - 1)
            if f == 1:
                source = slice(1, None, 4)
        out[1 << f::2 << f] = [weight * x for x in mult[source]]
    return tuple(out)


def _tally(counts, p: int) -> list[int]:
    # residue tally [#0, ..., #(p-1)] from {value: count}, values taken mod p
    tally = [0] * p
    for v, c in counts.items():
        tally[v % p] += c
    return tally


def _naive_tally(family: str, n: int, p: int) -> list[int]:
    bits = n - 1 if family == "A" else n
    if bits > NAIVE_MAX_BITS:
        raise CapacityError(
            f"naive sweep needs 2^{bits} indices; the budget is 2^{NAIVE_MAX_BITS}"
        )
    vals = list(_exact_weight_table(family, n))
    inverse_zeta(vals, p)
    # vals[mask] is now the ribbon number of the index with that descent mask
    return _tally(Counter(vals), p)


def cvec_naive(family: str, n: int, p: int) -> DimensionPVector:
    """Histogram of all ribbon numbers mod p, by sweeping the index lattice."""
    _check_family(family)
    _check_tally_prime(p)
    if n < 1 or (family == "D" and n < 2):
        raise ValueError(f"n={n} out of range for family {family}")
    return DimensionPVector(family, n, p, tuple(_naive_tally(family, n, p)), "naive")


# ---------------------------------------------------------------------------
# theorem method: support-subset sweep


def _assemble(p: int, tally: list[int], free: int) -> tuple[int, ...]:
    # free = number of descent positions outside the support; each support
    # pattern is shared by 2^free indices.  When p is odd and some free
    # position exists, half of those indices flip the sign of the residue,
    # pairing i with p - i.
    if p == 2 or free == 0:
        return tuple(t << free for t in tally)
    counts = [tally[0] << free]
    shift = free - 1
    counts.extend((tally[i] + tally[p - i]) << shift for i in range(1, p))
    return tuple(counts)


def _term_table(family: str, n: int, p: int, pos: tuple[int, ...]) -> list[int]:
    """vals[mask] = the refinement term of the descent set picked by mask
    from the sorted support positions ``pos``, reduced mod p.

    By Lucas's theorem the multinomial of descents d_1 < ... < d_k is the
    chain product C(d_2, d_1) ... C(d_k, d_(k-1)) C(n, d_k) mod p, so the
    term of a mask follows from the term of the mask without its top bit by
    one factor of a pair table.  The family's power-of-two weight depends
    only on the lowest descent and seeds each chain.  A term is nonzero only
    when its descents form a chain in digitwise order, and only those masks
    are visited: past the O(m^2) pair table and the zeroed list, the fill
    costs O(m) per nonzero term.  Agrees with ``term_mod_p`` on every mask.
    """
    m = len(pos)
    digits = [base_p_digits(d, p).digits for d in pos]
    nd = base_p_digits(n, p).digits
    top = [lucas_binomial(nd, dd, p) for dd in digits]
    pair = [[lucas_binomial(digits[h], digits[i], p) for i in range(h)] for h in range(m)]
    if family == "A":
        first = [1] * m
    else:
        sn = sum(nd)
        first = [pow(2, sn - sum(dd), p) for dd in digits]
        if family == "D":
            # positions 0 and 1 give a first part of at most 1: the covering
            # count halves, and a lone descent at 1 acts as one at 0 (below)
            first[0] = pow(2, sn, p) * pow(2, p - 2, p) % p
            first[1] = 0
    g = [0] * (1 << m)
    g[0] = 1
    # (mask, value without the factor C(n, top descent), top index) of every
    # chain whose value is nonzero; a zero prefix is never extended
    chains: list[tuple[int, int, int]] = []
    for h in range(m):
        row = pair[h]
        bit = 1 << h
        grown = [(bit, first[h], h)] if first[h] else []
        grown += [(mask | bit, v * row[t] % p, h) for mask, v, t in chains if row[t]]
        c = top[h]
        for mask, v, _ in grown:
            g[mask] = v * c % p
        chains += grown
    if family == "D":
        # a descent at 1 without one at 0 merges into a descent at 0
        for mask, _, _ in chains:
            if mask & 3 == 1:
                g[mask ^ 3] = g[mask]
    return g


def _theorem_tally(family: str, n: int, p: int) -> tuple[list[int], int]:
    sup = support_set(family, n, p)
    pos = sup.elements
    m = len(pos)
    if m > SUPPORT_MAX:
        raise CapacityError(
            f"support sweep needs 2^{m} subsets; the budget is 2^{SUPPORT_MAX}"
        )
    vals = _term_table(family, n, p, pos)
    inverse_zeta(vals, p)
    tally = _tally(Counter(vals), p)
    free = (n - 1 - m) if family == "A" else (n - m)
    return tally, free


def cvec_theorem(family: str, n: int, p: int) -> DimensionPVector:
    """Dimension p-vector by the digit method; never enumerates the lattice."""
    _check_family(family)
    _check_tally_prime(p)
    if family == "D":
        if n < 4:
            raise ValueError("the theorem method needs n >= 4 in type D")
    elif n < 2:
        raise ValueError("the theorem method needs n >= 2")
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


# Exact residue tallies {value: count} and support sizes of the closed-form
# rules, keyed by (family, rule, number of nonzero base-p digits of n) and
# reduced mod p on use.  The p-powers rows (n a sum of k distinct powers of
# p) tally, over every subset of the proper sub-sums, a chain statistic of
# the nonempty ones: signed chain counts (type A) or 2-weighted ones (type
# B); test_rule_table_p_powers_rows_from_chain_statistics in
# tests/test_cvec.py rebuilds them.  The other rows come from the
# support-subset analysis of their digit shapes.
_RULES = {
    ("A", "p-powers", 2): ({1: 1, 0: 2, -1: 1}, 2),
    ("A", "p-powers", 3): ({1: 2, 0: 30, -1: 30, -2: 2}, 6),
    ("A", "p-powers", 4): (
        {5: 1, -5: 1, 4: 6, -4: 6, 3: 81, -3: 81, 2: 672, -2: 672, 1: 3630, -1: 3630, 0: 7604},
        14,
    ),
    ("A", "2p^d+p^e", 2): ({0: 6, 1: 6, -1: 2, -2: 2}, 4),
    ("B", "p-powers", 2): ({1: 2, -1: 4, -3: 2}, 3),
    ("D", "p^d", 1): ({1: 1, 0: 2, -1: 1}, 2),
    ("D", "2p^d", 1): ({1: 3, -1: 3, 3: 1, -3: 1}, 3),
    ("D", "3p^d", 1): ({1: 1, -1: 1, 3: 4, -3: 4, 5: 1, -5: 1, 7: 1, -7: 1, 11: 1, -11: 1}, 4),
    ("D", "1+p^d", 2): ({1: 4, -1: 4}, 3),
    ("D", "p^a+p^b", 2): ({1: 10, -1: 4, -3: 2}, 4),
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
    _check_family(family)
    _check_tally_prime(p)
    if n < 1 or (family == "D" and n < 2):
        raise ValueError(f"n={n} out of range for family {family}")
    if family == "D" and n < 4:
        return None
    if p == 2 and family != "A":
        return DimensionPVector(family, n, p, (0, 1 << n), "closed-form:parity")
    nonzero = [(j, d) for j, d in enumerate(base_p_digits(n, p).digits) if d]
    if family != "D" and len(nonzero) == 1 and nonzero[0][0] >= 1:
        rule = "m*p^d"
        m = nonzero[0][1]
        tally, free = _naive_tally(family, m, p), n - m
    else:
        rule = _closed_rule(family, nonzero)
        entry = _RULES.get((family, rule, len(nonzero)))
        if entry is None:
            return None
        raw, support = entry
        tally, free = _tally(raw, p), (n - 1 if family == "A" else n) - support
    return DimensionPVector(family, n, p, _assemble(p, tally, free), f"closed-form:{rule}")


# ---------------------------------------------------------------------------
# dispatch


def cvec(family: str, n: int, p: int, method: str = "auto") -> DimensionPVector:
    """Compute the dimension p-vector by the requested method.

    ``auto`` prefers a closed form, then the theorem method, then the
    naive sweep.
    """
    _check_family(family)
    _check_tally_prime(p)
    if n < 1 or (family == "D" and n < 2):
        raise ValueError(f"n={n} out of range for family {family}")
    if method == "naive":
        return cvec_naive(family, n, p)
    if method == "theorem":
        return cvec_theorem(family, n, p)
    if method == "closed":
        vec = cvec_closed_form(family, n, p)
        if vec is None:
            raise NoClosedFormError(f"no closed form applies to ({family}, n={n}, p={p})")
        return vec
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    vec = cvec_closed_form(family, n, p)
    if vec is not None:
        return vec
    if n >= (4 if family == "D" else 2):
        try:
            return cvec_theorem(family, n, p)
        except CapacityError:
            pass
    return cvec_naive(family, n, p)


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
    # coefficient of x^m in prod_{i >= 1} (1 - x^i)^(-colors)
    coeffs = [1] + [0] * m
    for i in range(1, m + 1):
        new = coeffs[:]
        t = 1
        while i * t <= m:
            c = comb(colors + t - 1, t)
            for idx in range(i * t, m + 1):
                new[idx] += c * coeffs[idx - i * t]
            t += 1
        coeffs = new
    return coeffs[m]


def macdonald_mp(n: int, p: int) -> int:
    """How many irreducible symmetric-group representations of S_n have
    dimension coprime to p: the product over base-p digits n_j of the
    coefficient of x^(n_j) in prod_i (1 - x^i)^(-p^j)."""
    check_prime(p)
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    for j, nj in enumerate(base_p_digits(n, p)):
        if nj:
            result *= _colored_partition_count(nj, p**j)
    return result
