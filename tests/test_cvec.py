import functools
import importlib
import itertools
import pickle
import random
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from math import comb, factorial
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from ribbonmod.arith import (
    _POPCOUNT_TALLY_MAX_M,
    TALLY_MAX_BITS,
    base_p_digits,
    field_buffer,
    inverse_zeta_tally,
    is_prime,
    multinomial_exact,
    residue_tally,
)
from ribbonmod.compositions import (
    CapacityError,
    Composition,
    PseudoComposition,
    mask_offset,
)
from ribbonmod.cvec import (
    MACDONALD_COST_MAX,
    RESULT_BITS_MAX,
    SHAPE_MEMO_BYTES_MAX,
    SHAPE_MEMO_MAX_P,
    SHAPE_MEMO_SHAPES,
    SUPPORT_N_BITS_MAX,
    SUPPORT_SET_BITS_MAX,
    SWEEP_MAX_BITS,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    support_set,
    _chain_table,
    _colored_partition_count,
    _spread,
    _support_size,
    _term_table,
    _theorem_counts,
    _weight_table,
)
from ribbonmod.ribbon import _chain_sum, chain_mod_p, oracle_descent_class_sizes, ribbon_mod_p, term_mod_p
from conftest import indices, inverse_zeta_packed, traced_peak
from test_acceptance import SIZE_BITS, VECTOR_ROWS, _least_of_shape, _sweep_bits, partitions, standard_tableau_count
from test_arith import PATTERNS, _check_kernel_row, _moebius_reference

PRIMES = (2, 3, 5, 7, 11, 13)
ODD_PRIMES = (3, 5, 7, 11, 13)


# -- support sets -----------------------------------------------------------

def test_support_set_multiple_of_power():
    for p, m, d in ((3, 2, 2), (5, 4, 1), (7, 3, 2)):
        n = m * p**d
        assert support_set("A", n, p) == tuple(j * p**d for j in range(1, m))


def test_support_set_two_powers():
    for p in (2, 3, 5):
        for u, v in ((1, p), (p, p * p), (1, p**3)):
            assert support_set("A", u + v, p) == (u, v)
    for p in (3, 5):
        for u, v in ((1, p), (p, p * p)):
            assert support_set("B", u + v, p) == (0, u, v)


def test_support_set_sizes():
    for p in ODD_PRIMES:
        for n in range(2, 30):
            digits = base_p_digits(n, p)
            prod = 1
            for dj in digits:
                prod *= dj + 1
            assert len(support_set("A", n, p)) == prod - 2 == _support_size("A", digits)
            assert len(support_set("B", n, p)) == prod - 1 == _support_size("B", digits)
            if n >= 4:
                expected = prod if digits[0] == 0 else prod - 1
                assert len(support_set("D", n, p)) == expected == _support_size("D", digits)


def test_support_set_type_d_adjoins_one():
    sup = support_set("D", 9, 3)  # digits (0, 0, 1): the plain sums are {0, 9}
    assert sup == (0, 1)
    assert 1 in set(support_set("D", 12, 3))


def test_support_set_at_p_2_in_types_b_and_d():
    # base 2: the digit-bounded sums are the submasks of n; type B drops n,
    # type D adjoins 1 and drops n
    for n in range(4, 200):
        sums = {s for s in range(n + 1) if s & n == s}
        assert support_set("B", n, 2) == tuple(sorted(sums - {n})), n
        assert support_set("D", n, 2) == tuple(sorted((sums | {1}) - {n})), n


def test_theorem_tally_at_p_2_in_types_b_and_d_is_all_odd():
    # mod 2 every first-step weight is a positive power of 2, so only the
    # empty subset has a nonzero term and the route spreads it to (0, 2^n)
    # without the O(1) shortcut of cvec_theorem
    checked = 0
    for family in "BD":
        for n in range(4, 300):
            if _support_size(family, base_p_digits(n, 2)) > 14:
                continue
            assert _theorem_counts(family, n, 2) == (0, 1 << n), (family, n)
            checked += 1
    assert checked > 200


def test_support_set_and_macdonald_read_a_long_n_in_bounded_time():
    # 3^200000 + 1 has two digits 1 at p = 3; one division per digit read
    # them in about 7 s
    n = 3**200000 + 1
    start = time.process_time()
    assert support_set("A", n, 3) == (1, 3**200000)
    assert macdonald_mp(n, 3) == 3**200000
    assert time.process_time() - start < 1


def test_support_set_validation():
    # the support set and the theorem method refuse n below the family
    # minimum, 1 or 2 in type D, with the one message of the argument gate
    for family, n in (("A", 0), ("B", 0), ("D", 1)):
        for call in (support_set, cvec_theorem):
            with pytest.raises(ValueError, match=f"^n={n} out of range for family {family}$"):
                call(family, n, 3)


def test_theorem_route_answers_every_n_of_the_family():
    # the digit method holds from the family minimum on: at A and B n = 1
    # and D n = 2 and 3 it equals the naive sweep, and the support set is
    # the digit-bounded sums (C(n, s) != 0 mod p, by Lucas's theorem) less
    # {0, n} in type A and {n} in type B, with 1 adjoined and n dropped in
    # type D
    for family, n in (("A", 1), ("B", 1), ("D", 2), ("D", 3)):
        for p in (2, 3, 5, 7, 11, 13, 131, 257):
            assert cvec_theorem(family, n, p).counts == cvec_naive(family, n, p).counts, (family, n, p)
            bounded = {s for s in range(n + 1) if comb(n, s) % p}
            expected = bounded - {0, n} if family == "A" else bounded - {n} if family == "B" else (bounded | {1}) - {n}
            assert support_set(family, n, p) == tuple(sorted(expected)), (family, n, p)
    assert support_set("A", 1, 3) == () and support_set("D", 3, 3) == (0, 1)


# -- per-subset residues ----------------------------------------------------

def test_support_residue_two_powers_full_subset():
    for p in (3, 5, 7):
        u, v = 1, p
        assert chain_mod_p("A", u + v, (u, v), p) == p - 1


def test_support_residue_type_b_zero_subset():
    for p in (3, 5, 7):
        u, v = 1, p
        assert chain_mod_p("B", u + v, (0,), p) == 3 % p


def test_support_residue_type_d_prime_power():
    for p, d in ((3, 2), (5, 1), (7, 1)):
        assert chain_mod_p("D", p**d, (0, 1), p) == p - 1


def test_support_residue_large_n_in_bounded_memory():
    # two support positions at n = 3^18 + 1: the residue comes from their
    # digits alone, never from an n-bit descent mask per subset
    got, peak = traced_peak(lambda: chain_mod_p("A", 3**18 + 1, (1, 3**18), 3))
    assert got == 2
    assert peak < 2 << 20


def test_support_residue_matches_bulk_sweep():
    # the per-subset residues against the butterfly over the term table of
    # every support position; type D with a lowest digit 0 (so 1 is
    # adjoined) at p = 3, 5 and 7, and p = 2 in types B and D, where the
    # table drops positions and each dropped one doubles every residue
    # (-r = r mod 2)
    cases = (
        ("A", 8, 3), ("A", 10, 5), ("B", 7, 3), ("D", 8, 3), ("D", 10, 5),
        ("D", 12, 3), ("D", 18, 3), ("D", 14, 7), ("D", 21, 7),
        ("B", 6, 2), ("B", 11, 2), ("D", 6, 2), ("D", 12, 2), ("D", 13, 2),
    )
    for family, n, p in cases:
        pos = support_set(family, n, p)
        table, dropped = _term_table(family, n, p, pos)
        assert not dropped or p == 2, (family, n, p)
        tally = [t << dropped for t in inverse_zeta_tally(table, p)]
        recomputed = Counter()
        for mask in range(1 << len(pos)):
            subset = [pos[i] for i in range(len(pos)) if mask >> i & 1]
            recomputed[chain_mod_p(family, n, subset, p)] += 1
        assert [recomputed[i] for i in range(p)] == tally, (family, n, p)


def _digit_cache(p: int, width: int):
    """The ``digit_row`` argument of ``term_mod_p``: padded base-p digits,
    memoised per integer."""
    def row(m):
        digits = base_p_digits(m, p)
        return digits + (0,) * (width - len(digits))

    return functools.cache(row)


def _dead_positions(family, values, bits, p):
    # the positions of a lattice of 2^bits masks that are 0 mod p on every
    # mask through them, read off the values of all its masks; type D's
    # positions 0 and 1 count as live whatever they hold
    low = min(2, bits) if family == "D" else 0
    return [e for e in range(low, bits)
            if all(v % p == 0 for mask, v in enumerate(values) if mask >> e & 1)]


def _full_mask(mask, kept):
    # the mask over every position of a mask over the positions kept
    return sum(1 << e for i, e in enumerate(kept) if mask >> i & 1)


# supports of this many positions or more are checked by the edge row
# term-table-at-size of scripts/edges.py, not in tier-1
TERM_TABLE_SIZE = 10


def check_term_table(at_size=False):
    # the block-scaled chain table against the per-subset digit evaluation;
    # 11 and 13 have digits up to 12, 131 takes 1-byte fields without a
    # sign bit and 257 2-byte fields.  The table drops the positions whose
    # subsets all have a term of 0: none, but at p = 2 in types B and D,
    # where every first-step weight is even.  Supports of up to 12
    # positions: those below TERM_TABLE_SIZE, or with at_size the rest
    checked = 0
    for family in ("A", "B", "D"):
        for p in (2, 3, 5, 7, 11, 13, 131, 257):
            for n in range(4 if family == "D" else 2, 80):
                pos = support_set(family, n, p)
                if len(pos) > 12 or (len(pos) >= TERM_TABLE_SIZE) != at_size:
                    continue
                nd = base_p_digits(n, p)
                digit_row = _digit_cache(p, len(nd))
                inv2 = pow(2, p - 2, p) if p > 2 else 1
                table, dropped = _term_table(family, n, p, pos)
                # the descents of subset sel: those of sel without its top
                # bit h, then pos[h]
                chosen = [()]
                for d in pos:
                    chosen += [c + (d,) for c in chosen]
                terms = []
                for descents in chosen:
                    cuts = (0, *descents, n)
                    parts = tuple(map(sub, cuts[1:], cuts))
                    terms.append(term_mod_p(family, parts, nd, p, digit_row, inv2))
                dead = _dead_positions(family, terms, len(pos), p)
                want = 0 if p > 2 or family == "A" else len(pos) - 2 * (family == "D")
                assert dropped == len(dead) == want, (family, n, p)
                kept = [e for e in range(len(pos)) if e not in dead]
                assert len(table) == 1 << len(kept)
                for sel, got in enumerate(table):
                    assert got == terms[_full_mask(sel, kept)], (family, n, p, sel)
                checked += 1
    assert checked > (100 if at_size else 300)


def test_term_table_matches_term_mod_p():
    check_term_table()


def test_inverse_zeta_mod_matches_inclusion_exclusion():
    # sizes 2^0 .. 2^11, mod a prime, mod composites (|A12| + 1 among
    # them, 9-byte fields at 2^64 + 1) and mod a modulus past
    # 2^bits * max|v| (None)
    _check_kernel_row(range(12), (7, 6, 2**32, 2**64 + 1, factorial(13) + 1, None), "quadratic", ("bytes",), None)


def test_inverse_zeta_packed_field_widths():
    # the inputs are unreduced and partly negative; the moduli give 1-, 2-,
    # 4- and 8-byte fields and wide ones (9 bytes and more), prime or not,
    # and None exceeds 2^bits * max|v|, so the residues are the exact
    # signed values shifted into [0, m)
    rng = random.Random(5)
    moduli = (2, 6, 7, 251, 2**31 - 1, 2**32, 2**61 - 1, 2**63 - 1, 2**64 + 1, 2**89 - 1, None)
    _check_kernel_row(range(13), moduli, "signed", ("bytes",), rng)
    _check_kernel_row(range(13), (None,), "worst", ("bytes",), rng)
    for bits in range(13):  # the worst case reaches the field bound
        assert _moebius_reference(PATTERNS["worst"](rng, bits, None))[-1] == (1 << 64) - (1 << bits)
    _check_kernel_row((3,), (3, 2**68), "small", ("bytes",), rng)
    with pytest.raises(ValueError):
        inverse_zeta_packed(bytes([1, 2, 3]), 7)  # three fields


# The moduli sit on both sides of each power of two (m = 2^w adds nothing
# back after a borrow), of each field width and of the popcount/count
# crossover of the tally
PAIR_MODULI = (2, 3, 4, 5, 8, 9, 16, 17, 127, 128, 129, 131, 256, 257, _POPCOUNT_TALLY_MAX_M,
               _POPCOUNT_TALLY_MAX_M + 1, 32749, 32768, 32769, 65536, 65537, 2**32 - 5, 2**61 - 1, 2**80 + 13)


def test_inverse_zeta_packed_and_tally_match_pair_reference():
    # 2^0 .. 2^10 fields on little-endian bytes of field_width(m) bytes per
    # field (1, 2, 4, 8 and 11), on the field_buffer of each native modulus
    # (tallied up to 2^16 + 1) and on an array wider than the modulus
    # needs: random residues, every field m - 1, and m - 1 on the even
    # subsets with 0 on the odd ones
    rng = random.Random(11)
    for pattern in ("residues", "top", "even"):
        _check_kernel_row(range(11), PAIR_MODULI, pattern, ("bytes", "buffer", "wide"), rng)
    with pytest.raises(ValueError):
        inverse_zeta_packed(array("B", bytes(4)), 257)  # 1-byte fields are too narrow past 256
    with pytest.raises(ValueError):
        inverse_zeta_packed(bytes(6), 257)  # three 2-byte fields


def test_field_tally_matches_counter():
    # the butterfly's output is tallied by popcounts of its bit planes up to
    # the crossover and by one Counter pass over its fields above it, from
    # a field_buffer; both sides of the crossover are covered, and 1-, 2-
    # and 4-byte fields
    assert 509 <= _POPCOUNT_TALLY_MAX_M < 769
    _check_kernel_row((12,), (2, 53, 59, 127, 131, 257, 631, 641, 65537), "residues", ("buffer",), random.Random(8))


def _covering_count(family, n, mask):
    # the number of group elements whose descent set lies inside the mask's:
    # the multinomial of the mask's parts times the family's power of two;
    # in type D a lowest descent at 0 or 1 weighs 2^(n-1), and a lone
    # descent at 1 counts as one at 0
    cls = Composition if family == "A" else PseudoComposition
    first = (mask & -mask).bit_length() - 1
    source = mask
    if family == "A" or mask == 0:
        weight = 1
    elif family == "D" and first <= 1:
        weight = 1 << (n - 1)
        if first == 1:
            source = mask ^ 3
    else:
        weight = 1 << (n - first)
    return weight * multinomial_exact(n, cls.from_mask(n, source).parts)


def test_weight_table_matches_per_mask_reference():
    # the table holds the lower half of the lattice, the masks without the
    # top descent, over the positions it keeps.  Read off the covering
    # counts alone, every mask through a position it drops is 0 mod p, and
    # it drops every such position but type D's 0 and 1; every entry it
    # holds is the covering count mod p.  The primes give 1-byte fields (up
    # to 131), 2-byte (257) and 4-byte ones (65537); only those up to n
    # drop positions
    primes = (2, 3, 7, 127, 131, 257, 65537)
    dropping = set()
    for family in "ABD":
        for n in range(2 if family == "D" else 1, 11):
            bits = n - 1 if family == "A" else n
            if not bits:
                continue  # A n = 1 is answered without a table
            covers = [_covering_count(family, n, mask) for mask in range(1 << (bits - 1))]
            for p in primes:
                table, dropped = _weight_table(family, n, p)
                dead = _dead_positions(family, covers, bits - 1, p)
                assert dropped == len(dead), (family, n, p)
                kept = [e for e in range(bits - 1) if e not in dead]
                assert len(table) == 1 << len(kept), (family, n, p)
                for mask, got in enumerate(table):
                    assert got == covers[_full_mask(mask, kept)] % p, (family, n, p, mask)
                if dropped:
                    dropping.add(p)
    assert dropping == {2, 3, 7}


def test_chain_table_drops_only_all_zero_blocks():
    # a position is live when its seed is nonzero or a nonzero step links
    # it to a live lower position.  In the routes' tables a zero seed comes
    # with a zero step from every live position, as C(n, k) C(n - k, d - k)
    # = C(n, d) C(d, k), so only binomials made up here show the second
    # case, over positions 1, 2 and 3 of A n = 5: position 2 has a zero
    # seed C(5, 2) and a step C(4, 1) of 1 from position 1, position 3 a
    # zero seed C(5, 3) and zero steps C(4, 2) and C(3, 1)
    binom = {(5, 1): 1, (5, 2): 0, (5, 3): 0, (4, 1): 1, (4, 2): 0, (3, 1): 0}
    table, dropped = _chain_table("A", 5, 5, (1, 2, 3), lambda top, bottom: binom[top, bottom])
    assert (list(table), dropped) == ([1, 1, 0, 1], 1)


def test_chain_table_steps_only_toward_live_positions(monkeypatch):
    # liveness and constants are one pass: a position's constants are made
    # only toward the live positions below it.  D n = 26 at p = 13 keeps 3
    # of its 25 positions, so at most 25 * 3 step binomials, not
    # 25 * 24 / 2, besides the 25 seeds C(26, d)
    module = importlib.import_module("ribbonmod.cvec")
    chain = module._chain_table
    calls = []

    def counting(family, n, p, positions, binom):
        return chain(family, n, p, positions, lambda top, bottom: calls.append((top, bottom)) or binom(top, bottom))

    monkeypatch.setattr(module, "_chain_table", counting)
    table, dropped = _weight_table("D", 26, 13)
    assert (len(table), dropped) == (1 << 3, 22)
    assert 0 < len(calls) - 25 <= 25 * 3


def test_naive_table_drops_the_positions_outside_the_support():
    # two derivations of the dead positions: the naive table's own exact
    # binomials, and the base-p digits of the theorem route's support set.
    # At odd p every first-step weight is a unit, so a half-lattice
    # position is dropped exactly when its digits are not bounded by those
    # of n (type D keeps 0 and 1, both in its support).  The seeds at the
    # single-position masks name the positions kept
    cases = 0
    for family in "ABD":
        lo = mask_offset(family)
        for p in ODD_PRIMES:
            for n in range(4, 21):
                table, dropped = _weight_table(family, n, p)
                support = set(support_set(family, n, p))
                kept = [d for d in range(lo, n - 1) if d in support]
                assert dropped == n - 1 - lo - len(kept), (family, n, p)
                assert len(table) == 1 << len(kept), (family, n, p)
                for i, d in enumerate(kept):
                    if family == "D" and i == 1:
                        continue  # the copy rule set mask 2 to mask 1
                    shift = 0 if family == "A" else n - 1 if family == "D" and d <= 1 else n - d
                    assert table[1 << i] == (comb(n, d) << shift) % p, (family, n, p, d)
                cases += 1
    assert cases == 255


@pytest.mark.parametrize("family, n, p", [("A", 19, 3), ("D", 18, 11), ("B", 18, 5)])
def test_naive_route_drops_positions_without_base_p_digits(monkeypatch, family, n, p):
    # the naive route decides what to drop from its own exact binomials, so
    # it answers with the digit machinery of the theorem route broken, on
    # queries that drop 14, 3 and 3 of their positions
    want = cvec_theorem(family, n, p)
    assert _weight_table(family, n, p)[1]
    module = importlib.import_module("ribbonmod.cvec")

    def refuse(*args):
        raise AssertionError("the naive route read base-p digits")

    for name in ("base_p_digits", "lucas_binomial", "support_set"):
        monkeypatch.setattr(module, name, refuse)
    assert cvec_naive(family, n, p) == want


def test_half_lattice_tally_matches_full_lattice():
    # cvec_naive sweeps the masks without the top descent and doubles the
    # tally; here the whole lattice is swept instead: covering counts of all
    # 2^bits masks, the packed butterfly, and a tally of every residue
    primes = (2, 3, 5, 7, 13, 131, 257, 65537)
    for family in "ABD":
        for n in range(2 if family == "D" else 1, 13):
            bits = n - 1 if family == "A" else n
            covers = [_covering_count(family, n, mask) for mask in range(1 << bits)]
            for p in primes:
                table = field_buffer(0, p)
                table.extend(c % p for c in covers)
                full = Counter(inverse_zeta_packed(table, p))
                assert cvec_naive(family, n, p).counts == tuple(full[r] for r in range(p)), (family, n, p)


def test_half_lattice_tally_on_the_tiniest_lattices():
    # A n = 1 (no descent position), B n = 1 (one), D n = 2 (a half table of
    # two masks) and their neighbours, index by index
    for family, n in (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("D", 2), ("D", 3)):
        for p in (2, 3, 5, 7):
            hist = [0] * p
            for alpha in indices(Composition if family == "A" else PseudoComposition, n):
                hist[ribbon_mod_p(family, alpha, p)] += 1
            assert cvec_naive(family, n, p).counts == tuple(hist), (family, n, p)


def test_theorem_tally_complement_pairing():
    # complementing a support subset negates its residue free-count many
    # times, and each free position pairs r with -r: with no free position
    # complements share residues, so every entry is even, and with one the
    # vector is symmetric under r <-> -r whatever the complements' sign.
    # The five cases have nonempty supports and free 0, 4, 8, 7 and 1;
    # the sweep is every theorem vector with free >= 1 for n < 40
    for family, n, p in (("A", 8, 3), ("A", 12, 5), ("B", 9, 3), ("D", 9, 3), ("D", 12, 7)):
        assert len(support_set(family, n, p)) > 0
        counts = cvec_theorem(family, n, p).counts
        if n - mask_offset(family) == len(support_set(family, n, p)):
            assert all(c % 2 == 0 for c in counts)
        else:
            assert all(counts[r] == counts[-r % p] for r in range(p)), (family, n, p)
    checked = 0
    for family in "ABD":
        for p in ODD_PRIMES:
            for n in range(4 if family == "D" else 2, 40):
                m = _support_size(family, base_p_digits(n, p))
                if m > 12 or n - mask_offset(family) == m:
                    continue
                counts = cvec_theorem(family, n, p).counts
                assert all(counts[r] == counts[-r % p] for r in range(p)), (family, n, p)
                checked += 1
    assert checked > 250
    # an empty support (type A, n a power of p) has the single
    # self-complementary subset, whose residue 1 is spread over its 8 free
    # positions and not doubled
    assert cvec_theorem("A", 9, 3).counts == (0, 128, 128)


def test_theorem_tally_matches_dense_reference():
    # the route sweeps the subsets without the top support position and
    # doubles them by complement; the reference runs the butterfly over
    # every subset and spreads that tally over the free positions, with
    # nothing doubled.  Odd free is where a signed complement would differ
    # from plain doubling; free = 0 (A n = p^k - 1, S every position) and
    # supports of sizes 0 and 1 are the edges.  No term table drops a
    # position, but at p = 2 in types B and D, where every weight is even
    # and every residue 1, so the reference there is the parity vector
    seen = set()
    for family in "ABD":
        for p in (2, 3, 5, 7, 13):
            for n in range(4 if family == "D" else 2, 40):
                m = _support_size(family, base_p_digits(n, p))
                if m > 12:
                    continue
                pos = support_set(family, n, p)
                table, dropped = _term_table(family, n, p, pos)
                free = n - mask_offset(family) - m
                reference = _spread(inverse_zeta_tally(table, p), dropped + free, False)
                assert reference == cvec_theorem(family, n, p).counts, (family, n, p)
                if p == 2 and family != "A":
                    assert reference == (0, 1 << n), (family, n)
                    continue
                assert not dropped, (family, n, p)
                seen.add("free 0" if free == 0 else f"free {'odd' if free % 2 else 'even'}")
                if m < 2:
                    seen.add(f"support {m}")
    assert seen == {"free 0", "free odd", "free even", "support 0", "support 1"}


def test_theorem_route_at_the_support_budget_in_bounded_memory():
    # A n=49 p=3 sweeps 2^21 of its 2^22 support subsets and D n=140 p=7
    # 2^20 of its 2^21: 7.5 and 3.7 MB traced.  Every subset of the
    # supports of A n=19 p=101 and B n=18 p=131 and 257 (18 positions each,
    # one digit) is a chain, so a table kept per chain would grow with p:
    # 0.8, 1.2 and 1.6 MB traced (1-, 1- and 2-byte fields), against
    # 13.7 MB with a list of chains.  A small query first, so no first-call
    # set-up is traced
    cvec_theorem("A", 8, 3)
    for family, n, p, ceiling in (("A", 49, 3, 16), ("D", 140, 7, 8),
                                  ("A", 19, 101, 4), ("B", 18, 131, 4), ("B", 18, 257, 4)):
        vec, peak = traced_peak(lambda: cvec_theorem(family, n, p))
        assert vec.total() == 1 << (n - mask_offset(family))
        assert peak < ceiling << 20, (family, n, p, peak)


def test_both_sweeps_answer_at_the_sweep_budget_and_refuse_one_past_it(monkeypatch):
    # at p > n every descent position is in the support, so the naive and
    # the theorem sweeps of n cover the same n - mask_offset positions: with
    # SWEEP_MAX_BITS patched down to 8, both answer at 8 positions as under
    # the real budget, and both refuse 9 with the same budget and need
    module = importlib.import_module("ribbonmod.cvec")
    k, p = 8, 13
    want = {family: cvec_naive(family, k + mask_offset(family), p) for family in "ABD"}
    monkeypatch.setattr(module, "SWEEP_MAX_BITS", k)
    for family in "ABD":
        n = k + mask_offset(family)
        assert cvec_naive(family, n, p) == cvec_theorem(family, n, p) == want[family], family
        for call in (cvec_naive, cvec_theorem):
            with pytest.raises(CapacityError) as excinfo:
                call(family, n + 1, p)
            assert excinfo.value.args[:3] == ("cvec.SWEEP_MAX_BITS", k + 1, k), (call.__name__, family)


def check_theorem_past_the_naive_budget():
    """``cvec`` at supports of 23 to 26 positions, whose n is past the
    naive sweep's budget, against the naive sweep with the budget raised in
    this process: A, B and D n = 32 at p = 7, A n = 48 at p = 11 and
    A n = 62 at p = 7.  The naive sweep decides which of n's positions to
    keep from exact binomials, never from the digits of n, so it checks the
    support that the theorem route reads off them."""
    module = importlib.import_module("ribbonmod.cvec")
    points = (("A", 32, 7), ("B", 32, 7), ("D", 32, 7), ("A", 48, 11), ("A", 62, 7))
    assert [_support_size(family, base_p_digits(n, p)) for family, n, p in points] == [23, 24, 24, 23, 26]
    theorem = [cvec(*point) for point in points]
    assert all(vec.method == "theorem" for vec in theorem)
    module.SWEEP_MAX_BITS = max(n for _, n, _ in points)
    try:
        assert theorem == [cvec_naive(*point) for point in points]
    finally:
        module.SWEEP_MAX_BITS = SWEEP_MAX_BITS


# -- the three methods agree ------------------------------------------------

def test_cvec_naive_known_values():
    assert cvec_naive("A", 4, 2).counts == (0, 8)
    assert cvec_naive("A", 5, 3).counts == (6, 8, 2)
    assert cvec_naive("B", 4, 3).counts == (4, 6, 6)


def test_cvec_theorem_known_values():
    assert cvec_theorem("A", 15, 2).counts == (35 * 2**8, 29 * 2**8)
    for d in (2, 3, 4, 6):
        n = 2**d
        assert cvec_theorem("A", n, 2).counts == (0, 2 ** (n - 1))
    expected = [0] * 11
    expected[0] = 2**10
    expected[1] = expected[10] = 2**9
    assert cvec_theorem("D", 11, 11).counts == tuple(expected)


def test_naive_sweep_in_bounded_memory():
    # 2^20 indices: the table, the butterfly and the tally stay in packed
    # fields over the half lattice, so the peak is about two copies of the
    # 0.5 MB field buffer, 1.1 MB traced in 5 and 8 bit planes (with an
    # exact weight table and a list of ints 60 and 96 MB).  At p > n every
    # binomial is a unit mod p, so the table drops no position and holds
    # all 2^19 fields
    for family, n, p in (("A", 21, 23), ("D", 20, 131)):
        assert _weight_table(family, n, p)[1] == 0
        vec, peak = traced_peak(lambda: cvec_naive(family, n, p))
        assert vec.total() == 1 << 20
        assert peak < 5 << 20, (family, n, p, peak)


def check_shape_rule_table():
    """The shape rule on 396 n = 3^a + 2*3^b (a != b, both < 12) in A, B
    and D at p = 3, in one fresh process: five shapes, so five n* swept
    once into the memo, and every 20th point against the theorem route.
    It needs an empty memo, so it runs at the start of a process."""
    module = importlib.import_module("ribbonmod.cvec")
    points = [(family, 3**a + 2 * 3**b) for family in "ABD" for a in range(12) for b in range(12) if a != b]
    vecs = [cvec(family, n, 3) for family, n in points]
    assert all(vec.method == "closed-form:shape" for vec in vecs)
    assert module._memo_counts.cache_info().currsize == 5, module._memo_counts.cache_info()
    for (family, n), vec in list(zip(points, vecs))[::20]:
        assert vec == cvec_theorem(family, n, 3), (family, n)


def check_kernel_at_size(family, n, p, samples=2000):
    """The naive route's table and kernel at size, against ``ribbon_mod_p``.

    ``_weight_table`` fills the covering counts mod p of the half lattice
    and ``inverse_zeta_packed`` turns them into ribbon numbers mod p.  Each
    of ``samples`` random masks over the kept positions (the empty and the
    full one among them) is compared with ``ribbon_mod_p`` of its index,
    and a Counter of the packed output with ``inverse_zeta_tally``.
    ``ribbon_mod_p`` runs the chain recurrence over the index's own
    descents with Lucas binomials, so it shares nothing with the table or
    the kernel.  The kept positions come from the support set at odd p,
    whose digits the table never reads: a half-lattice position is kept
    exactly when it is in the support (type D's 0 and 1 are)."""
    lo = mask_offset(family)
    support = set(support_set(family, n, p))
    kept = [d for d in range(lo, n - 1) if d in support]
    table, dropped = _weight_table(family, n, p)
    assert len(table) == 1 << len(kept) and dropped == n - 1 - lo - len(kept), (family, n, p)
    tally = inverse_zeta_tally(table, p)
    packed = inverse_zeta_packed(table, p)
    assert Counter(packed) == {r: c for r, c in enumerate(tally) if c}, (family, n, p)
    cls = Composition if family == "A" else PseudoComposition
    rng = random.Random(n * p)
    masks = [0, len(table) - 1] + [rng.randrange(len(table)) for _ in range(samples - 2)]
    for mask in masks:
        index = cls.from_descents(n, (d for b, d in enumerate(kept) if mask >> b & 1))
        assert packed[mask] == ribbon_mod_p(family, index, p), (family, n, p, mask)


@pytest.mark.parametrize("p", [3, 131])
@pytest.mark.parametrize("family, n", [("A", 20), ("B", 19), ("D", 19)])
def test_kernel_at_2_18_fields_matches_ribbon_mod_p(family, n, p):
    # 2^18 half-lattice fields; at p = 3 the table drops positions
    # (n = 202 and 201 in base 3), at p = 131 none
    check_kernel_at_size(family, n, p)
    assert (_weight_table(family, n, p)[1] > 0) == (p == 3)


def _full_weight_table(family, n, p):
    # the naive route's table over every position of the half lattice, 0 on
    # every mask through a position it drops: at odd p those outside the
    # support set, at p = 2 every weight is even (type D keeps 0 and 1).
    # For 1-byte fields; a dropped position e goes in as a zero bit, each
    # run of 2^e fields followed by as many zeros
    bits = n - 1 - mask_offset(family)
    if p > 2:
        kept = [d - mask_offset(family) for d in support_set(family, n, p) if d < n - 1]
    else:
        kept = [0, 1] if family == "D" else []
    table, dropped = _weight_table(family, n, p)
    assert len(table) == 1 << len(kept) and dropped == bits - len(kept)
    for e in range(bits):
        if e not in kept:
            out = bytearray(2 * len(table))
            for i in range(0, len(table), 1 << e):
                out[2 * i:2 * i + (1 << e)] = table[i:i + (1 << e)]
            table = out
    return table


def test_naive_sweep_in_narrow_lanes_in_bounded_memory():
    # the butterfly and tally of D n=22 (2^21 fields) hold w = (p - 1).
    # bit_length() bit planes of 2^21 bits, 256 KB each (273 KB as ints of
    # 30-bit digits), plus temporaries: about 12 planes' worth while the
    # eight slices of the table are transposed, w + 7 while a level runs
    # and 2w + 1 while the popcount tree of the tally holds one pending
    # branch per plane.  So the traced peak scales with w: 1.07 / 2.13 /
    # 2.85 / 4.53 MB at p = 2 / 3 / 13 / 131 (w = 1 / 2 / 4 / 8), against
    # 3.73 MB at p = 2, 3 and 13 for a kernel that makes all eight planes of
    # a byte, over the 3.47 MB ceiling.  The table is
    # made before the trace starts and freed once it is transposed.  At
    # p = 2, 3 and 13 the naive route drops 19, 11 and 3 of the 21
    # positions, so the test spreads its table over all 21, with 0 on every
    # mask through a dropped one: the table of 2^21 fields the route would
    # sweep without dropping, whose doubled tally is the p-vector
    for p in (2, 3, 13, 131):
        w = (p - 1).bit_length()
        box = [_full_weight_table("D", 22, p)]
        tally, peak = traced_peak(lambda: inverse_zeta_tally(box.pop(), p))
        assert tuple(2 * c for c in tally) == cvec_naive("D", 22, p).counts
        plane = (1 << 21) // 8 * 16 // 15
        assert peak < max(13, w + 8, 2 * w + 2) * plane, (p, peak)


def test_ground_truth_two_two_powers():
    # n = 2*3^2 + 2*3^0, pinned by an independent report; the shape rule
    # answers it from n* = 2 + 2*3 = 8
    want = (42 * 2**12, 43 * 2**12, 43 * 2**12)
    assert cvec_theorem("A", 20, 3).counts == want
    assert cvec_closed_form("A", 20, 3).counts == want


# -- structural invariants --------------------------------------------------

def _saturated(n, p):
    digits = base_p_digits(n, p)
    return all(d == p - 1 for d in digits[:-1])


def test_mass_and_palindromicity():
    for p in ODD_PRIMES:
        for n in range(2, 15):
            for family in ("A", "B", "D"):
                if family == "D" and n < 4:
                    continue
                vec = cvec_theorem(family, n, p)
                expected_total = 1 << (n - 1) if family == "A" else 1 << n
                assert vec.total() == expected_total
                if not _saturated(n, p):
                    assert all(vec[i] == vec[p - i] for i in range(1, p))


# -- chain statistics -------------------------------------------------------
# The rule table below freezes tallies of these statistics; they live here,
# next to the test that rebuilds the table from them.

# The exact residue tallies {value: count} of the theorem route for ten
# digit shapes of n, one count per subset of the support, keyed by (family,
# rule, number of nonzero base-p digits of n): the table the closed form
# once read, reduced mod p on use.  The p-powers rows (n a sum of k
# distinct powers of p) tally, over every subset of the proper sub-sums, a
# chain statistic of the nonempty ones: signed chain counts (type A) or
# 2-weighted ones (type B), as test_rule_table_p_powers_rows_from_chain_statistics
# rebuilds them; the other rows come from the support-subset analysis of
# their digit shapes.
RULE_TALLIES = {
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
# one n of each row's shape, as {place: digit}: the digits away from their
# least places, so that the shape rule moves them
RULE_DIGITS = {
    ("A", "p-powers", 2): {0: 1, 3: 1},
    ("A", "p-powers", 3): {1: 1, 2: 1, 4: 1},
    ("A", "p-powers", 4): {0: 1, 1: 1, 3: 1, 4: 1},
    ("A", "2p^d+p^e", 2): {1: 1, 3: 2},
    ("B", "p-powers", 2): {2: 1, 5: 1},
    ("D", "p^d", 1): {3: 1},
    ("D", "2p^d", 1): {2: 2},
    ("D", "3p^d", 1): {1: 3},
    ("D", "1+p^d", 2): {0: 1, 4: 1},
    ("D", "p^a+p^b", 2): {2: 1, 3: 1},
}


def _poset_chain_sum(elems: list[frozenset], weight) -> int:
    # ribbon._chain_sum with inclusion for the binomial, the weight of a
    # chain's bottom element as its first step, and a top strictly above
    # every element (a fresh object keeps it strict whatever the sets hold)
    if len(set(elems)) != len(elems):
        raise ValueError("poset elements must be distinct")
    elems.sort(key=len)
    top = frozenset().union(*elems, [object()])
    value = _chain_sum(top, elems, lambda x: (weight(x), x), lambda a, b: int(b < a))
    # _chain_sum carries the sign (-1)^|elements|
    return -value if len(elems) % 2 else value


def signed_chain_count(elements) -> int:
    # even-size chains minus odd-size chains in a poset of sets ordered by
    # inclusion; the empty chain counts as even, so the empty poset gives 1
    return _poset_chain_sum([frozenset(x) for x in elements], lambda x: 1)


def weighted_chain_count(elements, k: int) -> int:
    # type-B statistic over proper subsets of k powers: (-1)^h * 2^(k - |U_1|)
    # summed over the chains U_1 < ... < U_h; the empty chain contributes 1
    elems = [frozenset(x) for x in elements]
    if any(len(x) >= k for x in elems):
        raise ValueError("elements must be proper subsets of the k powers")
    return _poset_chain_sum(elems, lambda x: 1 << (k - len(x)))


def test_signed_chain_count_examples():
    u, v, w = frozenset("u"), frozenset("v"), frozenset("w")
    assert signed_chain_count([]) == 1
    assert signed_chain_count([u]) == 0
    assert signed_chain_count([u, v]) == -1
    assert signed_chain_count([u, v, w]) == -2
    # two comparable elements admit the chains {}, {a}, {b}, {a, b}
    assert signed_chain_count([u, frozenset("uv")]) == 0
    # the members of the sets are arbitrary, None included
    assert signed_chain_count([{None}]) == 0
    assert signed_chain_count([{None}, {None, 1}]) == 0
    with pytest.raises(ValueError):
        signed_chain_count([u, u])


def test_weighted_chain_count_examples():
    empty, u, v = frozenset(), frozenset("u"), frozenset("v")
    assert weighted_chain_count([], 2) == 1
    assert weighted_chain_count([empty], 2) == -3
    assert weighted_chain_count([u], 2) == -1
    assert weighted_chain_count([empty, u], 2) == -1
    assert weighted_chain_count([u, v], 2) == -3
    assert weighted_chain_count([empty, u, v], 2) == 1
    with pytest.raises(ValueError):
        weighted_chain_count([frozenset("uv")], 2)
    assert weighted_chain_count([{None}], 2) == -1
    with pytest.raises(ValueError):
        weighted_chain_count([u, u], 2)


def _brute_chain_sum(elements, weight):
    # (-1)^h * weight(bottom) summed over the totally ordered h-subsets
    pool = sorted(elements, key=len)
    total = 0
    for h in range(len(pool) + 1):
        for chain in itertools.combinations(pool, h):
            if all(a < b for a, b in zip(chain, chain[1:])):
                total += (-1) ** h * (weight(chain[0]) if chain else 1)
    return total


@given(k=st.integers(min_value=0, max_value=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_chain_statistics_match_brute_force(k, data):
    subsets = [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]
    elems = data.draw(st.lists(st.sampled_from(subsets), unique=True, max_size=10))
    assert signed_chain_count([set(u) for u in elems]) == _brute_chain_sum(elems, lambda u: 1)
    proper = [u for u in elems if len(u) < k]
    expected = _brute_chain_sum(proper, lambda u: 1 << (k - len(u)))
    assert weighted_chain_count(proper, k) == expected


def test_rule_table_p_powers_rows_from_chain_statistics():
    # n a sum of k distinct powers of p: its proper sub-sums are the proper
    # subsets of the k powers, and each subset T of them carries one chain
    # statistic; the rule table freezes the tally of those statistics, and
    # the support, read off the k unit digits of n, is the set of members
    def tally(members, statistic):
        values = Counter()
        for picks in itertools.product((False, True), repeat=len(members)):
            values[statistic([u for u, pick in zip(members, picks) if pick])] += 1
        return dict(values)

    for k in (2, 3, 4):
        members = [frozenset(c) for r in range(1, k) for c in itertools.combinations(range(k), r)]
        assert RULE_TALLIES["A", "p-powers", k] == tally(members, signed_chain_count)
        assert _support_size("A", (1,) * k) == len(members)
    members = [frozenset(c) for r in range(2) for c in itertools.combinations(range(2), r)]
    assert RULE_TALLIES["B", "p-powers", 2] == tally(members, lambda t: weighted_chain_count(t, 2))
    assert _support_size("B", (1, 1)) == len(members)


def _rule_spread(key, n, p):
    # the (tally, flips, doubled) of _spread that a RULE_TALLIES row gives n:
    # its tally mod p, spread over the positions outside n's support
    family = key[0]
    free = n - mask_offset(family) - _support_size(family, base_p_digits(n, p))
    return residue_tally(RULE_TALLIES[key], p), free, False


def test_rule_table_rows_by_the_shape_rule_and_the_theorem(monkeypatch):
    # each row is n's p-vector by the shape rule wherever the least n of its
    # shape, n*, fits the naive budget, and refused with n*'s index bits
    # past it; and by the
    # theorem route at two large primes, compared before the shift, as
    # there n is about p^4.  The rows hold at odd p in types B and D, where
    # the weights are units
    module = importlib.import_module("ribbonmod.cvec")
    answered = 0
    for key, places in RULE_DIGITS.items():
        family = key[0]
        for p in PRIMES:
            if max(places.values()) >= p or (p == 2 and family != "A"):
                continue
            n = sum(d * p**j for j, d in places.items())
            least = _least_of_shape(family, n, p)
            bits = least - mask_offset(family)
            if bits > SWEEP_MAX_BITS:
                with pytest.raises(CapacityError) as excinfo:
                    cvec_closed_form(family, n, p)
                assert excinfo.value.args[:3] == ("cvec.SWEEP_MAX_BITS", bits, SWEEP_MAX_BITS), (key, p)
                continue
            assert cvec_closed_form(family, n, p).counts == _spread(*_rule_spread(key, n, p)), (key, p)
            answered += 1
        for p in (101, 1009):
            n = sum(d * p**j for j, d in places.items())
            recorded = []
            with monkeypatch.context() as patch:
                # the result budget is _spread's, and the gate on n reads it too
                patch.setattr(module, "_spread", lambda *args: recorded.append(args) or tuple(args[0]))
                patch.setattr(module, "RESULT_BITS_MAX", n)
                cvec_theorem(family, n, p)
            (tally, flips, doubled), = recorded
            want, free, _ = _rule_spread(key, n, p)
            # both vectors over 2^(min(flips, free) - 1), flips and free being about n
            base = min(flips, free) - 1
            assert _spread_unshared(tally, flips - base, doubled) == _spread_unshared(want, free - base, False), (key, p)
    assert answered == 37


# -- closed forms -----------------------------------------------------------

def test_closed_form_four_powers_of_two():
    n = 2**0 + 2**1 + 2**3 + 2**5  # 43
    vec = cvec_closed_form("A", n, 2)
    assert vec.counts == (35 * 2 ** (n - 7), 29 * 2 ** (n - 7))


def test_closed_form_two_powers_plus_one():
    # n = 2 p^d + p^e: for p = 3, n > 5 the counts are (6, 5, 5) * 2^(n-5)
    vec = cvec_closed_form("A", 21, 3)
    assert vec.counts == (6 * 2**16, 5 * 2**16, 5 * 2**16)
    assert cvec_closed_form("A", 5, 3).counts == (6, 8, 2)


def test_closed_form_type_d_patterns():
    n = 25  # 5^2, from n* = 5
    vec = cvec_closed_form("D", n, 5)
    assert vec.method == "closed-form:shape"
    assert vec.counts == (2**24, 2**23, 0, 0, 2**23)
    n = 10  # 1 + 3^2, from n* = 1 + 3
    vec = cvec_closed_form("D", n, 3)
    assert vec.method == "closed-form:shape"
    assert vec.counts == (0, 2**9, 2**9)


def test_closed_form_absent():
    # n = 1 + 3 + 3^2 + 3^3 = 40 is its own least n, past the naive budget
    # in every family, as is n = 1 + 3^2 + 3^5 + 3^7 of the same shape: the
    # naive sweep of 40 refuses both, with the bits of its index lattice;
    # type D n = 3 is its own least n, and is answered
    for family in "ABD":
        refusal = ("cvec.SWEEP_MAX_BITS", 40 - mask_offset(family), SWEEP_MAX_BITS)
        for n in (40, 1 + 3**2 + 3**5 + 3**7):
            with pytest.raises(CapacityError) as excinfo:
                cvec_closed_form(family, n, 3)
            assert excinfo.value.args[:3] == refusal, (family, n)
        with pytest.raises(CapacityError) as excinfo:
            cvec_naive(family, 40, 3)
        assert excinfo.value.args[:3] == refusal, family
    vec = cvec_closed_form("D", 3, 3)
    assert vec.method == "closed-form:shape" and vec == cvec_naive("D", 3, 3)


def test_closed_form_parity():
    assert cvec_closed_form("B", 9, 2).method == "closed-form:parity"
    assert cvec_closed_form("D", 9, 2).counts == (0, 2**9)
    vec = cvec_closed_form("D", 3, 2)
    assert vec.method == "closed-form:parity" and vec == cvec_naive("D", 3, 2)


def _recording_sweeps(monkeypatch, module):
    # the (family, n*, p) of every naive sweep the shape rule runs, in order
    swept = []
    naive = module._naive_counts
    monkeypatch.setattr(module, "_naive_counts", lambda *point: swept.append(point) or naive(*point))
    return swept


def test_shape_rule_sweeps_the_least_n_of_the_shape(monkeypatch):
    # n* puts the nonzero digits of n in descending order from place 0 (type
    # D from place 1, after n_0), and is swept naively with the support,
    # Lucas binomials and term table of the theorem route broken; from an
    # empty memo each n* is swept once, and a second n of its shape (the
    # last column) sweeps nothing
    module = importlib.import_module("ribbonmod.cvec")
    module._memo_counts.cache_clear()

    def refuse(*args):
        raise AssertionError("the shape rule ran the theorem route's digit machinery")

    cases = (
        ("A", 1 + 3 * 13**2, 13, 3 + 13, 3 + 13**3),
        ("A", 3**16 + 2 * 3**9 + 3**2, 3, 2 + 3 + 3**2, 2 * 3 + 3**4 + 3**5),
        ("B", 3**6 + 2 * 3**4 + 3, 3, 2 + 3 + 3**2, 2 + 3**3 + 3**5),
        ("D", 2 + 3**3 + 2 * 3**5, 3, 2 + 2 * 3 + 3**2, 2 + 2 * 3**2 + 3**4),
        ("D", 3**4, 3, 3, 3**2),
        ("D", 3**3 + 2 * 3**5, 3, 2 * 3 + 3**2, 3**2 + 2 * 3**4),
    )
    theorem = [[cvec_theorem(family, n, p) for n in (n, again)] for family, n, p, _, again in cases]
    for name in ("support_set", "lucas_binomial", "_term_table"):
        monkeypatch.setattr(module, name, refuse)
    swept = _recording_sweeps(monkeypatch, module)
    for (family, n, p, least, again), (want, want_again) in zip(cases, theorem):
        swept.clear()
        assert cvec_closed_form(family, n, p) == want, (family, n, p)
        assert swept == [(family, least, p)], (family, n, p, swept)
        assert cvec_closed_form(family, again, p) == want_again, (family, again, p)
        assert swept == [(family, least, p)], (family, again, p, swept)


def test_shape_memo_answers_as_an_empty_one(monkeypatch):
    # on a grid where shapes repeat (many n to one n*, the same n* at other
    # primes, type D's n that differ only in n_0), the shape rule answers
    # with a warm memo as with an empty one before each query, and as the
    # theorem route, sweeping each (family, n*, p) once
    module = importlib.import_module("ribbonmod.cvec")
    grid = [(family, n, p) for family, low in (("A", 2), ("B", 2), ("D", 4)) for p in (3, 5, 7)
            for n in range(low, 160) if _least_of_shape(family, n, p) - mask_offset(family) <= 14]
    cold = []
    for point in grid:
        module._memo_counts.cache_clear()
        cold.append(cvec_closed_form(*point))
    module._memo_counts.cache_clear()
    swept = _recording_sweeps(monkeypatch, module)
    warm = [cvec_closed_form(*point) for point in grid]
    shapes = {(family, _least_of_shape(family, n, p), p) for family, n, p in grid}
    assert warm == cold == [cvec_theorem(*point) for point in grid]
    assert all(vec.method == "closed-form:shape" for vec in warm)
    assert len(swept) == len(set(swept)) and set(swept) == shapes
    assert module._memo_counts.cache_info().currsize == len(shapes) < len(grid) / 2


def test_shape_memo_keeps_no_refusal(monkeypatch):
    # n* past the naive budget is refused by its sweep each time it is
    # asked, and nothing is kept for it; a result past the bit budget is
    # refused each time too, though its n* is kept, and swept once:
    # A n = 2^32 + 16, under the gate on n, at p = 2 has n* = 3
    module = importlib.import_module("ribbonmod.cvec")
    module._memo_counts.cache_clear()
    swept = _recording_sweeps(monkeypatch, module)
    for _ in range(2):
        for family in "ABD":
            with pytest.raises(CapacityError, match="cvec.SWEEP_MAX_BITS"):
                cvec_closed_form(family, 1 + 3**2 + 3**5 + 3**7, 3)
            with pytest.raises(CapacityError, match="cvec.SWEEP_MAX_BITS"):
                cvec(family, 40, 3, method="closed")
        assert module._memo_counts.cache_info().currsize == 0
    for _ in range(2):
        with pytest.raises(CapacityError, match="cvec.RESULT_BITS_MAX"):
            cvec_closed_form("A", 2**32 + 16, 2)
    assert swept == [(family, 40, 3) for _ in range(2) for family in "ABD" for _ in range(2)] + [("A", 3, 2)]
    assert module._memo_counts.cache_info().currsize == 1


def test_shape_memo_in_bounded_memory(monkeypatch):
    # more shapes than the memo keeps, at primes up to SHAPE_MEMO_MAX_P and
    # then past it, leave SHAPE_MEMO_SHAPES vectors, none past that prime,
    # in under SHAPE_MEMO_BYTES_MAX; so does the worst case, a stand-in sweep
    # giving 251 distinct ints near 2^26 for every n*
    module = importlib.import_module("ribbonmod.cvec")

    def retained(run):
        # the memory traced once run's result is dropped: what the memo keeps
        module._memo_counts.cache_clear()

        def kept():
            run()
            return tracemalloc.get_traced_memory()[0]
        return traced_peak(kept)[0]

    primes = [p for p in range(11, SHAPE_MEMO_MAX_P) if is_prime(p)] + [257, 65537]
    queries = [(family, d if family == "D" else d * p, p) for p in primes for family in "ABD" for d in range(2, 8)]
    assert len(queries) > 2 * SHAPE_MEMO_SHAPES
    for point in queries:
        cvec_closed_form(*point)  # caches other than the memo fill here
    assert retained(lambda: [cvec_closed_form(*point) for point in queries]) < SHAPE_MEMO_BYTES_MAX
    memo = module._memo_counts.cache_info()
    assert memo.currsize == SHAPE_MEMO_SHAPES
    # the last queries, past that prime, were not kept: each sweeps again,
    # and the memo neither answers nor keeps it
    with monkeypatch.context() as patch:
        swept = _recording_sweeps(patch, module)
        past = [point for point in queries if point[2] > SHAPE_MEMO_MAX_P]
        for point in past:
            cvec_closed_form(*point)
        assert len(swept) == len(past) and module._memo_counts.cache_info() == memo

    monkeypatch.setattr(module, "_naive_counts", lambda family, n, p: tuple(range((1 << 26) - p, 1 << 26)))
    try:
        worst = retained(lambda: [module._memo_counts("A", n, 251) for n in range(2 * SHAPE_MEMO_SHAPES)])
        assert module._memo_counts.cache_info().currsize == SHAPE_MEMO_SHAPES
    finally:
        module._memo_counts.cache_clear()
    # near the bound, whether an int takes 28 or 32 bytes (by version)
    assert SHAPE_MEMO_BYTES_MAX * 0.8 < worst < SHAPE_MEMO_BYTES_MAX


def test_theorem_tally_depends_only_on_the_shape():
    # a check with no second route: moving the nonzero base-p digits of n to
    # other places (type D keeping n_0 in place 0) leaves the theorem
    # route's vector in units of 2^(free - 1) as it was, free being the
    # positions outside the support
    cases = (
        ("A", 3, 3**16 + 2 * 3**9 + 3**2, 3**15 + 3**12 + 2 * 3**3, (812, 618, 618)),
        ("A", 7, 3 + 7**4 + 7**6, 7 + 3 * 7**2 + 7**5, None),
        ("B", 5, 4 * 5**3 + 5**7, 5 + 4 * 5**8, None),
        ("B", 11, 2 * 11 + 11**4 + 11**5, 1 + 2 * 11**3 + 11**4, None),
        ("D", 3, 2 + 3**7 + 2 * 3**11, 2 + 2 * 3**4 + 3**13, None),
        ("D", 5, 5**2 + 3 * 5**6, 3 * 5 + 5**9, None),
        ("D", 13, 1 + 3 * 13**3 + 13**4, 1 + 13 + 3 * 13**5, None),
    )
    for family, p, n, moved, units in cases:
        got = []
        for m in (n, moved):
            free = m - mask_offset(family) - _support_size(family, base_p_digits(m, p))
            counts = cvec_theorem(family, m, p).counts
            assert all(c % (1 << (free - 1)) == 0 for c in counts), (family, m, p)
            got.append(tuple(c >> (free - 1) for c in counts))
        assert got[0] == got[1], (family, p, n, moved)
        assert units is None or got[0] == units


# -- dispatch and the value type --------------------------------------------

def test_cvec_dispatch():
    assert cvec("A", 5, 3).method.startswith("closed-form")
    assert cvec("A", 40, 3).method == "theorem"
    assert cvec("A", 1, 5).method == "closed-form:shape"
    assert cvec("A", 5, 3, method="naive").method == "naive"
    with pytest.raises(CapacityError) as excinfo:
        cvec("A", 40, 3, method="closed")
    assert type(excinfo.value) is CapacityError
    # n* = 40 needs the 39 index bits that the naive sweep of 40 names
    assert (excinfo.value.budget, excinfo.value.needed, excinfo.value.cap) == (
        "cvec.SWEEP_MAX_BITS", 39, SWEEP_MAX_BITS)
    with pytest.raises(ValueError):
        cvec("A", 5, 3, method="fancy")
    with pytest.raises(ValueError):
        cvec("A", 5, 4)
    with pytest.raises(ValueError):
        cvec("D", 1, 3)


NOT_AN_INT = {
    "base_p_digits": lambda n: base_p_digits(n, 3),
    "cvec auto": lambda n: cvec("A", n, 3),
    "cvec naive": lambda n: cvec("A", n, 3, method="naive"),
    "cvec theorem": lambda n: cvec("A", n, 3, method="theorem"),
    "cvec closed": lambda n: cvec("A", n, 3, method="closed"),
    "macdonald_mp": lambda n: macdonald_mp(n, 3),
}


@pytest.mark.parametrize("n", [10.5, 9.0, True, "9"])
@pytest.mark.parametrize("call", NOT_AN_INT.values(), ids=NOT_AN_INT.keys())
def test_n_must_be_an_int(call, n):
    # as check_prime refuses a bool or non-int p: a bool would pass for 0 or
    # 1, and a float would give float digits
    with pytest.raises(ValueError):
        call(n)


N_TAKING = {
    "oracle_descent_class_sizes": lambda n: oracle_descent_class_sizes("A", n),
}


@pytest.mark.parametrize("n", [True, 2.5, "3"])
@pytest.mark.parametrize("call", N_TAKING.values(), ids=N_TAKING.keys())
def test_n_taking_entries_refuse_a_bool_or_non_int_n_when_called(call, n):
    # as the cvec methods do: True would pass for n = 1, and 2.5 or "3" ended
    # in a TypeError
    with pytest.raises(ValueError, match="n must be an int, got "):
        call(n)


def test_method_tag_is_not_compared():
    assert cvec_naive("A", 6, 3) == cvec_theorem("A", 6, 3)


# -- shared entries ---------------------------------------------------------

def _spread_unshared(tally, flips, doubled):
    # the p-vector formula with every entry shifted on its own
    if not flips:
        return tuple(t << doubled for t in tally)
    p = len(tally)
    return tuple((tally[r] + tally[(p - r) % p]) << (flips - 1 + doubled) for r in range(p))


def test_equal_entries_are_one_int():
    counts = cvec("A", 3**12, 3).counts
    assert counts[1] == counts[2] and counts[1] is counts[2]


def check_spread(at_size=False):
    # every closed-form, theorem and naive p-vector of A/B/D with n <= 40
    # and p <= 7 (where the support fits the budget, n*'s lattice for the
    # shape rule, and n's for the naive sweep) is what shifting each entry
    # on its own gives, its equal entries are one object, and the routes
    # agree with each other: at the points whose sweeps are below
    # 2^SIZE_BITS masks, or with at_size at the rest
    module = importlib.import_module("ribbonmod.cvec")
    calls = []

    def recording(tally, flips, doubled):
        counts = _spread(tally, flips, doubled)
        calls.append((list(tally), flips, doubled, counts))
        return counts

    module._spread = recording
    try:
        for family, low in (("A", 2), ("B", 2), ("D", 4)):
            for n in range(low, 41):
                for p in (2, 3, 5, 7):
                    if (max(_sweep_bits(family, n, p, method) for method in ("closed", "theorem")) >= SIZE_BITS) != at_size:
                        continue
                    vecs = []
                    if p == 2 and family != "A" or _least_of_shape(family, n, p) - mask_offset(family) <= SWEEP_MAX_BITS:
                        vecs.append(cvec_closed_form(family, n, p))
                    if _support_size(family, base_p_digits(n, p)) <= SWEEP_MAX_BITS:
                        vecs.append(cvec_theorem(family, n, p))
                    if n - mask_offset(family) <= 14:
                        vecs.append(cvec_naive(family, n, p))
                    assert all(v == vecs[0] for v in vecs), (family, n, p)
    finally:
        module._spread = _spread
    assert len(calls) > (50 if at_size else 600)
    assert {(bool(flips), doubled) for _, flips, doubled, _ in calls} == {
        (False, False), (False, True), (True, False), (True, True)}
    for tally, flips, doubled, counts in calls:
        assert counts == _spread_unshared(tally, flips, doubled), (tally, flips, doubled)
        first = {}
        assert all(first.setdefault(c, c) is c for c in counts), (tally, flips, doubled)


def test_spread_matches_the_unshared_formula():
    check_spread()


def test_shared_entries_in_bounded_memory():
    # B n = 3^15 p = 3 has two equal counts of 14348907 bits; shifting each
    # on its own peaks at about two counts, one shared int at about one;
    # a small query first, so no first-call set-up is traced
    cvec("B", 3**5, 3)
    vec, peak = traced_peak(lambda: cvec("B", 3**15, 3))
    size = sys.getsizeof(max(vec.counts))
    assert vec.counts[1] is vec.counts[2]
    assert peak < 1.5 * size, (peak, size)


def test_auto_path_refuses_a_result_past_the_budget_once(monkeypatch):
    # a result past the bit budget is past it on every route, and both
    # points are under the gate on n, so _spread refuses them: the closed
    # form's refusal of A n = 2^32 + 16 at p = 2 (n* = 3) ends the call
    # before the theorem route, and the theorem route's refusal of
    # D n = 7^11 + 7^5 + 3 at p = 7 (n* past the naive budget) ends it
    # before the naive route
    module = importlib.import_module("ribbonmod.cvec")

    def entered(*args):
        raise AssertionError("a second route ran after a result-budget refusal")

    for name, family, n, p in (("cvec_theorem", "A", 2**32 + 16, 2), ("cvec_naive", "D", 7**11 + 7**5 + 3, 7)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, entered)
            with pytest.raises(CapacityError) as excinfo:
                cvec(family, n, p)
        assert excinfo.value.budget == "cvec.RESULT_BITS_MAX", (family, n)
        assert excinfo.value.needed > RESULT_BITS_MAX, (family, n)


def test_result_budget_refuses_the_first_bit_past_it(monkeypatch):
    # the budget counts the bits of the distinct nonzero counts: a budget of
    # exactly their sum writes the vector, one bit less refuses it
    module = importlib.import_module("ribbonmod.cvec")
    for family, n, p in (("A", 20, 3), ("B", 3**5, 3), ("D", 11, 11), ("B", 9, 2)):
        counts = cvec(family, n, p).counts
        bits = sum(c.bit_length() for c in set(counts) if c)
        with monkeypatch.context() as patch:
            patch.setattr(module, "RESULT_BITS_MAX", bits)
            assert cvec(family, n, p).counts == counts
            patch.setattr(module, "RESULT_BITS_MAX", bits - 1)
            with pytest.raises(CapacityError, match=f"cvec.RESULT_BITS_MAX: the request needs {bits};"):
                cvec(family, n, p)


def test_support_set_refusals(monkeypatch):
    # an n below the family minimum is out of range; past
    # SUPPORT_SET_BITS_MAX (patched to 32, so the edge is cheap) the set is
    # refused by its positions times the bits of n, read off the digits, and
    # at the edge it is built.  The largest set, 2^22 - 2 positions of 22
    # bits, fits the real budget, and a support of 3^14 - 2 positions would
    # not
    assert (2**22 - 2) * 22 <= SUPPORT_SET_BITS_MAX < (3**14 - 2) * (3**14).bit_length()
    for family, n in (("A", 0), ("B", 0), ("D", 1)):
        with pytest.raises(ValueError) as excinfo:
            support_set(family, n, 3)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == f"n={n} out of range for family {family}"
    for n in ("5", 5.0, None, True):
        with pytest.raises(ValueError, match="n must be an int") as excinfo:
            support_set("A", n, 3)
        assert type(excinfo.value) is ValueError
    module = importlib.import_module("ribbonmod.cvec")
    monkeypatch.setattr(module, "SUPPORT_SET_BITS_MAX", 32)
    # n = 9 = 4 + 1 * 5, of 4 bits: 10 digit-bounded sums, less {0, n} in
    # type A (8 positions, 32 bits) and {n} in types B and D (9, 36 bits)
    assert support_set("A", 9, 5) == (1, 2, 3, 4, 5, 6, 7, 8)
    for family in "BD":
        with pytest.raises(CapacityError) as excinfo:
            support_set(family, 9, 5)
        assert (excinfo.value.budget, excinfo.value.needed, excinfo.value.cap) == ("cvec.SUPPORT_SET_BITS_MAX", 36, 32)


def _unread(n, p):
    raise AssertionError("a digit of n was read")


def test_support_set_gate_on_n_refuses_before_any_digit_is_read(monkeypatch):
    # tests/test_budgets.py refuses an n past SUPPORT_N_BITS_MAX bits before
    # any digit is read; at the gate support_set reads the digits, and
    # 3^200000 + 1 is well under it
    assert (3**200000 + 1).bit_length() < SUPPORT_N_BITS_MAX
    monkeypatch.setattr(importlib.import_module("ribbonmod.cvec"), "base_p_digits", _unread)
    with pytest.raises(AssertionError, match="a digit of n was read"):
        support_set("A", (1 << SUPPORT_N_BITS_MAX) - 1, 3)


def test_macdonald_gate_on_n_refuses_before_any_digit_is_read(monkeypatch):
    # tests/test_budgets.py refuses an n whose top digit's least cost,
    # (bits(n) - bits(p))^2 // 30, is past MACDONALD_COST_MAX before any
    # digit is read.  The argument checks come first, so a bad n or p is a
    # ValueError at any size.  With the cap patched to that floor for 2^1000
    # at p = 1009 (991^2 // 30), n passes the gate and its digits are read,
    # and one below the floor it is refused
    for n, p in ((0, 3), (True, 3), (-(1 << 10**6), 3), (1 << 10**6, 4)):
        with pytest.raises(ValueError) as excinfo:
            macdonald_mp(n, p)
        assert type(excinfo.value) is ValueError, (n, p)
    module = importlib.import_module("ribbonmod.cvec")
    monkeypatch.setattr(module, "base_p_digits", _unread)
    floor = 991**2 // 30
    monkeypatch.setattr(module, "MACDONALD_COST_MAX", floor)
    with pytest.raises(AssertionError, match="a digit of n was read"):
        macdonald_mp(2**1000, 1009)
    monkeypatch.setattr(module, "MACDONALD_COST_MAX", floor - 1)
    with pytest.raises(CapacityError) as excinfo:
        macdonald_mp(2**1000, 1009)
    assert (excinfo.value.needed, excinfo.value.cap) == (floor, floor - 1)


def test_gate_on_n_refuses_before_any_digit_is_read(monkeypatch):
    # tests/test_budgets.py refuses an n past RESULT_BITS_MAX +
    # TALLY_MAX_BITS + 1 by every method before any digit is read; at the
    # gate the closed form reads the digits of n
    monkeypatch.setattr(importlib.import_module("ribbonmod.cvec"), "base_p_digits", _unread)
    with pytest.raises(AssertionError, match="a digit of n was read"):
        cvec("A", RESULT_BITS_MAX + TALLY_MAX_BITS + 1, 3, "closed")


def _refusal(call, *args):
    # the type, budget, ints and message of the refusal call(*args) raises
    with pytest.raises(CapacityError) as excinfo:
        call(*args)
    refusal = excinfo.value
    return type(refusal), refusal.budget, refusal.needed, refusal.cap, str(refusal)


def _check_auto_refusal(family, n, p, needed):
    # auto raises the theorem route's refusal, which names the support's
    # positions, and closed the shape rule's, which names the index bits of
    # n*, the least n of n's shape; at the points below the two needs are
    # one number, so both routes' budgets read as one message
    message = f"cvec.SWEEP_MAX_BITS: the request needs {needed}; the budget is {SWEEP_MAX_BITS}"
    expected = (CapacityError, "cvec.SWEEP_MAX_BITS", needed, SWEEP_MAX_BITS, message)
    assert _refusal(cvec, family, n, p) == _refusal(cvec_theorem, family, n, p) == expected, (family, n, p)
    assert _refusal(cvec, family, n, p, "closed") == expected, (family, n, p)


def test_auto_refusal_names_both_budgets():
    # past the sweep budget on both routes: 3^13 - 1 is its own n*, and a
    # pickle keeps the refusal
    _check_auto_refusal("A", 3**13 - 1, 3, 3**13 - 2)
    with pytest.raises(CapacityError) as excinfo:
        cvec("A", 3**13 - 1, 3)
    assert str(pickle.loads(pickle.dumps(excinfo.value))) == str(excinfo.value)


def test_auto_refusal_names_both_budgets_for_a_single_digit():
    # n = m * p^d has the shape of m, which the shape rule sweeps naively
    for family, n, p, needed in (("A", 50 * 101, 101, 49), ("B", 30 * 31, 31, 30)):
        _check_auto_refusal(family, n, p, needed)


def test_auto_never_sweeps_n_naively_and_refuses_with_capacity_error(monkeypatch):
    # n* <= n, so where the shape rule is past the naive budget the naive
    # sweep of n is too: with cvec_naive broken, auto answers criterion 6's
    # small grid and the families' least n below it, and at the nine
    # capacity points of the benchmark's bignum workload raises the theorem
    # route's refusal, a CapacityError itself (the benchmark matches the
    # class by name), naming the sweep budget once
    module = importlib.import_module("ribbonmod.cvec")

    def refuse(*args):
        raise AssertionError("auto ran the naive route")

    monkeypatch.setattr(module, "cvec_naive", refuse)
    (_, _, small), *_ = VECTOR_ROWS
    tiny = [(family, n, p) for family, n in (("A", 1), ("B", 1), ("D", 2), ("D", 3)) for p in (2, 3, 5, 7, 11, 13)]
    for family, n, p in small + tiny:
        assert cvec(family, n, p).method.startswith(("closed-form:", "theorem")), (family, n, p)
    for family in "ABD":
        for n, p in ((11**5 - 1, 11), (13**5 - 1, 13), (13**6 - 1, 13)):
            refusal = _refusal(cvec, family, n, p)
            assert refusal == _refusal(cvec_theorem, family, n, p), (family, n, p)
            assert refusal[:2] == (CapacityError, "cvec.SWEEP_MAX_BITS"), (family, n, p)
            assert refusal[4].count("cvec.SWEEP_MAX_BITS") == 1, (family, n, p)


# -- symmetric-group counts -------------------------------------------------

def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(10)) == 42
    assert list(partitions(0)) == [()]


def test_standard_tableau_count():
    assert standard_tableau_count((2, 2)) == 2
    assert standard_tableau_count((7,)) == 1
    assert standard_tableau_count((3, 2)) == 5


def test_rsk_identity():

    for n in range(1, 9):
        assert sum(standard_tableau_count(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_macdonald_known_values():
    assert macdonald_mp(4, 2) == 4
    assert macdonald_mp(3, 2) == 2
    for p in (2, 3, 5, 7):
        assert macdonald_mp(1, p) == 1
    with pytest.raises(ValueError):
        macdonald_mp(0, 3)
    with pytest.raises(ValueError):
        macdonald_mp(4, 6)


def _partition_numbers(m):
    # p(0), ..., p(m) by Euler's pentagonal recurrence: p(k) is the sum over
    # j >= 1 of (-1)^(j + 1) (p(k - j(3j - 1)/2) + p(k - j(3j + 1)/2))
    counts = [1]
    for k in range(1, m + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= k:
            terms = (counts[k - g] for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= k)
            total += sum(terms) if j % 2 else -sum(terms)
            j += 1
        counts.append(total)
    return counts


def test_macdonald_one_digit_is_a_partition_number():
    # a digit m below p is one series of one colour, whose coefficient is
    # p(m); the cost budget alone bounds the digit, as m = 2466 costs
    # m^3 + m^2 // 30 bit steps within it and tests/test_budgets.py refuses
    # 2467 at p = 2473
    assert 2466**3 + 2466**2 // 30 <= MACDONALD_COST_MAX < 2467**3 + 2467**2 // 30
    counts = _partition_numbers(2466)
    assert counts[1000] == 24061467864032622473692149727991
    for m, p in ((1000, 1009), (1001, 1009), (2466, 2467)):
        assert macdonald_mp(m, p) == counts[m], m


def test_macdonald_cost_past_the_budget_refused_before_allocating():
    # tests/test_budgets.py refuses digit 1000 at p^2 = 1009^2 colours and
    # the 1250 digits 1 of 2^1250 - 1 (2.0e10 bit steps each); within the
    # cost budget digit 1000 at p^1 (1.0e10) and the 200 digits 1 of
    # 2^200 - 1 (1.3e7, a product that takes about a millisecond) answer
    assert 1000**3 * (1009).bit_length() <= MACDONALD_COST_MAX < 1000**3 * (1009**2).bit_length()
    assert macdonald_mp(2**100 - 1, 2) == 2 ** (100 * 99 // 2)
    assert macdonald_mp(2**200 - 1, 2) == 2 ** (200 * 199 // 2)
    assert macdonald_mp(1000 * 1009, 1009) > 0


def test_macdonald_tree_product_matches_the_running_product():
    # the balanced product of the digit coefficients against a plain
    # running product, over many equal digits and over mixed ones
    for n, p in ((2**200 - 1, 2), (3**50 - 1, 3), (7 + 500 * 1009 + 3 * 1009**2 + 1009**3, 1009)):
        running = 1
        for j, nj in enumerate(base_p_digits(n, p)):
            running *= _colored_partition_count(nj, p**j)
        assert macdonald_mp(n, p) == running, (n, p)


def _convolved_partition_count(m, colors):
    # x^m in prod_i (1 - x^i)^(-colors), by multiplying in one factor
    # sum_t C(colors + t - 1, t) x^(i t) at a time
    coeffs = [1] + [0] * m
    for i in range(1, m + 1):
        new = coeffs[:]
        for t in range(1, m // i + 1):
            c = comb(colors + t - 1, t)
            for idx in range(i * t, m + 1):
                new[idx] += c * coeffs[idx - i * t]
        coeffs = new
    return coeffs[m]


def test_colored_partition_count_matches_the_convolution():
    for colors in (1, 2, 3, 9, 1009, 2**15, 1009**2):
        for m in range(40):
            assert _colored_partition_count(m, colors) == _convolved_partition_count(m, colors), (m, colors)
    assert _colored_partition_count(120, 7) == _convolved_partition_count(120, 7)
