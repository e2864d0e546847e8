import functools
import importlib
import itertools
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
    base_p_digits,
    field_buffer,
    field_width,
    inverse_zeta_packed,
    inverse_zeta_tally,
    multinomial_exact,
    residue_tally,
)
from ribbonmod.compositions import (
    CapacityError,
    Composition,
    PseudoComposition,
    enumerate_compositions,
    enumerate_pseudo_compositions,
    mask_offset,
)
from ribbonmod.coxeter import builtin_diagram, residue_histogram
from ribbonmod.cvec import (
    MACDONALD_COST_MAX,
    MACDONALD_DIGIT_MAX,
    NAIVE_MAX_BITS,
    RESULT_BITS_MAX,
    SUPPORT_MAX,
    DimensionPVector,
    NoClosedFormError,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    partitions,
    standard_tableau_count,
    support_set,
    _chain_table,
    _colored_partition_count,
    _spread,
    _support_size,
    _term_table,
    _theorem_counts,
    _weight_table,
)
from ribbonmod.ribbon import _chain_sum, chain_mod_p, ribbon_mod_p, term_mod_p
from test_acceptance import _least_of_shape

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


def test_support_set_validation():
    # the support set and the theorem method refuse n below the family minimum
    with pytest.raises(ValueError):
        support_set("A", 1, 3)
    with pytest.raises(ValueError):
        support_set("D", 3, 5)
    for family, n in (("A", 1), ("B", 1), ("D", 3)):
        with pytest.raises(ValueError, match=f"theorem method needs n >= {n + 1} in type {family}"):
            cvec_theorem(family, n, 3)


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
    n = 3**18 + 1
    tracemalloc.start()
    try:
        got = chain_mod_p("A", n, (1, 3**18), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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


def test_term_table_matches_term_mod_p():
    # the block-scaled chain table against the per-subset digit evaluation;
    # 11 and 13 have digits up to 12, 131 takes 1-byte fields without a
    # sign bit and 257 2-byte fields.  The table drops the positions whose
    # subsets all have a term of 0: none, but at p = 2 in types B and D,
    # where every first-step weight is even
    checked = 0
    for family in ("A", "B", "D"):
        for p in (2, 3, 5, 7, 11, 13, 131, 257):
            for n in range(4 if family == "D" else 2, 80):
                pos = support_set(family, n, p)
                if len(pos) > 12:
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
    assert checked > 300


def _moebius_reference(raw):
    # vals[T] = sum over S subset T of (-1)^|T\S| raw[S], term by term
    out = []
    for t in range(len(raw)):
        total = 0
        s = t
        while True:
            total += raw[s] if (t ^ s).bit_count() % 2 == 0 else -raw[s]
            if s == 0:
                break
            s = (s - 1) & t
        out.append(total)
    return out


def _butterfly_reference(vals, m):
    # the subset Moebius transform mod m one pair at a time, level by level
    out = list(vals)
    bit = 1
    while bit < len(out):
        for t in range(len(out)):
            if t & bit:
                out[t] = (out[t] - out[t ^ bit]) % m
        bit <<= 1
    return out


def _packed_butterfly(vals, m):
    # inverse_zeta_packed on little-endian bytes of field_width(m) bytes per
    # field, holding the values reduced mod m
    width = field_width(m)
    out = inverse_zeta_packed(b"".join((v % m).to_bytes(width, "little") for v in vals), m)
    return [int.from_bytes(out[i:i + width], "little") for i in range(0, len(out), width)]


def test_inverse_zeta_mod_matches_inclusion_exclusion():
    # sizes 2^0 .. 2^11, mod a prime, mod composites (|A12| + 1 among
    # them, 9-byte fields at 2^64 + 1) and mod a modulus past
    # 2^bits * max|v|
    for bits in range(12):
        size = 1 << bits
        raw = [i * i - 5 * i + 1 for i in range(size)]
        expected = _moebius_reference(raw)
        past = (max(abs(v) for v in raw) << bits) + 1
        for m in (7, 6, 2**32, 2**64 + 1, factorial(13) + 1, past):
            assert _packed_butterfly(raw, m) == [e % m for e in expected], (bits, m)


def test_inverse_zeta_packed_field_widths():
    # the inputs are unreduced and partly negative; the moduli give 1-, 2-,
    # 4- and 8-byte fields and wide ones (9 bytes and more), prime or not,
    # and the last one exceeds 2^bits * max|v|, so the residues are the
    # exact signed values shifted into [0, m)
    rng = random.Random(5)
    for bits in range(13):
        size = 1 << bits
        raw = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 70, 100))) for _ in range(size)]
        expected = _moebius_reference(raw)
        past = (max(abs(v) for v in raw) << bits) + 1
        for m in (2, 6, 7, 251, 2**31 - 1, 2**32, 2**61 - 1, 2**63 - 1, 2**64 + 1, 2**89 - 1, past):
            assert _packed_butterfly(raw, m) == [e % m for e in expected], (bits, m)
        # the worst case of the field bound: every term of the full mask
        # adds, so its value reaches 2^bits * top, past 2^63, and is the
        # largest residue mod 2^bits * top + 1
        top = (1 << (64 - bits)) - 1
        worst = [top if (bits - s.bit_count()) % 2 == 0 else -top for s in range(size)]
        m = (top << bits) + 1
        got = _packed_butterfly(worst, m)
        assert got == [e % m for e in _moebius_reference(worst)] and got[-1] == m - 1
    small = [-3, 5, 0, 2**64, -(2**64), 1, 7, -7]
    for m in (3, 2**68):
        assert _packed_butterfly(small, m) == [e % m for e in _moebius_reference(small)]
    with pytest.raises(ValueError):
        _packed_butterfly([1, 2, 3], 7)


def test_inverse_zeta_packed_and_tally_match_pair_reference():
    # the packed entry point and the tally against a pair-at-a-time
    # butterfly, for 2^0 .. 2^10 fields: on little-endian bytes of
    # field_width(m) bytes per field (1, 2, 4, 8 and 11), on the
    # field_buffer of each native modulus (a bytearray, or an array of 2-,
    # 4- or 8-byte items) and on an array wider than the modulus needs;
    # each result comes back in the form it went in, and no input changes.
    # The kernel makes w = (m - 1).bit_length() bit planes, and the moduli
    # sit on both sides of each power of two (m = 2^w adds nothing back
    # after a borrow), of each field width and of the popcount/count
    # crossover of the tally.  Besides random residues, every field m - 1,
    # and m - 1 on the even subsets with 0 on the odd ones, so that the
    # first level borrows in every lane with its bit
    rng = random.Random(11)
    moduli = (2, 3, 4, 5, 8, 9, 16, 17, 127, 128, 129, 131, 256, 257, _POPCOUNT_TALLY_MAX_M,
              _POPCOUNT_TALLY_MAX_M + 1, 32749, 32768, 32769, 65536, 65537, 2**32 - 5, 2**61 - 1,
              2**80 + 13)
    for bits in range(11):
        size = 1 << bits
        for m in moduli:
            width = field_width(m)
            assert width == next(b for b in (1, 2, 4, 8, 11) if m <= 256**b), m
            for vals in ([rng.randrange(m) for _ in range(size)], [m - 1] * size,
                         [(m - 1) * (s.bit_count() % 2 == 0) for s in range(size)]):
                want = _butterfly_reference(vals, m)
                inputs = [b"".join(v.to_bytes(width, "little") for v in vals)]
                if width <= 8:
                    buf = field_buffer(0, m)
                    buf.extend(vals)
                    assert memoryview(buf).itemsize == width
                    inputs += [buf, array("Q", vals)]
                for data in inputs:
                    out = inverse_zeta_packed(data, m)
                    if isinstance(data, array):
                        assert out.typecode == data.typecode and out.tolist() == want, (bits, m)
                        assert data.tolist() == vals
                    elif isinstance(data, bytearray):
                        assert type(out) is bytes and list(out) == want and list(data) == vals
                    else:
                        assert type(out) is bytes and len(out) == len(data)
                        got = [int.from_bytes(out[i:i + width], "little") for i in range(0, len(out), width)]
                        assert got == want, (bits, m)
                if m <= 65537:
                    counts = Counter(want)
                    assert inverse_zeta_tally(buf, m) == [counts[r] for r in range(m)], (bits, m)
    with pytest.raises(ValueError):
        inverse_zeta_packed(array("B", bytes(4)), 257)  # 1-byte fields are too narrow past 256
    with pytest.raises(ValueError):
        inverse_zeta_packed(bytes(6), 257)  # three 2-byte fields


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
    # = C(n, d) C(d, k), so only a table made here shows the second case:
    # position 1 has a zero seed and a step of 1 from position 0, position
    # 2 a zero seed and zero steps
    table, dropped = _chain_table("A", 5, [1, 0, 0], lambda h, k: 0 if h == 2 else 1)
    assert (list(table), dropped) == ([1, 1, 0, 1], 1)


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
            indices = enumerate_compositions(n) if family == "A" else enumerate_pseudo_compositions(n)
            for alpha in indices:
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
        tracemalloc.start()
        try:
            vec = cvec_theorem(family, n, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vec.total() == 1 << (n - mask_offset(family))
        assert peak < ceiling << 20, (family, n, p, peak)


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


def test_methods_agree_small_grid():
    for p in PRIMES:
        for n in range(2, 13):
            assert cvec_naive("A", n, p) == cvec_theorem("A", n, p)
        for n in range(2, 11):
            assert cvec_naive("B", n, p) == cvec_theorem("B", n, p)
        for n in range(4, 11):
            assert cvec_naive("D", n, p) == cvec_theorem("D", n, p)


def test_methods_agree_across_field_widths():
    # 127 and 131 take 1-byte fields, with a sign bit and without, 257 and
    # 32749 take 2 bytes and 65537 takes 4, in the naive table and the
    # theorem term table alike; n = 7 is also reduced index by index
    for p in (127, 131, 257, 32749, 65537):
        for n in range(2, 10):
            assert cvec_naive("A", n, p) == cvec_theorem("A", n, p), (n, p)
            assert cvec_naive("B", n, p) == cvec_theorem("B", n, p), (n, p)
        for n in range(4, 10):
            assert cvec_naive("D", n, p) == cvec_theorem("D", n, p), (n, p)
        for family in "ABD":
            n = 7
            hist = [0] * p
            indices = enumerate_compositions(n) if family == "A" else enumerate_pseudo_compositions(n)
            for alpha in indices:
                hist[ribbon_mod_p(family, alpha, p)] += 1
            assert cvec_naive(family, n, p).counts == tuple(hist), (family, p)


def test_naive_sweep_in_bounded_memory():
    # 2^20 indices: the table, the butterfly and the tally stay in packed
    # fields over the half lattice, so the peak is about two copies of the
    # 0.5 MB field buffer, 1.1 MB traced in 5 and 8 bit planes (with an
    # exact weight table and a list of ints 60 and 96 MB).  At p > n every
    # binomial is a unit mod p, so the table drops no position and holds
    # all 2^19 fields
    for family, n, p in (("A", 21, 23), ("D", 20, 131)):
        assert _weight_table(family, n, p)[1] == 0
        tracemalloc.start()
        try:
            vec = cvec_naive(family, n, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vec.total() == 1 << 20
        assert peak < 5 << 20, (family, n, p, peak)


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
        tracemalloc.start()
        try:
            tally = inverse_zeta_tally(box.pop(), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tuple(2 * c for c in tally) == cvec_naive("D", 22, p).counts
        plane = (1 << 21) // 8 * 16 // 15
        assert peak < max(13, w + 8, 2 * w + 2) * plane, (p, peak)


def test_field_tally_matches_counter():
    # the butterfly's output is tallied by popcounts of its bit planes up to
    # the crossover and by one Counter pass over its fields above it, from
    # a field_buffer; both sides of the crossover are covered, and 1-, 2-
    # and 4-byte fields, against the pair-at-a-time butterfly and a Counter
    rng = random.Random(8)
    assert 509 <= _POPCOUNT_TALLY_MAX_M < 769
    for p in (2, 53, 59, 127, 131, 257, 631, 641, 65537):
        vals = [rng.randrange(p) for _ in range(4096)]
        data = field_buffer(len(vals), p)
        for i, v in enumerate(vals):
            data[i] = v
        counts = Counter(_butterfly_reference(vals, p))
        assert inverse_zeta_tally(data, p) == [counts[r] for r in range(p)], p


def test_methods_agree_type_d_sixteen():
    for p in PRIMES:
        assert cvec_naive("D", 16, p) == cvec_theorem("D", 16, p)


def test_naive_matches_per_index_reduction():
    for p in (2, 3, 5):
        for n in range(1, 8):
            hist = [0] * p
            for alpha in enumerate_compositions(n):
                hist[ribbon_mod_p("A", alpha, p)] += 1
            assert cvec_naive("A", n, p).counts == tuple(hist)
        for family in ("B", "D"):
            for n in range(2, 7):
                hist = [0] * p
                for alpha in enumerate_pseudo_compositions(n):
                    hist[ribbon_mod_p(family, alpha, p)] += 1
                assert cvec_naive(family, n, p).counts == tuple(hist)


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


def test_parity_theorems():
    for n in range(2, 16):
        assert cvec("B", n, 2).counts == (0, 1 << n)
        if n >= 4:
            assert cvec("D", n, 2).counts == (0, 1 << n)


def test_two_adic_divisibility():
    # One carve-out: with an empty support set (type A, n a power of p) the
    # subset/complement pairing degenerates and the guaranteed power drops
    # by one; the n = p^d rows of the reference tables pin this down.
    for p in (3, 5, 7, 11):
        for n in range(2, 17):
            digits = base_p_digits(n, p)
            prod = 1
            for dj in digits:
                prod *= dj + 1
            saturated = _saturated(n, p)
            n0 = digits[0]
            for family in ("A", "B", "D"):
                if family == "D" and n < 4:
                    continue
                vec = cvec_theorem(family, n, p)
                for i, count in enumerate(vec):
                    if family == "D":
                        if (n0 > 0 and i == 0) or saturated:
                            need = n + 2 - prod
                        elif n0 == 0 and i != 0:
                            need = n - prod
                        else:
                            need = n + 1 - prod
                    else:
                        need = (n + 2 - prod) if (i == 0 or saturated) else (n + 1 - prod)
                    if family == "A" and prod == 2:
                        need -= 1
                    if need > 0:
                        assert count % (1 << need) == 0, (family, n, p, i)


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
    # shape, n*, fits the naive budget, and None past it; and by the
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
            vec = cvec_closed_form(family, n, p)
            if least - mask_offset(family) > NAIVE_MAX_BITS:
                assert vec is None, (key, p)
                continue
            assert vec.counts == _spread(*_rule_spread(key, n, p)), (key, p)
            answered += 1
        for p in (101, 1009):
            n = sum(d * p**j for j, d in places.items())
            recorded = []
            with monkeypatch.context() as patch:
                patch.setattr(module, "_spread", lambda *args: recorded.append(args) or tuple(args[0]))
                cvec_theorem(family, n, p)
            (tally, flips, doubled), = recorded
            want, free, _ = _rule_spread(key, n, p)
            # both vectors over 2^(min(flips, free) - 1), flips and free being about n
            base = min(flips, free) - 1
            assert _spread_unshared(tally, flips - base, doubled) == _spread_unshared(want, free - base, False), (key, p)
    assert answered == 37


# -- closed forms -----------------------------------------------------------

def test_closed_form_grid_matches_theorem():
    from ribbonmod.verify import closed_form_grid

    grid = closed_form_grid()
    assert len(grid) > 80
    for family, n, p in grid:
        closed = cvec_closed_form(family, n, p)
        assert closed is not None, (family, n, p)
        assert closed.method.startswith("closed-form:")
        assert closed.counts == cvec_theorem(family, n, p).counts, (family, n, p, closed.method)


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
    # in every family, as is n = 1 + 3^2 + 3^5 + 3^7 of the same shape;
    # type D below n = 4 has no shape
    for family in "ABD":
        assert cvec_closed_form(family, 40, 3) is None
        assert cvec_closed_form(family, 1 + 3**2 + 3**5 + 3**7, 3) is None
    assert cvec_closed_form("D", 3, 3) is None


def test_closed_form_parity():
    assert cvec_closed_form("B", 9, 2).method == "closed-form:parity"
    assert cvec_closed_form("D", 9, 2).counts == (0, 2**9)
    assert cvec_closed_form("D", 3, 2) is None


def test_shape_rule_sweeps_the_least_n_of_the_shape(monkeypatch):
    # n* puts the nonzero digits of n in descending order from place 0 (type
    # D from place 1, after n_0), and is swept naively with the support,
    # Lucas binomials and term table of the theorem route broken
    module = importlib.import_module("ribbonmod.cvec")
    swept = []
    naive = module._naive_counts

    def recording(family, n, p):
        swept.append(n)
        return naive(family, n, p)

    def refuse(*args):
        raise AssertionError("the shape rule ran the theorem route's digit machinery")

    cases = (
        ("A", 1 + 3 * 13**2, 13, 3 + 13),
        ("A", 3**16 + 2 * 3**9 + 3**2, 3, 2 + 3 + 3**2),
        ("B", 3**6 + 2 * 3**4 + 3, 3, 2 + 3 + 3**2),
        ("D", 2 + 3**3 + 2 * 3**5, 3, 2 + 2 * 3 + 3**2),
        ("D", 3**4, 3, 3),
        ("D", 3**3 + 2 * 3**5, 3, 2 * 3 + 3**2),
    )
    theorem = [cvec_theorem(family, n, p) for family, n, p, _ in cases]
    for name in ("support_set", "lucas_binomial", "_term_table"):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(module, "_naive_counts", recording)
    for (family, n, p, least), want in zip(cases, theorem):
        swept.clear()
        assert cvec_closed_form(family, n, p) == want, (family, n, p)
        assert swept == [least], (family, n, p, swept)


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
    assert cvec("A", 1, 5).method == "naive"
    assert cvec("A", 5, 3, method="naive").method == "naive"
    with pytest.raises(NoClosedFormError):
        cvec("A", 40, 3, method="closed")
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


def test_spread_matches_the_unshared_formula(monkeypatch):
    # every closed-form, theorem and naive p-vector of A/B/D with n <= 40
    # and p <= 7 (where the support fits the budget, and the lattice for
    # the naive sweep) is what shifting each entry on its own gives, its
    # equal entries are one object, and the routes agree with each other
    module = importlib.import_module("ribbonmod.cvec")
    calls = []

    def recording(tally, flips, doubled):
        counts = _spread(tally, flips, doubled)
        calls.append((list(tally), flips, doubled, counts))
        return counts

    monkeypatch.setattr(module, "_spread", recording)
    for family, low in (("A", 2), ("B", 2), ("D", 4)):
        for n in range(low, 41):
            for p in (2, 3, 5, 7):
                vecs = [cvec_closed_form(family, n, p)]
                if _support_size(family, base_p_digits(n, p)) <= SUPPORT_MAX:
                    vecs.append(cvec_theorem(family, n, p))
                if n - mask_offset(family) <= 14:
                    vecs.append(cvec_naive(family, n, p))
                vecs = [v for v in vecs if v is not None]
                assert all(v == vecs[0] for v in vecs), (family, n, p)
    assert len(calls) > 600
    assert {(bool(flips), doubled) for _, flips, doubled, _ in calls} == {
        (False, False), (False, True), (True, False), (True, True)}
    for tally, flips, doubled, counts in calls:
        assert counts == _spread_unshared(tally, flips, doubled), (tally, flips, doubled)
        first = {}
        assert all(first.setdefault(c, c) is c for c in counts), (tally, flips, doubled)


def test_shared_entries_in_bounded_memory():
    # B n = 3^15 p = 3 has two equal counts of 14348907 bits; shifting each
    # on its own peaks at about two counts, one shared int at about one;
    # a small query first, so no first-call set-up is traced
    cvec("B", 3**5, 3)
    tracemalloc.start()
    try:
        vec = cvec("B", 3**15, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(max(vec.counts))
    assert vec.counts[1] is vec.counts[2]
    assert peak < 1.5 * size, (peak, size)


def test_results_past_the_bit_budget_refused_before_any_shift():
    # A n = 2^40 at p = 2 has one count of 2^40 bits, D n = 7^12 + 7^5 + 3
    # at p = 7 four of about 1.4 * 10^10, and the parity answers of types B
    # and D at n = 2^40 one of 2^40 + 1: each is refused before a count is
    # shifted, by the auto path and by the route that answers
    n = 7**12 + 7**5 + 3
    calls = [
        lambda: cvec("A", 2**40, 2),
        lambda: cvec_closed_form("A", 2**40, 2),
        lambda: cvec("D", n, 7),
        lambda: cvec_theorem("D", n, 7),
        lambda: cvec_theorem("B", 2**40, 2),
        lambda: cvec_closed_form("D", 2**40, 2),
    ]
    for call in calls:
        started = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"the budget is {RESULT_BITS_MAX} bits"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert time.perf_counter() - started < 1


def test_auto_path_refuses_a_result_past_the_budget_once(monkeypatch):
    # a result past the bit budget is past it on every route: the closed
    # form's refusal of A n = 2^40 at p = 2 ends the call before the theorem
    # route, and the theorem route's refusal of D n = 7^12 + 7^5 + 3 at p = 7
    # ends it before the naive route
    module = importlib.import_module("ribbonmod.cvec")

    def entered(*args):
        raise AssertionError("a second route ran after a result-budget refusal")

    for name, family, n, p in (("cvec_theorem", "A", 2**40, 2), ("cvec_naive", "D", 7**12 + 7**5 + 3, 7)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, entered)
            with pytest.raises(CapacityError, match=f"the budget is {RESULT_BITS_MAX} bits"):
                cvec(family, n, p)


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
            with pytest.raises(CapacityError, match=f"needs {bits} bits"):
                cvec(family, n, p)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        cvec_naive("A", 40, 3)
    with pytest.raises(ValueError):
        DimensionPVector("A", 4, 3, (1, 2))


def test_huge_prime_refused_before_the_tally():
    # a p-entry tally of p = 2^31 - 1 would take gigabytes; every entry
    # point refuses the prime before allocating anything of size p
    p = 2**31 - 1
    calls = [
        lambda: cvec("A", 7, p),
        lambda: cvec_naive("A", 7, p),
        lambda: cvec_theorem("A", 7, p),
        lambda: cvec_closed_form("A", 7, p),
        lambda: residue_histogram(builtin_diagram("A3"), p),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_oversized_support_refused_before_it_is_built():
    # n = 3^13 - 1 has thirteen digits 2, so its support would hold
    # 3^13 - 2 positions, and building its 1.6 million sums takes over
    # 100 MB; the size is read off the digits before anything is built.
    # n = 3^15 - 1 is past support_set's own cap of 2^22 sums
    n = 3**13 - 1
    calls = [
        lambda: cvec("A", n, 3),
        lambda: cvec_theorem("A", n, 3),
        lambda: cvec_theorem("D", n, 3),
        lambda: support_set("B", 3**15 - 1, 3),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_auto_refusal_names_both_budgets():
    # past both sweeps' budgets, the auto path says why each route refused
    with pytest.raises(CapacityError) as excinfo:
        cvec("A", 3**13 - 1, 3)
    message = str(excinfo.value)
    assert f"2^{SUPPORT_MAX}" in message and "support sweep" in message
    assert f"2^{NAIVE_MAX_BITS}" in message and "naive sweep" in message


def test_auto_refusal_names_both_budgets_for_a_single_digit():
    # n = m * p^d has the shape of m, which the shape rule sweeps naively;
    # when m is past the naive budget there is no closed form, and auto
    # still tries both sweeps on n
    for family, n, p, support in (("A", 50 * 101, 101, 49), ("B", 30 * 31, 31, 30)):
        with pytest.raises(CapacityError) as excinfo:
            cvec(family, n, p)
        message = str(excinfo.value)
        assert f"support sweep needs 2^{support} subsets" in message
        assert f"naive sweep needs 2^{n - mask_offset(family)} indices" in message
        with pytest.raises(NoClosedFormError):
            cvec(family, n, p, method="closed")


@given(
    family=st.sampled_from(["A", "B", "D"]),
    n=st.integers(min_value=4, max_value=13),
    p=st.sampled_from(PRIMES),
)
@settings(max_examples=60, deadline=None)
def test_methods_agree_random(family, n, p):
    assert cvec_naive(family, n, p) == cvec_theorem(family, n, p)


# -- symmetric-group counts -------------------------------------------------

def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(10)) == 42
    assert list(partitions(0)) == [()]
    with pytest.raises(ValueError):
        next(partitions(-1))


def test_standard_tableau_count():
    assert standard_tableau_count((2, 2)) == 2
    assert standard_tableau_count((7,)) == 1
    assert standard_tableau_count((3, 2)) == 5
    with pytest.raises(ValueError):
        standard_tableau_count((2, 3))
    with pytest.raises(ValueError):
        standard_tableau_count(())


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


def test_macdonald_digit_past_the_budget_refused_before_allocating():
    # n = 10^9 below p = 10^9 + 7 is one digit of 10^9: its series would be
    # a list of 10^9 + 1 ints.  The largest allowed digit still runs
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            macdonald_mp(10**9, 10**9 + 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CapacityError):
        macdonald_mp(MACDONALD_DIGIT_MAX + 1, 1009)
    assert macdonald_mp(MACDONALD_DIGIT_MAX, 1009) > 0


def test_macdonald_cost_past_the_budget_refused_before_allocating():
    # digit 1000 at p^2 = 1009^2 colours (series of about 20000-bit
    # coefficients, 2.0e10 bit steps) and the 1250 digits 1 of 2^1250 - 1
    # (a product of 2^j for j < 1250, 2.0e10) are past the budget; digit
    # 1000 at p^1 (1.0e10) and the 200 digits 1 of 2^200 - 1 (1.3e7, a
    # product that takes about a millisecond) still answer
    for n, p in ((1000 * 1009**2, 1009), (2**1250 - 1, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                macdonald_mp(n, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert 1000**3 * (1009).bit_length() <= MACDONALD_COST_MAX < 1000**3 * (1009**2).bit_length()
    assert macdonald_mp(1000, 1009) == 24061467864032622473692149727991  # p(1000)
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


def test_macdonald_matches_hook_sweep():
    for n in range(1, 11):
        for p in (2, 3, 5, 7):
            brute = sum(1 for lam in partitions(n) if standard_tableau_count(lam) % p != 0)
            assert macdonald_mp(n, p) == brute


def test_macdonald_distinct_power_formula():
    for p in (2, 3, 5, 7):
        for mask in range(1, 1 << 4):
            exponents = [e for e in range(4) if mask >> e & 1]
            n = sum(p**e for e in exponents)
            assert macdonald_mp(n, p) == p ** sum(exponents)
