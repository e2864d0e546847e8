import itertools
import random
import tracemalloc
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ribbonmod.arith import base_p_digits, inverse_zeta, multinomial_exact
from ribbonmod.compositions import (
    CapacityError,
    _parts_from_mask,
    enumerate_compositions,
    enumerate_pseudo_compositions,
)
from ribbonmod.coxeter import builtin_diagram, residue_histogram
from ribbonmod.cvec import (
    DimensionPVector,
    NoClosedFormError,
    cvec,
    cvec_closed_form,
    cvec_naive,
    cvec_theorem,
    macdonald_mp,
    partitions,
    standard_tableau_count,
    support_residue,
    support_set,
    _RULES,
    _exact_weight_table,
    _term_table,
    _theorem_tally,
)
from ribbonmod.ribbon import _chain_sum, _digit_cache, ribbon_mod_p, term_mod_p

PRIMES = (2, 3, 5, 7, 11, 13)
ODD_PRIMES = (3, 5, 7, 11, 13)


# -- support sets -----------------------------------------------------------

def test_support_set_multiple_of_power():
    for p, m, d in ((3, 2, 2), (5, 4, 1), (7, 3, 2)):
        n = m * p**d
        assert support_set("A", n, p).elements == tuple(j * p**d for j in range(1, m))


def test_support_set_two_powers():
    for p in (2, 3, 5):
        for u, v in ((1, p), (p, p * p), (1, p**3)):
            assert support_set("A", u + v, p).elements == (u, v)
    for p in (3, 5):
        for u, v in ((1, p), (p, p * p)):
            assert support_set("B", u + v, p).elements == (0, u, v)


def test_support_set_sizes():
    for p in ODD_PRIMES:
        for n in range(2, 30):
            prod = 1
            for dj in base_p_digits(n, p):
                prod *= dj + 1
            assert len(support_set("A", n, p)) == prod - 2
            assert len(support_set("B", n, p)) == prod - 1
            if n >= 4:
                n0 = base_p_digits(n, p)[0]
                expected = prod if n0 == 0 else prod - 1
                assert len(support_set("D", n, p)) == expected


def test_support_set_type_d_adjoins_one():
    sup = support_set("D", 9, 3)  # digits (0, 0, 1): the plain sums are {0, 9}
    assert sup.elements == (0, 1)
    assert 1 in set(support_set("D", 12, 3).elements)


def test_support_set_validation():
    with pytest.raises(ValueError):
        support_set("A", 1, 3)
    with pytest.raises(ValueError):
        support_set("D", 3, 5)
    with pytest.raises(ValueError):
        support_set("B", 6, 2)
    with pytest.raises(ValueError):
        support_set("D", 6, 2)


# -- per-subset residues ----------------------------------------------------

def test_support_residue_two_powers_full_subset():
    for p in (3, 5, 7):
        u, v = 1, p
        assert support_residue("A", (u, v), u + v, p) == p - 1


def test_support_residue_type_b_zero_subset():
    for p in (3, 5, 7):
        u, v = 1, p
        assert support_residue("B", (0,), u + v, p) == 3 % p


def test_support_residue_type_d_prime_power():
    for p, d in ((3, 2), (5, 1), (7, 1)):
        assert support_residue("D", (0, 1), p**d, p) == p - 1


def test_support_residue_rejects_foreign_positions():
    with pytest.raises(ValueError):
        support_residue("A", (2,), 4, 3)  # support of n=4, p=3 is {1, 3}


def test_support_residue_large_n_in_bounded_memory():
    # two support positions at n = 3^18 + 1: the residue comes from their
    # digits alone, never from an n-bit descent mask per subset
    n = 3**18 + 1
    tracemalloc.start()
    try:
        got = support_residue("A", (1, 3**18), n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 2
    assert peak < 2 << 20


def test_support_residue_matches_bulk_sweep():
    for family, n, p in (("A", 8, 3), ("A", 10, 5), ("B", 7, 3), ("D", 8, 3), ("D", 10, 5)):
        sup = support_set(family, n, p)
        pos = sup.elements
        tally, _ = _theorem_tally(family, n, p)
        recomputed = Counter()
        for mask in range(1 << len(pos)):
            subset = [pos[i] for i in range(len(pos)) if mask >> i & 1]
            recomputed[support_residue(family, subset, n, p)] += 1
        assert [recomputed[i] for i in range(p)] == tally


def test_term_table_matches_term_mod_p():
    # the prefix-product table against the per-subset digit evaluation
    checked = 0
    for family in ("A", "B", "D"):
        lo = 1 if family == "A" else 0
        for p in (2, 3, 5, 7):
            if family != "A" and p == 2:
                continue
            for n in range(4 if family == "D" else 2, 80):
                pos = support_set(family, n, p).elements
                if len(pos) > 12:
                    continue
                nd = base_p_digits(n, p).digits
                digit_row = _digit_cache(n, p, len(nd))
                inv2 = pow(2, p - 2, p) if p > 2 else 1
                table = _term_table(family, n, p, pos)
                assert len(table) == 1 << len(pos)
                for sel, got in enumerate(table):
                    mask = sum(1 << (d - lo) for i, d in enumerate(pos) if sel >> i & 1)
                    parts = _parts_from_mask(n, mask, lo)
                    assert got == term_mod_p(family, parts, nd, p, digit_row, inv2), (family, n, p, sel)
                checked += 1
    assert checked > 300


def test_inverse_zeta_mod_matches_inclusion_exclusion():
    # sizes 2^0 .. 2^11 take both the strided and the contiguous branch,
    # mod a prime, mod composites (|A12| + 1 among them, a modulus the
    # Coxeter classes use) and mod a modulus past 2^bits * max|v|
    for bits in range(12):
        size = 1 << bits
        raw = [i * i - 5 * i + 1 for i in range(size)]
        expected = []
        for t in range(size):
            total = 0
            s = t
            while True:
                term = raw[s]
                total += term if (t ^ s).bit_count() % 2 == 0 else -term
                if s == 0:
                    break
                s = (s - 1) & t
            expected.append(total)
        past = (max(abs(v) for v in raw) << bits) + 1
        for m in (7, 6, 2**32, 2**64 + 1, factorial(13) + 1, past):
            vals = [v % m for v in raw]
            inverse_zeta(vals, m)
            assert vals == [e % m for e in expected], (bits, m)


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
            vals = raw[:]
            inverse_zeta(vals, m)
            assert vals == [e % m for e in expected], (bits, m)
        # the worst case of the field bound: every term of the full mask
        # adds, so its value reaches 2^bits * top, past 2^63, and is the
        # largest residue mod 2^bits * top + 1
        top = (1 << (64 - bits)) - 1
        worst = [top if (bits - s.bit_count()) % 2 == 0 else -top for s in range(size)]
        m = (top << bits) + 1
        expected = _moebius_reference(worst)
        inverse_zeta(worst, m)
        assert worst == [e % m for e in expected] and worst[-1] == m - 1
    small = [-3, 5, 0, 2**64, -(2**64), 1, 7, -7]
    for m in (3, 2**68):
        vals = small[:]
        inverse_zeta(vals, m)
        assert vals == [e % m for e in _moebius_reference(small)]
    with pytest.raises(ValueError):
        inverse_zeta([1, 2, 3], 7)


def test_weight_table_matches_per_mask_reference():
    # covering counts: the multinomial of the mask's parts times the
    # family's power of two; in type D a lowest descent at 0 or 1 weighs
    # 2^(n-1), and a lone descent at 1 counts as one at 0
    for family in "ABD":
        for n in range(2 if family == "D" else 1, 11):
            table = _exact_weight_table(family, n)
            lo = 1 if family == "A" else 0
            bits = n - 1 if family == "A" else n
            assert len(table) == 1 << bits
            for mask, got in enumerate(table):
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
                want = weight * multinomial_exact(n, _parts_from_mask(n, source, lo))
                assert got == want, (family, n, mask)


def test_theorem_tally_complement_pairing():
    # complementing a subset negates the residue free-bit-count many times,
    # so tallies are all even when that count is even and palindromic (with
    # an even zero entry) when it is odd; either way the support must be
    # nonempty for the pairing to be free
    for family, n, p in (("A", 8, 3), ("A", 12, 5), ("B", 9, 3), ("D", 9, 3), ("D", 12, 7)):
        assert len(support_set(family, n, p)) > 0
        tally, free = _theorem_tally(family, n, p)
        if free % 2 == 0:
            assert all(t % 2 == 0 for t in tally)
        else:
            assert tally[0] % 2 == 0
            assert all(tally[i] == tally[p - i] for i in range(1, p))
    # the lone exception: an empty support (type A, n a power of p) has the
    # single self-complementary subset, whose residue is 1
    tally, free = _theorem_tally("A", 9, 3)
    assert tally == [0, 1, 0] and free == 8


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
    # n = 2*3^2 + 2*3^0: no closed form, pinned by an independent report
    assert cvec_theorem("A", 20, 3).counts == (42 * 2**12, 43 * 2**12, 43 * 2**12)
    assert cvec_closed_form("A", 20, 3) is None


# -- structural invariants --------------------------------------------------

def _saturated(n, p):
    digits = base_p_digits(n, p).digits
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
            digits = base_p_digits(n, p).digits
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
# The closed-form rule table freezes tallies of these statistics; they live
# here, next to the test that rebuilds the table from them.


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
    # statistic; the rule table freezes the tally of those statistics
    def tally(members, statistic):
        values = Counter()
        for picks in itertools.product((False, True), repeat=len(members)):
            values[statistic([u for u, pick in zip(members, picks) if pick])] += 1
        return dict(values), len(members)

    for k in (2, 3, 4):
        members = [frozenset(c) for r in range(1, k) for c in itertools.combinations(range(k), r)]
        assert _RULES["A", "p-powers", k] == tally(members, signed_chain_count)
    members = [frozenset(c) for r in range(2) for c in itertools.combinations(range(2), r)]
    assert _RULES["B", "p-powers", 2] == tally(members, lambda t: weighted_chain_count(t, 2))


# -- closed forms -----------------------------------------------------------

def test_closed_form_grid_matches_theorem():
    from ribbonmod.cli import closed_form_grid

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
    n = 25  # 5^2
    vec = cvec_closed_form("D", n, 5)
    assert vec.method == "closed-form:p^d"
    assert vec.counts == (2**24, 2**23, 0, 0, 2**23)
    n = 10  # 1 + 3^2
    vec = cvec_closed_form("D", n, 3)
    assert vec.method == "closed-form:1+p^d"
    assert vec.counts == (0, 2**9, 2**9)


def test_closed_form_absent():
    assert cvec_closed_form("A", 11, 7) is None
    assert cvec_closed_form("B", 7, 3) is None
    assert cvec_closed_form("D", 7, 3) is None
    assert cvec_closed_form("D", 3, 3) is None


def test_closed_form_parity():
    assert cvec_closed_form("B", 9, 2).method == "closed-form:parity"
    assert cvec_closed_form("D", 9, 2).counts == (0, 2**9)
    assert cvec_closed_form("D", 3, 2) is None


# -- dispatch and the value type --------------------------------------------

def test_cvec_dispatch():
    assert cvec("A", 5, 3).method.startswith("closed-form")
    assert cvec("A", 20, 3).method == "theorem"
    assert cvec("A", 1, 5).method == "naive"
    assert cvec("A", 5, 3, method="naive").method == "naive"
    with pytest.raises(NoClosedFormError):
        cvec("A", 11, 7, method="closed")
    with pytest.raises(ValueError):
        cvec("A", 5, 3, method="fancy")
    with pytest.raises(ValueError):
        cvec("A", 5, 4)
    with pytest.raises(ValueError):
        cvec("D", 1, 3)


def test_method_tag_is_not_compared():
    assert cvec_naive("A", 6, 3) == cvec_theorem("A", 6, 3)


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
