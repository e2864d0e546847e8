import random
import time
from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

import ribbonmod.arith as arith
import ribbonmod.ribbon as ribbon
from ribbonmod.arith import multinomial_exact
from conftest import coarsenings, indices
from ribbonmod.compositions import Composition, PseudoComposition
from ribbonmod.ribbon import (
    _bareiss_det,
    _chain_exact,
    chain_mod_p,
    oracle_descent_class_sizes,
    ribbon_a_det,
    ribbon_exact,
    ribbon_mod_p,
)

PRIMES = (2, 3, 5, 7, 11, 13)
ODD_PRIMES = PRIMES[1:]


# -- exact values -----------------------------------------------------------

A_VALUES = {
    (1,): 1,
    (1, 1): 1, (2,): 1,
    (1, 1, 1): 1, (3,): 1, (1, 2): 2, (2, 1): 2,
    (1, 1, 1, 1): 1, (4,): 1,
    (1, 1, 2): 3, (2, 1, 1): 3, (1, 3): 3, (3, 1): 3,
    (1, 2, 1): 5, (2, 2): 5,
}

B_VALUES = {
    (1,): 1, (0, 1): 1,
    (2,): 1, (0, 1, 1): 1, (1, 1): 3, (0, 2): 3,
    (3,): 1, (0, 1, 1, 1): 1, (2, 1): 5, (0, 1, 2): 5,
    (0, 3): 7, (1, 1, 1): 7, (1, 2): 11, (0, 2, 1): 11,
}


def test_ribbon_a_known_values():
    for parts, value in A_VALUES.items():
        assert ribbon_exact("A", Composition(parts)) == value


def test_ribbon_b_known_values():
    for parts, value in B_VALUES.items():
        assert ribbon_exact("B", PseudoComposition(parts)) == value


def test_ribbon_d_known_values():
    assert ribbon_exact("D", PseudoComposition((4,))) == 1
    assert ribbon_exact("D", PseudoComposition((0, 4))) == 7
    assert sum(ribbon_exact("D", a) for a in indices(PseudoComposition, 4)) == 192
    with pytest.raises(ValueError):
        ribbon_exact("D", PseudoComposition((0, 1)))


def _coarsening_sum(family, alpha):
    # reference: the signed sum of covering counts over every coarsening
    n = alpha.n
    total = 0
    for beta in coarsenings(alpha):
        parts = beta.parts
        if family == "A":
            weight = 1
        elif family == "B" or parts[0] > 1:
            weight = 1 << (n - parts[0])
        else:
            weight = 1 << (n - 1)
            if parts[0] == 1:  # a lone descent at 1 merges into the next part
                parts = (1 + parts[1],) + parts[2:]
        term = weight * multinomial_exact(n, parts)
        total += term if (len(alpha) - len(beta)) % 2 == 0 else -term
    return total


def test_chain_recurrence_matches_coarsening_sum():
    for n in range(1, 11):
        for alpha in indices(Composition, n):
            assert ribbon_exact("A", alpha) == _coarsening_sum("A", alpha)
        for alpha in indices(PseudoComposition, n):
            assert ribbon_exact("B", alpha) == _coarsening_sum("B", alpha)
            if n >= 2:
                assert ribbon_exact("D", alpha) == _coarsening_sum("D", alpha)


@given(
    family=st.sampled_from("ABD"),
    first=st.integers(min_value=0, max_value=6),
    rest=st.lists(st.integers(min_value=1, max_value=6), max_size=15),
)
@settings(max_examples=40, deadline=None)
def test_chain_recurrence_matches_coarsening_sum_random(family, first, rest):
    if family == "A":
        alpha = Composition((first + 1, *rest))
    else:
        alpha = PseudoComposition((first, *rest))
    assume(family != "D" or alpha.n >= 2)
    expected = _coarsening_sum(family, alpha)
    assert ribbon_exact(family, alpha) == expected
    for p in PRIMES[:4]:  # n > p for most draws, so several Lucas digits
        assert ribbon_mod_p(family, alpha, p) == expected % p


def test_ribbon_d_descents_at_zero_and_one():
    # a descent at 1 is the end of a part of size 1 after a descent at 0,
    # and merges into the next part without one
    for parts in ((0, 1, 1, 1, 1, 3, 4), (0, 1, 3), (1, 1, 2, 5), (0, 2, 1, 1)):
        alpha = PseudoComposition(parts)
        expected = _coarsening_sum("D", alpha)
        assert ribbon_exact("D", alpha) == expected
        for p in ODD_PRIMES:
            assert ribbon_mod_p("D", alpha, p) == expected % p


def test_ribbon_a_det_known_values():
    assert ribbon_a_det(Composition((1, 2, 1))) == 5
    assert ribbon_a_det(Composition((2,))) == 1
    assert ribbon_a_det(Composition((1, 1, 1, 1))) == 1


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * a * _cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]))


def test_bareiss_det_matches_cofactor_expansion():
    # ribbon_a_det's matrices have positive leading minors, so the zero-pivot
    # row swap and the singular 0 are reached only from matrices like these:
    # every matrix of size 1 to 3 with entries in {-1, 0, 1}, and sparse
    # random ones of size 4 and 5
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[0, 2, 1], [0, 1, 1], [3, 0, 1]]) == 3
    assert _bareiss_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    for size in (1, 2, 3):
        for entries in product((-1, 0, 1), repeat=size * size):
            rows = [list(entries[i:i + size]) for i in range(0, size * size, size)]
            assert _bareiss_det(rows) == _cofactor_det(rows), rows
    rng = random.Random(7)
    for size in (4, 5):
        for _ in range(300):
            rows = [[rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(size)] for _ in range(size)]
            assert _bareiss_det(rows) == _cofactor_det(rows), rows


def test_determinant_route_refuses_a_non_integer(monkeypatch):
    # for (2, 2) the determinant is 10 and n! 10 / (4! 2!) = 5; one more
    # leaves a remainder, which is refused, never rounded away
    monkeypatch.setattr(ribbon, "_bareiss_det", lambda rows: _bareiss_det(rows) + 1)
    with pytest.raises(ArithmeticError, match="non-integer"):
        ribbon_a_det(Composition((2, 2)))


def test_positivity_and_oddness():
    for n in range(1, 9):
        for alpha in indices(PseudoComposition, n):
            b = ribbon_exact("B", alpha)
            assert b >= 1 and b % 2 == 1
            if n >= 4:
                d = ribbon_exact("D", alpha)
                assert d >= 1 and d % 2 == 1


def _given_side(family, alpha):
    # the chain recurrence on alpha's own descents, where ribbon_exact may
    # run on the complement's
    return _chain_exact(family, alpha.n, alpha.descents())


def test_complement_symmetry():
    # a class and its complement have the same size, on the given side of
    # each, and ribbon_exact, which runs on the side with fewer descents,
    # agrees with both; type D includes n = 2, 3
    for n in range(1, 13):
        for alpha in indices(Composition, n):
            given = _given_side("A", alpha)
            assert ribbon_exact("A", alpha) == given == _given_side("A", alpha.complement())
    for n in range(2, 11):
        for alpha in indices(PseudoComposition, n):
            for family in "BD":
                given = _given_side(family, alpha)
                assert ribbon_exact(family, alpha) == given == _given_side(family, alpha.complement())


@given(n=st.integers(min_value=1, max_value=14), data=st.data())
@settings(max_examples=120, deadline=None)
def test_complement_symmetry_random(n, data):
    # the determinant runs on the given side, ribbon_exact on the smaller one
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    alpha = Composition.from_mask(n, mask)
    assert ribbon_exact("A", alpha) == ribbon_a_det(alpha) == ribbon_a_det(alpha.complement())


def test_many_part_classes_run_on_the_complement():
    # 1^3000 has 2999 descents (0, 1^3000 has 3000 in types B and D) and
    # its complement none, the class of the identity: the given side takes
    # minutes, the complement answers at once
    for family, parts in (("A", (1,) * 3000), ("B", (0,) + (1,) * 3000), ("D", (0,) + (1,) * 3000)):
        alpha = (Composition if family == "A" else PseudoComposition)(parts)
        started = time.perf_counter()
        assert ribbon_exact(family, alpha) == 1
        assert ribbon_mod_p(family, alpha, 3) == 1
        assert time.perf_counter() - started < 1
    alpha = Composition((1,) * 200000)
    started = time.perf_counter()
    assert ribbon_mod_p("A", alpha, 3) == 1
    assert time.perf_counter() - started < 1
    # the complement of 2, 1^1198 is 1, 1199: one descent, C(1200, 1) - 1
    alpha = Composition((2,) + (1,) * 1198)
    assert ribbon_exact("A", alpha) == 1199


# -- modular values ---------------------------------------------------------

def test_ribbon_mod_p_known_values():
    assert ribbon_mod_p("A", Composition((2, 2)), 3) == 2
    for n in (3, 5, 8):
        for alpha in indices(PseudoComposition, n):
            assert ribbon_mod_p("B", alpha, 2) == 1
    for alpha in indices(PseudoComposition, 5):
        assert ribbon_mod_p("D", alpha, 2) == 1


def test_ribbon_mod_p_type_d_needs_n_at_least_2():
    # the n check comes before the p = 2 parity shortcut
    for p in (2, 3):
        with pytest.raises(ValueError, match="n >= 2"):
            ribbon_mod_p("D", PseudoComposition((1,)), p)
        with pytest.raises(ValueError, match="n >= 2"):
            ribbon_mod_p("D", PseudoComposition((0, 1)), p)
    assert ribbon_mod_p("B", PseudoComposition((1,)), 2) == 1


def test_ribbon_mod_p_matches_exact():
    exact_a = {n: {a: ribbon_exact("A", a) for a in indices(Composition, n)} for n in range(1, 11)}
    exact_bd = {
        n: {a: (ribbon_exact("B", a), ribbon_exact("D", a)) for a in indices(PseudoComposition, n)}
        for n in range(2, 10)
    }
    for p in PRIMES:
        for n, table in exact_a.items():
            for alpha, value in table.items():
                assert ribbon_mod_p("A", alpha, p) == value % p
        for n, table in exact_bd.items():
            for alpha, (value_b, value_d) in table.items():
                assert ribbon_mod_p("B", alpha, p) == value_b % p
                assert ribbon_mod_p("D", alpha, p) == value_d % p


def test_ribbon_mod_p_on_one_digit_and_two():
    # n = p - 1 is one base-p digit, n = p and p + 1 are two, with the low
    # digit 0 and 1; every family gives the exact value reduced
    p = 1031
    for n in (p - 1, p, p + 1):
        for family, alpha in (("A", Composition((300, n - 600, 300))),
                              ("B", PseudoComposition((0, 1, n - 201, 200))),
                              ("D", PseudoComposition((0, 1, n - 201, 200)))):
            assert ribbon_mod_p(family, alpha, p) == ribbon_exact(family, alpha) % p


def test_chain_mod_p_refuses_a_composite_modulus():
    # the kernel takes bare positions, so it checks its modulus itself; at
    # 1030 > n every binomial would otherwise be one digit and 4 would read
    # base-4 digits
    for bad in (1, 4, 1030):
        with pytest.raises(ValueError, match="modulus must be a prime"):
            chain_mod_p("A", 10, (3, 7), bad)


def test_ribbon_mod_p_large_index():
    # a sparse index far beyond the exact-enumeration comfort zone
    alpha = Composition((81, 81, 81))  # n = 3^5
    assert ribbon_mod_p("A", alpha, 3) == ribbon_exact("A", alpha) % 3


def test_ribbon_exact_dispatch():
    assert ribbon_exact("A", Composition((2, 2))) == 5
    assert ribbon_exact("B", PseudoComposition((0, 3))) == 7
    assert ribbon_exact("D", PseudoComposition((0, 4))) == 7
    with pytest.raises(ValueError):
        ribbon_exact("E", Composition((2,)))
    with pytest.raises(TypeError):
        ribbon_exact("A", PseudoComposition((0, 2)))
    with pytest.raises(TypeError):
        ribbon_exact("B", Composition((2,)))
    with pytest.raises(TypeError):
        ribbon_a_det(PseudoComposition((0, 3)))


# -- the group oracle -------------------------------------------------------

def test_oracle_type_a_example():
    classes = oracle_descent_class_sizes("A", 4)
    got = {alpha.descents(): size for alpha, size in classes.items()}
    assert got == {
        (): 1, (1,): 3, (2,): 5, (3,): 3,
        (1, 2): 3, (1, 3): 5, (2, 3): 3, (1, 2, 3): 1,
    }
    assert classes[Composition((1, 2, 1))] == 5


def test_oracle_type_b_small():
    classes = oracle_descent_class_sizes("B", 2)
    assert sorted(classes.values()) == [1, 1, 3, 3]
    assert classes[PseudoComposition((0, 2))] == 3
    assert sum(classes.values()) == 8


def test_oracle_type_d_small():
    classes = oracle_descent_class_sizes("D", 4)
    assert len(classes) == 16
    assert sum(classes.values()) == 192


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_counts_each_permutation(n):
    # the coset tally against a plain loop over S_n; n = 1-8 runs every
    # split from k = n (no prefix) to prefixes of length 3
    expected = Counter()
    for w in permutations(range(1, n + 1)):
        expected[tuple(i for i in range(1, n) if w[i - 1] > w[i])] += 1
    classes = oracle_descent_class_sizes("A", n)
    assert {alpha.descents(): size for alpha, size in classes.items()} == expected
    assert sum(classes.values()) == factorial(n)


def _signed_windows(family, n):
    """Every window of W(B_n), or of its even subgroup in type D."""
    for base in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            if family == "D" and signs.count(-1) % 2:
                continue
            yield tuple(s * v for s, v in zip(signs, base))


def _signed_descents(w, family):
    """The descent positions of a signed window w, ascending: position i
    compares w(i) with w(i + 1), where w(0) is 0 in type B and -w(2) in
    type D."""
    return tuple(i for i, (a, b) in enumerate(zip((-w[1] if family == "D" else 0, *w), w)) if a > b)


@pytest.mark.parametrize("family, n", [("B", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)])
def test_oracle_counts_each_signed_window(family, n):
    # the sign-pattern x permutation oracle against a tally of the
    # element-level descent sets
    expected = Counter(_signed_descents(w, family) for w in _signed_windows(family, n))
    classes = oracle_descent_class_sizes(family, n)
    assert {alpha.descents(): size for alpha, size in classes.items()} == expected
    order = factorial(n) << n
    assert sum(classes.values()) == (order if family == "B" else order // 2)


def test_oracle_budget():
    # tests/test_budgets.py refuses an n past ORACLE_MAX_N; an n below the
    # family's least n is out of range, not past a budget
    for family, n, lo in (("D", 1, 2), ("A", 0, 1), ("B", -10**5000, 1)):
        with pytest.raises(ValueError, match=f"oracle, which needs n >= {lo}") as excinfo:
            oracle_descent_class_sizes(family, n)
        assert type(excinfo.value) is ValueError


# -- signed permutations ----------------------------------------------------

def test_signed_permutation_descents():
    # the empty window is B_0's one element, with no descent
    for w, family, descents in (((-1, 2), "B", (0,)), ((-2, -1), "D", (0,)), ((2, 1), "D", (1,)), ((1, 2), "D", ()),
                                ((3, -1, 2), "B", (1,)), ((-3, 1, -2), "D", (0, 2)), ((), "B", ())):
        assert _signed_descents(w, family) == descents, (w, family)


def test_ribbon_mod_p_tests_the_prime_once(monkeypatch):
    # 100 descents, each expanded in base p: the Miller-Rabin loop (one
    # modular power per base for a prime) runs once, not once per descent
    p = 10**11 + 3
    powers = []

    def counting(*args):
        if args[2:] == (p,):
            powers.append(args[0])
        return pow(*args)

    # n = 1100, and the complement has 999 descents, so none is flipped
    alpha = Composition((1000,) + (1,) * 100)
    assert alpha.n == 1100 and alpha.fewer_descents() is alpha
    expected = _given_side("A", alpha) % p
    arith.is_prime.cache_clear()
    monkeypatch.setattr(arith, "pow", counting, raising=False)
    assert ribbon_mod_p("A", alpha, p) == ribbon_mod_p("A", alpha, p) == expected
    assert powers == list(arith._MR_BASES)
