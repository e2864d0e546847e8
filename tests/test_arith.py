import random
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ribbonmod.arith import (
    _POPCOUNT_TALLY_MAX_M,
    MILLER_RABIN_LIMIT,
    base_p_digits,
    check_prime,
    field_buffer,
    inverse_zeta_packed,
    inverse_zeta_tally,
    is_prime,
    lucas_binomial,
    multinomial_exact,
)
from ribbonmod.compositions import CapacityError

PRIMES = (2, 3, 5, 7, 11, 13)


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-5, 20000))


def test_is_prime_pseudoprimes_and_large_primes():
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(carmichael)
    assert not is_prime(3215031751)  # 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
    assert is_prime(2**61 - 1)
    assert is_prime(10**11 + 3)


def test_is_prime_refuses_beyond_its_exact_range():
    assert not is_prime(10**30)  # divisible by a base: still decided
    for p in (MILLER_RABIN_LIMIT, 2**89 - 1):
        with pytest.raises(CapacityError):
            is_prime(p)


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, -3, 0])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError):
        check_prime(bad)
    with pytest.raises(ValueError):
        base_p_digits(10, bad)


def test_base_p_digits_known_values():
    assert base_p_digits(5, 3) == (2, 1)
    assert base_p_digits(4, 2) == (0, 0, 1)
    assert base_p_digits(20, 3) == (2, 0, 2)
    assert base_p_digits(0, 7) == (0,)


def _value(digits, p):
    return sum(d * p**j for j, d in enumerate(digits))


def test_base_p_digits_no_high_zero():
    for n in range(0, 2000):
        for p in PRIMES:
            d = base_p_digits(n, p)
            assert _value(d, p) == n
            assert all(0 <= x < p for x in d)
            if n:
                assert d[-1] != 0


@given(n=st.integers(min_value=0, max_value=10**6), p=st.sampled_from(PRIMES))
def test_base_p_digits_round_trip(n, p):
    assert _value(base_p_digits(n, p), p) == n


def test_multinomial_exact_known_values():
    assert multinomial_exact(4, (2, 2)) == 6
    assert multinomial_exact(5, (5,)) == 1
    assert multinomial_exact(5, (2, 2)) == 0  # mismatched sum gives 0
    assert multinomial_exact(0, ()) == 1
    assert multinomial_exact(6, (1, 2, 3)) == 60
    assert multinomial_exact(3, (5,)) == 0


def test_multinomial_exact_rejects_negative():
    with pytest.raises(ValueError):
        multinomial_exact(4, (5, -1))


def _weak_compositions(n, length):
    if length == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, length - 1):
            yield (first,) + rest


def _digit_column_product(n, parts, p):
    # Dickson: the multinomial mod p is the product over base-p digit
    # positions of the multinomial of the parts' digits with top n's digit
    width = max(len(base_p_digits(m, p)) for m in (n, *parts))

    def padded(m):
        digits = base_p_digits(m, p)
        return digits + (0,) * (width - len(digits))

    rows = [padded(m) for m in parts]
    result = 1
    for j, nj in enumerate(padded(n)):
        result = result * multinomial_exact(nj, [row[j] for row in rows]) % p
    return result


def _lucas_product(n, parts, p):
    # the multinomial as a product of binomials C(m_1 + ... + m_i, m_i),
    # each mod p by Lucas's theorem; 0 unless the parts sum to n
    if sum(parts) != n:
        return 0
    result, total = 1, 0
    for m in parts:
        total += m
        result = result * lucas_binomial(total, m, p) % p
    return result


def test_digit_factorization_agrees_with_exact():
    # all part sequences of length <= 4 summing to n, n <= 12
    for n in range(0, 13):
        for length in range(1, 5):
            for parts in _weak_compositions(n, length):
                exact = multinomial_exact(n, parts)
                for p in (2, 3, 5, 7, 11):
                    assert _digit_column_product(n, parts, p) == exact % p
                    assert _lucas_product(n, parts, p) == exact % p


@given(
    n=st.integers(min_value=0, max_value=40),
    parts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
    p=st.sampled_from(PRIMES),
)
@settings(max_examples=300)
def test_digit_factorization_agrees_including_mismatches(n, parts, p):
    expected = multinomial_exact(n, parts) % p
    assert _digit_column_product(n, parts, p) == expected
    assert _lucas_product(n, parts, p) == expected


def test_lucas_binomial_of_large_digits_matches_exact():
    # digits on both sides of the exact/modular crossover at min(b, a - b) = 512
    a = 10**5
    for p in (10**9 + 7, 100003, 65537):
        for b in (0, 1, 511, 512, 513, 40000, a // 2, a - 513, a - 512, a - 511, a):
            assert lucas_binomial(a, b, p) == comb(a, b) % p, (p, b)
        assert lucas_binomial(a // 2, a // 2 + 1, p) == 0
        # a bottom with more digits than the top is larger: C(a, b) = 0
        assert lucas_binomial(a, a + p ** len(base_p_digits(a, p)), p) == 0


def test_lucas_binomial_of_a_million_stays_small():
    # C(10^6, 5*10^5) has about 10^6 bits; mod p it is built from residues.
    # The expected value is math.comb(10**6, 5 * 10**5) % p, which takes
    # about 11 s to compute
    p = 10**9 + 7
    tracemalloc.start()
    try:
        value = lucas_binomial(10**6, 5 * 10**5, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 996692777
    assert peak < 1 << 20


def test_pow2_digitwise_identity():
    # 2^(n-1) equals half the product of the per-digit powers 2^(n_j), mod p
    for p in (3, 5, 7, 11, 13):
        inv2 = pow(2, p - 2, p)
        for n in range(1, 10001):
            digit_product = 1
            for nj in base_p_digits(n, p):
                digit_product = digit_product * pow(2, nj, p) % p
            assert pow(2, n - 1, p) == digit_product * inv2 % p


def test_digit_vector_is_value_object():
    assert base_p_digits(9, 3) == (0, 0, 1)
    assert len(base_p_digits(9, 3)) == 3
    assert base_p_digits(9, 3)[2] == 1


@pytest.mark.parametrize("m", [257, 641, 65537, 2**32 - 5, 2**61 - 1])
def test_big_endian_fields_match_little_endian(monkeypatch, m):
    # a big-endian machine keeps each multi-byte field high byte first, so
    # the planes read the byte columns in the other order: a byteswapped
    # field_buffer under sys.byteorder "big" must give the little-endian
    # transform byteswapped, and the same popcount tally (m <= 640), for
    # 2^0 to 2^11 fields of 2, 4 and 8 bytes
    rng = random.Random(m)
    cases = []
    for k in range(12):
        fields = field_buffer(0, m)
        fields.extend(rng.randrange(m) for _ in range(1 << k))
        tally = inverse_zeta_tally(fields, m) if m <= _POPCOUNT_TALLY_MAX_M else None
        cases.append((fields, inverse_zeta_packed(fields, m), tally))
    monkeypatch.setattr(sys, "byteorder", "big")
    for fields, packed, tally in cases:
        swapped = fields[:]
        swapped.byteswap()
        out = inverse_zeta_packed(swapped, m)
        assert out.typecode == packed.typecode
        out.byteswap()
        assert out == packed, (m, len(fields))
        if tally is not None:
            assert inverse_zeta_tally(swapped, m) == tally, (m, len(fields))
