import random
import sys
from array import array
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import ribbonmod.arith as arith
from conftest import inverse_zeta_packed, traced_peak
from ribbonmod.arith import (
    _POPCOUNT_TALLY_MAX_M,
    MILLER_RABIN_LIMIT,
    base_p_digits,
    check_prime,
    field_buffer,
    field_width,
    inverse_zeta_tally,
    is_prime,
    lucas_binomial,
    multinomial_exact,
)

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
    # tests/test_budgets.py refuses a prime past MILLER_RABIN_LIMIT; a
    # multiple of a base past it is still decided
    assert not is_prime(10**30)


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, -3, 0])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError):
        check_prime(bad)
    with pytest.raises(ValueError):
        base_p_digits(10, bad)


def _value(digits, p):
    # sum of d * p^j, by halves: pairs of digits at p, pairs of pairs at p^2, ...
    values, power = list(digits), p
    while len(values) > 1:
        values += [0] * (len(values) % 2)
        values = [low + high * power for low, high in zip(values[::2], values[1::2])]
        power *= power
    return values[0]


def _digits_by_one_division_each(n, p):
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits) or (0,)


def _check_digits(n, p):
    # base_p_digits against one division per digit: the same tuple, whose
    # value is n, whose digits lie in [0, p) and whose top digit is nonzero
    digits = base_p_digits(n, p)
    assert digits == _digits_by_one_division_each(n, p), (p, n.bit_length())
    assert _value(digits, p) == n and all(0 <= d < p for d in digits) and (digits[-1] or not n), (p, n.bit_length())


def test_base_p_digits_known_values():
    for (n, p), digits in {(5, 3): (2, 1), (4, 2): (0, 0, 1), (20, 3): (2, 0, 2), (0, 7): (0,)}.items():
        assert base_p_digits(n, p) == digits, (n, p)
        _check_digits(n, p)


def test_digit_vector_is_value_object():
    assert base_p_digits(9, 3) == (0, 0, 1)
    assert len(base_p_digits(9, 3)) == 3
    assert base_p_digits(9, 3)[2] == 1
    _check_digits(9, 3)


def test_base_p_digits_no_high_zero():
    for n in range(2000):
        for p in PRIMES:
            _check_digits(n, p)


@given(n=st.integers(min_value=0, max_value=10**6), p=st.sampled_from(PRIMES))
def test_base_p_digits_round_trip(n, p):
    _check_digits(n, p)


def test_base_p_digits_split_matches_the_loop():
    # past a few hundred bits n is split at p^(2^k): random n up to 2*10^4
    # bits, and n next to powers of p, where a half's leading zeros are kept
    rng = random.Random(48)
    big = next(q for q in range(MILLER_RABIN_LIMIT - 2, 0, -2) if is_prime(q))
    for p in (2, 3, 5, 131, 65537, big):
        powers = [p**k for k in (1, 600 // p.bit_length(), 1200 // p.bit_length(), 20000 // p.bit_length())]
        for n in [rng.getrandbits(rng.randrange(1, 20001)) for _ in range(8)] + [q + d for q in powers for d in (-1, 0, 1)]:
            _check_digits(n, p)


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


def _long_lucas_cases(rng):
    # (top, bottom, p): bottoms of the gate's bits, one more and several
    # thousand, against tops of their own digits or more (a nonzero
    # binomial), a top far longer, a random top and bottom - 1 (mostly 0),
    # and the first of those tops without its top digit (0)
    gate = arith._DIGITS_SPLIT_BITS
    for p in (2, 3, 131):
        for bits in (gate - 1, gate, gate + 1, 4000):
            bottom = rng.getrandbits(bits) | 1 << (bits - 1)
            digits = base_p_digits(bottom, p)
            over = sum((d + rng.randrange(p - d)) * p**j for j, d in enumerate(digits))
            for top in (bottom, over, over + p ** len(digits) * rng.getrandbits(3 * bits), rng.getrandbits(bits + 5), bottom - 1,
                        over % p ** (len(digits) - 1)):
                yield top, bottom, p
    # the long part of a single class, (10^k + 7, 1) at 10^6 + 3: C(n, n - 1)
    n = 10**300 + 8
    yield n, n - 1, 1000003


def test_lucas_binomial_reads_a_long_bottom_once(monkeypatch):
    # past _DIGITS_SPLIT_BITS bits of bottom, lucas_binomial reads both
    # arguments' digits by base_p_digits, and at the gate or below it keeps
    # its divmod loop; on both sides it answers as the loop does, which is
    # what it runs with the gate raised past every case
    cases = list(_long_lucas_cases(random.Random(57)))
    reads = []
    monkeypatch.setattr(arith, "base_p_digits", lambda n, p: reads.append(n) or base_p_digits(n, p))
    answers = []
    for top, bottom, p in cases:
        reads.clear()
        answers.append(lucas_binomial(top, bottom, p))
        assert bool(reads) == (bottom.bit_length() > arith._DIGITS_SPLIT_BITS), (top, bottom, p)
    assert sum(map(bool, answers)) >= len(cases) // 3
    monkeypatch.setattr(arith, "_DIGITS_SPLIT_BITS", max(bottom.bit_length() for _, bottom, _ in cases))
    reads.clear()
    assert answers == [lucas_binomial(*case) for case in cases]
    assert not reads


def test_lucas_binomial_of_a_million_stays_small():
    # C(10^6, 5*10^5) has about 10^6 bits; mod p it is built from residues.
    # The expected value is math.comb(10**6, 5 * 10**5) % p, which takes
    # about 11 s to compute.  The memory bound is traced at 10^5, where the
    # exact C(10^5, 5*10^4) alone takes about 12.5 KB: tracing slows the
    # loop of residues about 25 times
    p = 10**9 + 7
    assert lucas_binomial(10**6, 5 * 10**5, p) == 996692777
    value, peak = traced_peak(lambda: lucas_binomial(10**5, 5 * 10**4, p))
    assert value == comb(10**5, 5 * 10**4) % p
    assert peak < 1 << 12


def test_pow2_digitwise_identity():
    # 2^(n-1) equals half the product of the per-digit powers 2^(n_j), mod p
    for p in (3, 5, 7, 11, 13):
        inv2 = pow(2, p - 2, p)
        for n in range(1, 10001):
            digit_product = 1
            for nj in base_p_digits(n, p):
                digit_product = digit_product * pow(2, nj, p) % p
            assert pow(2, n - 1, p) == digit_product * inv2 % p


def _moebius_reference(raw):
    # the subset Moebius transform, T <- sum over S subset T of
    # (-1)^|T\S| raw[S], in exact ints one pair at a time, level by level
    # (Yates 1937): the one reference of the bit-plane kernel
    out = list(raw)
    for level in range(len(out).bit_length() - 1):
        for t in range(len(out)):
            if t >> level & 1:
                out[t] -= out[t ^ 1 << level]
    return out


# The input patterns of the kernel rows, each of 2^bits values: unreduced
# and partly negative ones for any m (and for None, the modulus past
# 2^bits * max|v|), residues in [0, m) for an int m.  "worst" is the worst
# case of the field bound: every term of the full mask adds, so its value
# reaches 2^bits * (2^(64 - bits) - 1) = 2^64 - 2^bits, past 2^63.  "top"
# sets every one of the kernel's w = (m - 1).bit_length() bit planes, and
# "even" (m - 1 on the even subsets, 0 on the odd ones) makes the first
# level borrow in every lane with its bit
PATTERNS = {
    "quadratic": lambda rng, bits, m: [i * i - 5 * i + 1 for i in range(1 << bits)],
    "signed": lambda rng, bits, m: [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 70, 100))) for _ in range(1 << bits)],
    "worst": lambda rng, bits, m: [(-1) ** (bits - s.bit_count()) * ((1 << (64 - bits)) - 1) for s in range(1 << bits)],
    "small": lambda rng, bits, m: [-3, 5, 0, 2**64, -(2**64), 1, 7, -7],
    "residues": lambda rng, bits, m: [rng.randrange(m) for _ in range(1 << bits)],
    "top": lambda rng, bits, m: [m - 1] * (1 << bits),
    "even": lambda rng, bits, m: [(m - 1) * (s.bit_count() % 2 == 0) for s in range(1 << bits)],
}


def _layout(vals, m, layout):
    # residues as kernel input: little-endian bytes of field_width(m) bytes
    # each, a field_buffer, an array("Q") wider than m needs, or a
    # byteswapped field_buffer, as a big-endian machine holds its fields
    if layout == "bytes":
        return b"".join(v.to_bytes(field_width(m), "little") for v in vals)
    if layout == "wide":
        return array("Q", vals)
    data = field_buffer(0, m)
    assert memoryview(data).itemsize == field_width(m)
    data.extend(vals)
    if layout == "big":
        data.byteswap()
    return data


def _output(out, data, m, layout):
    # the output fields of inverse_zeta_packed as ints, read in the input's layout
    if layout == "bytes":
        width = field_width(m)
        return [int.from_bytes(out[i:i + width], "little") for i in range(0, len(out), width)]
    if layout == "big":
        out = array(data.typecode, out)
        out.byteswap()
    return out.tolist()


def _check_kernel_row(sizes, moduli, pattern, layouts, rng):
    """``inverse_zeta_packed`` and ``inverse_zeta_tally`` against
    ``_moebius_reference`` on one row (sizes in bits, moduli, input
    pattern, layouts): the one harness of the kernel tests here and in
    test_cvec.py.  At each size and modulus the pattern's values go in
    reduced mod m, in each layout (the native ones where m fits 8 bytes),
    come back in the input's layout and size, and leave the input as it
    was.  A tally has m entries, so that
    of a field_buffer is checked up to m = 2^16 + 1, and under the
    simulated big byte order up to the crossover only: past it the Counter
    pass reads the fields in the machine's own order."""
    for bits in sizes:
        for m in moduli:
            raw = PATTERNS[pattern](rng, bits, m)
            if m is None:  # past 2^bits * max|v|: the residues are the exact values shifted into [0, m)
                m = (max(1, *map(abs, raw)) << bits) + 1
            width = field_width(m)
            assert width == next((b for b in (1, 2, 4, 8) if m <= 256**b), -(-(m - 1).bit_length() // 8)), m
            want = [v % m for v in _moebius_reference(raw)]
            for layout in layouts if width <= 8 else ("bytes",):
                data = _layout([v % m for v in raw], m, layout)
                before = bytes(data)
                tallied = m <= {"buffer": 65537, "big": _POPCOUNT_TALLY_MAX_M}.get(layout, 0)
                with pytest.MonkeyPatch.context() as patch:
                    if layout == "big":
                        patch.setattr(sys, "byteorder", "big")
                    out = inverse_zeta_packed(data, m)
                    tally = inverse_zeta_tally(data, m) if tallied else None
                where = (pattern, bits, m, layout)
                assert _output(out, data, m, layout) == want and out.nbytes == len(before) and bytes(data) == before, where
                if tallied:
                    counts = [0] * m
                    for v in want:
                        counts[v] += 1
                    assert tally == counts, where


@pytest.mark.parametrize("m", [257, 641, 65537, 2**32 - 5, 2**61 - 1])
def test_big_endian_fields_match_little_endian(m):
    # a big-endian machine keeps each multi-byte field high byte first, so
    # the planes read the byte columns in the other order: a byteswapped
    # field_buffer under sys.byteorder "big" must give the little-endian
    # transform byteswapped, and the same popcount tally (m <= 640), for
    # 2^0 to 2^11 fields of 2, 4 and 8 bytes
    _check_kernel_row(range(12), (m,), "residues", ("buffer", "big"), random.Random(m))


def test_transpose_returns_the_first_bits_rows_of_the_bit_transpose():
    # _transpose's contract, which _planes hides by slicing its first w
    # rows: from 1, 3 or 8 rows whose bytes hold only their low ``bits``
    # bits, the first ``bits`` rows of the 8 x 8 bit transpose at each byte,
    # rounded up to a power of two, against a bit-by-bit reference
    rng = random.Random(60)
    step = 5
    for bits in range(1, 9):
        for count in (1, 3, 8):
            rows = [bytes(rng.randrange(1 << bits) for _ in range(step)) for _ in range(count)]
            want = [bytes(sum((row[i] >> j & 1) << b for b, row in enumerate(rows)) for i in range(step))
                    for j in range(1 << (bits - 1).bit_length())]
            got = arith._transpose([int.from_bytes(row, "little") for row in rows], step, bits)
            assert [row.to_bytes(step, "little") for row in got] == want, (bits, count)
