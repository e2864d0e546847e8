"""Base-p digit tuples, exact multinomials, Lucas binomials, and the
modular subset Moebius transform.

Everything here is pure integer arithmetic on Python ints, so results are
exact at any size.  Base-p digits are plain tuples, least significant
first.  ``lucas_binomial`` takes its two ints and reads their digits
itself, so no caller builds a digit tuple to get a binomial mod p.  Prime
moduli are checked by a deterministic Miller-Rabin test on entry.  The
Moebius transform works modulo any integer m >= 2 on residues packed into
fixed-width fields, and the field format is known only here: callers
build their residues mod m in a ``field_buffer(size, m)`` (scaling blocks
of it with ``field_scaler(m)``) and hand it with m to
``inverse_zeta_tally``, which tallies the transform's output by residue.
It runs one bit-sliced kernel, on the (m - 1).bit_length() bit planes of
the fields, for every field width.
``residue_tally`` tallies a ``{value: count}`` mapping mod m.
``check_tally_prime`` is the budget of every p-entry tally: a p-vector and
a residue histogram.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from math import comb

from .compositions import CapacityError, check_n, text_head

# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime below
# this bound (Sorenson and Webster, 2015), so the test is exact under it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981

# unsigned array typecodes of the field widths packed natively, by byte
# count; multi-byte blocks are scaled in chunks, so no temporary list is as
# long as the input
_NATIVE_CODES = {array(code).itemsize: code for code in "QIHB"}
_CHUNK = 1 << 14

# Largest m whose butterfly output is tallied by popcounts of the bit planes
# (a prefix tree of about 2m plane ANDs); past it the planes go back into
# fields for one Counter pass.  Butterfly and tally of 2^14 / 2^18 / 2^20
# fields (2-core machine, Python 3.11, best of 7), popcounts against Counter:
# m = 131 0.58 / 7.0 / 30 against 0.86 / 13.6 / 59 ms, m = 509 1.70 / 21.0 /
# 83 against 1.68 / 24.7 / 103 ms, m = 641 1.99 / 25.1 / 99 against 1.76 /
# 25.9 / 109 ms, m = 769 2.19 / 28.7 / 110 against 1.72 / 25.8 / 105 ms:
# the crossover lies near m = 500 for 2^14 fields and 700 for 2^20.
_POPCOUNT_TALLY_MAX_M = 640


@lru_cache(maxsize=256, typed=True)
def is_prime(p: int) -> bool:
    """Deterministic primality test, exact for p < MILLER_RABIN_LIMIT.

    Raises CapacityError for larger p that no base divides, rather than
    give an answer that might be wrong.  Answers are memoised per p, since
    every digit expansion and entry point checks its modulus again.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= MILLER_RABIN_LIMIT:
        raise CapacityError("arith.MILLER_RABIN_LIMIT", p, MILLER_RABIN_LIMIT)
    shift = ((p - 1) & -(p - 1)).bit_length() - 1
    odd = (p - 1) >> shift
    for a in _MR_BASES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(shift - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Return p, raising ValueError if it is not a prime, and CapacityError
    past MILLER_RABIN_LIMIT, prime or not, before any primality test."""
    if isinstance(p, int) and p >= MILLER_RABIN_LIMIT:
        raise CapacityError("arith.MILLER_RABIN_LIMIT", p, MILLER_RABIN_LIMIT)
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime, got {text_head(p)}")
    return p


# Largest p of a p-entry residue tally (a p-vector or a residue histogram)
# is 2^TALLY_MAX_BITS.  Just under it, `cvec --family A --n 3 --p 67108859
# --format json` took 27 s and 1.68 GB peak RSS (2-core machine, Python
# 3.11): with 4 indices, that cost is the p entries.
TALLY_MAX_BITS = 26


def check_tally_prime(p: int) -> None:
    """Refuse a p that is not a prime (ValueError) or is past
    2^TALLY_MAX_BITS (CapacityError), before anything of size p is made."""
    check_prime(p)
    if p > 1 << TALLY_MAX_BITS:
        raise CapacityError("arith.TALLY_MAX_BITS", p.bit_length(), TALLY_MAX_BITS)


# Past this many bits, base_p_digits splits n at p^(2^k) and reads the two
# halves apart: one division of all of n per digit is quadratic in its bits.
# At p = 3 (2-core machine, Python 3.11, best of 5) the split read a 512-bit
# n in 30 us against the loop's 38, a 256-bit one in 24 against 16, and
# 3^200000 + 1 (316,993 bits) in 0.05 s against 7.2 s.
_DIGITS_SPLIT_BITS = 500


def base_p_digits(n: int, p: int) -> tuple[int, ...]:
    """Digits of n in base p, least significant first: entry j is the
    coefficient of p**j, and the top digit is nonzero except in ``(0,)``,
    the digits of 0.  A non-int, bool or negative n is refused."""
    check_prime(p)
    if check_n(n) < 0:
        raise ValueError(f"n must be a nonnegative int, got {text_head(n)}")
    if n == 0:
        return (0,)
    powers = [p]  # powers[k] = p^(2^k), up to about the square root of n
    while n.bit_length() > _DIGITS_SPLIT_BITS and powers[-1].bit_length() * 2 <= n.bit_length():
        powers.append(powers[-1] * powers[-1])
    digits = []
    _read_digits(n, p, powers, len(powers) - 1, 0, digits)
    return tuple(digits)


def _read_digits(n: int, p: int, powers, k: int, width: int, digits: list) -> None:
    # append the base-p digits of n, least significant first: exactly width
    # of them (n < p^width), or up to its top nonzero digit when width is 0.
    # Past the split size n is split at powers[k], its low half read to
    # 2^k digits and its high half on, each at the power below
    if n.bit_length() <= _DIGITS_SPLIT_BITS:
        start = len(digits)
        while n:
            n, r = divmod(n, p)
            digits.append(r)
        digits.extend([0] * (start + width - len(digits)))
        return
    while not width and n < powers[k]:
        k -= 1  # no zero digits above the top one
    high, low = divmod(n, powers[k])
    _read_digits(low, p, powers, k - 1, 1 << k, digits)
    _read_digits(high, p, powers, k - 1, width and width - (1 << k), digits)


def multinomial_exact(n: int, parts) -> int:
    """n! / (m_1! ... m_k!) when the parts sum to n, and 0 otherwise.

    The zero convention for mismatched sums means callers never need to
    pre-filter their part sequences.
    """
    parts = tuple(parts)
    if any(m < 0 for m in parts):
        raise ValueError("parts must be nonnegative")
    total = 0
    result = 1
    for m in parts:
        total += m
        if total > n:
            return 0
        result *= comb(total, m)
    return result if total == n else 0


# Largest min(b, a - b) whose digit binomial C(a, b) is built exactly and
# then reduced mod p; past it, k = min(b, a - b) factors are multiplied mod p
# and their k! inverted once.  Per call with p = 10^9 + 7 (2-core machine,
# Python 3.11, best of 5): k = 256: 13-64 us exact against 42-44 us modular
# for a = 512..10^8; k = 512: 53-171 against 83-95 us (exact wins up to
# a = 10^4); k = 768: 98-403 against 128-160 us.  At k = 1 the exact route
# takes 0.08 us against 0.8 us, and C(10^6, 5*10^5) 10.9 s against 0.11 s;
# `ribbon --family A --alpha 500000,500000 --mod 1000000007` ran in 0.5 s.
_LUCAS_EXACT_MAX = 512


def _binomial_mod(a: int, b: int, p: int) -> int:
    # C(a, b) mod p for digits 0 <= b <= a < p, so the numerator's factors
    # and k! are units mod p
    k = min(b, a - b)
    num = den = 1
    for i in range(k):
        num = num * (a - i) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def lucas_binomial(top: int, bottom: int, p: int) -> int:
    """C(top, bottom) mod p for nonnegative ints and a prime p, by Lucas's
    theorem: the product of the binomials of their base-p digits, taken
    from the lowest digit up until bottom has no digits left, so 0 unless
    every digit of bottom is at most top's.  Once top is one digit it is
    the last factor, C(top, bottom) itself, which is 0 for a larger
    bottom; a top below p, as in a single class whose prime is past n,
    takes that step alone.  A digit binomial past ``_LUCAS_EXACT_MAX`` is
    built from residues mod p, so its intermediates stay below p^2.  Past
    ``_DIGITS_SPLIT_BITS`` bits of bottom, where a divmod of top per digit is
    quadratic, ``base_p_digits`` reads bottom's k digits and top's low k
    once: each digit above them gives C(a, 0) = 1."""
    r = 1
    if bottom.bit_length() > _DIGITS_SPLIT_BITS:
        low = base_p_digits(bottom, p)
        for a, b in zip_longest(base_p_digits(top % p ** len(low), p), low, fillvalue=0):
            r = r * lucas_binomial(a, b, p) % p
            if not r:
                break
        return r
    while bottom and r:
        if top < p:
            a, b, bottom = top, bottom, 0
        else:
            top, a = divmod(top, p)
            bottom, b = divmod(bottom, p)
        if b <= _LUCAS_EXACT_MAX or a - b <= _LUCAS_EXACT_MAX:
            r = r * comb(a, b) % p
        else:
            r = r * _binomial_mod(a, b, p) % p
    return r


def field_width(m: int) -> int:
    """Bytes per packed field of residues mod m: the bytes of m - 1,
    rounded up to 1, 2, 4 or 8 (a native array item) when that is enough.
    So m <= 256 gives 1 byte, m <= 2^16 2 bytes and m <= 2^32 4 bytes.
    """
    width = ((m - 1).bit_length() + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def field_buffer(size: int, m: int):
    """``size`` zeroed fields for residues mod m, of ``field_width(m)``
    bytes: a bytearray for 1-byte fields, an unsigned ``array`` for 2, 4
    or 8.  Both take item and slice assignment and ``extend``, and both
    are input to ``inverse_zeta_tally`` as they stand."""
    width = field_width(m)
    if width == 1:
        return bytearray(size)
    return array(_NATIVE_CODES[width], [0]) * size


def field_scaler(m: int):
    """``scale(block, c)``: a slice of a ``field_buffer`` for m times c mod m,
    in a new buffer of the same kind.  A block of 1-byte fields at least m
    long goes through ``bytes.translate``, with each constant's table made
    on its first use; shorter blocks and wider fields are scaled field by
    field, since a table costs about as much as m fields."""
    @lru_cache(maxsize=None)
    def row(c):
        return bytes(c * x % m for x in range(m)).ljust(256, b"\0")

    def scale(block, c):
        c %= m
        if isinstance(block, bytearray):
            if len(block) >= m:
                return block.translate(row(c))
            return bytearray([c * x % m for x in block])
        out = array(block.typecode)
        for i in range(0, len(block), _CHUNK):
            out.fromlist([c * x % m for x in block[i:i + _CHUNK]])
        return out
    return scale


def _transpose(rows: list, step: int, bits: int) -> list:
    # eight ints of ``step`` bytes (missing ones 0) with the 8 x 8 bit matrix
    # at each byte position transposed (bit j of byte i of row b becomes bit
    # b of byte i of row j), by three rounds of block swaps (Warren, Hacker's
    # Delight, 7-3); rows are replaced in the list, so each old one is freed.
    # Only the low ``bits`` bits of an input byte may be set, so a round whose
    # shift s is at least ``bits`` finds the upper half of every 2s-bit block
    # empty: it merges row j + s into row j and drops it.  The rows returned
    # are the first ``bits``, rounded up to a power of two, of the transpose
    rows += [0] * (8 - len(rows))
    mask = int.from_bytes(b"\x0f" * step, "little")
    for s in (4, 2, 1):
        if s < 4:
            mask ^= mask << s  # 0x33, then 0x55, in every byte
        if s >= bits:
            for j in range(s):
                rows[j] |= rows[j + s] << s
            del rows[s:]
            continue
        for j in range(len(rows)):
            if not j & s:
                t = (rows[j] >> s ^ rows[j + s]) & mask
                rows[j] ^= t << s
                rows[j + s] ^= t
    return rows


def _planes(fields, m: int):
    # (planes, size, width, big): plane b holds bit b of every field, for
    # b < (m - 1).bit_length(); big says the fields are native items of a
    # big-endian machine.  Byte column c of the slices, read as ints and
    # transposed, gives planes 8c to 8c + 7; all columns are read first, so
    # a buffer the caller passed as a temporary is freed before that
    if isinstance(fields, array):
        width, big = fields.itemsize, sys.byteorder == "big"
        if width < field_width(m):
            raise ValueError(f"fields of {width} bytes are too narrow for modulus {m}")
    else:
        width, big = field_width(m), False
    view = memoryview(fields).cast("B")
    size = view.nbytes // width
    if not size or size & (size - 1) or size * width != view.nbytes:
        raise ValueError("the butterfly needs a power-of-two number of fields")
    slices = min(8, size)
    step = size // slices
    w = (m - 1).bit_length()
    columns = [
        [int.from_bytes(view[j * step * width + offset:(j + 1) * step * width:width], "little")
         for j in range(slices)]
        for offset in (width - 1 - c if big else c for c in range((w + 7) // 8))
    ]
    del fields, view
    planes = []
    while columns:
        planes += _transpose(columns.pop(0), step, w - len(planes))[:w - len(planes)]
    return planes, size, width, big


def _fields(planes, size: int, width: int, big: bool) -> bytearray:
    # the fields of ``_planes`` again, as bytes of ``width`` bytes each
    slices = min(8, size)
    step = size // slices
    out = bytearray(size * width)
    for c in range(0, len(planes), 8):
        offset = width - 1 - c // 8 if big else c // 8
        rows = _transpose(planes[c:c + 8], step, 8)[:slices]
        out[offset::width] = b"".join(row.to_bytes(step, "little") for row in rows)
    return out


def _butterfly(planes: list, m: int, size: int) -> None:
    # the levels, in place: the partner of each position with the level's
    # bit lies d positions below, so (x << d) & upper is plane x of the
    # partners there and 0 elsewhere; m is added back with a ripple carry.
    # Plane 0 has no borrow in, the carry is 0 up to the first set bit of m,
    # the carry out of the top plane is not read, and m = 2 needs no borrow
    d = size // 2
    upper = ((1 << d) - 1) << d
    top = len(planes) - 1
    add_back = m != 1 << len(planes)
    low = (m & -m).bit_length() - 1
    while d:
        x = planes[0]
        q = (x << d) & upper
        x ^= q
        planes[0] = x
        borrow = q & x if top else 0
        for b in range(1, top + 1):
            x = planes[b]
            q = (x << d) & upper
            x ^= q
            planes[b] = x ^ borrow
            borrow ^= (borrow ^ q) & x
        del q, x
        if borrow and add_back:
            # m is not a power of two: its lowest set bit lies below its
            # top one, which is bit top
            x = planes[low]
            planes[low] = x ^ borrow
            carry = x & borrow
            for b in range(low + 1, top):
                x = planes[b]
                if m >> b & 1:
                    planes[b] = x ^ borrow ^ carry
                    carry |= x & borrow
                elif carry:
                    planes[b] = x ^ carry
                    carry &= x
            planes[top] ^= borrow ^ carry
            del x, carry
        del borrow
        d //= 2
        upper ^= upper >> d


def _plane_tally(planes: list, m: int, size: int) -> list[int]:
    # entry r counts the positions whose planes spell r: popcounts of the
    # leaves of a prefix tree of ANDs, depth first from the top plane, and
    # only down branches whose least value is below m
    tally = [0] * m
    stack = [((1 << size) - 1, len(planes), 0)]
    while stack:
        node, b, v = stack.pop()
        b -= 1
        one = node & planes[b]
        if not b:
            # the last plane: the lanes of 2v are the rest of the node's
            tally[2 * v] = node.bit_count() - one.bit_count()
            if 2 * v + 1 < m:
                tally[2 * v + 1] = one.bit_count()
            continue
        if (2 * v + 1) << b < m:
            stack.append((one, b, 2 * v + 1))
        stack.append((node ^ one, b, 2 * v))
    return tally


def residue_tally(counts, m: int) -> list[int]:
    """[#0, ..., #(m - 1)] from a mapping {value: count}, each value taken
    mod m."""
    tally = [0] * m
    for v, c in counts.items():
        tally[v % m] += c
    return tally


def inverse_zeta_tally(fields, m: int) -> list[int]:
    """The residue tally of the subset Moebius transform (Yates 1937)
    modulo any integer m >= 2, field T <- sum over S subset T of
    (-1)^|T\\S| field S, mod m, of a ``field_buffer`` (or an unsigned
    ``array`` whose items fit m) of 2^k residues in [0, m): entry r counts
    the output fields equal to r.

    The fields are bit-sliced (Biham 1997): plane b, an int of 2^k bits,
    holds bit b of every field, for the w = (m - 1).bit_length() bits of a
    residue, so every level of the butterfly is a few ANDs, XORs and ORs
    of whole planes plus one shift per plane, whatever the field width.
    With s = min(8, 2^k) slices of 2^k / s fields, field i + j 2^k / s
    sits at bit s i + j of every plane: the slices, read as ints, are
    transposed bit by bit within each byte, which only relabels the index
    bits and so leaves the transform the same.  A level subtracts the
    partners' planes with a ripple borrow and adds m back on the lanes
    that borrowed (nothing for m = 2^w, so the levels of m = 2 are XORs).
    Up to ``_POPCOUNT_TALLY_MAX_M`` the tally is read off the bit planes
    by popcounts; past it the planes go back into fields, which one
    Counter pass tallies."""
    # handed over through a list, so that a buffer the caller passed as a
    # temporary is freed once its planes are made
    box = [fields]
    del fields
    planes, size = _planes(box.pop(), m)[:2]
    _butterfly(planes, m, size)
    if m <= _POPCOUNT_TALLY_MAX_M:
        return _plane_tally(planes, m, size)
    width = field_width(m)
    out = _fields(planes, size, width, sys.byteorder == "big")
    del planes
    return residue_tally(Counter(memoryview(out).cast(_NATIVE_CODES[width])), m)
