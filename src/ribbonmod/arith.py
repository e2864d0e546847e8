"""Base-p digit tuples, exact multinomials, Lucas binomials, and the
modular subset Moebius transform.

Everything here is pure integer arithmetic on Python ints, so results are
exact at any size.  Base-p digits are plain tuples, least significant
first, and ``lucas_binomial`` reads two of them.  Prime moduli are checked
by a deterministic Miller-Rabin test on entry.  The Moebius transform works
modulo any integer m >= 2 on residues packed into fixed-width fields, and
the field format is known only here: callers build their residues mod m in
a ``field_buffer(size, m)`` (scaling blocks of it with ``field_scaler(m)``)
and hand it with m to ``inverse_zeta_packed``, which picks the width from
m, reads the fields as one big int, runs each level of the butterfly as a
few whole-int operations (SIMD within a register) and returns them in the
same kind of buffer, or to ``inverse_zeta_tally``, which tallies that output
by residue.  A field holds one residue; while the residues fit lanes of
half the width and half the lanes fill a byte, the upper half of the
fields is folded into the high half-lanes of the lower half, so every
whole-int operation touches as few bytes as m allows (1-bit lanes for
m = 2, 2-bit for 3 and 4, 4-bit up to 16, 8-bit up to 256).  A lane keeps
a sign bit where m allows one, and each level of the butterfly reads
every lane's borrow from its top bits where it does not.
``residue_tally`` tallies a ``{value: count}`` mapping mod m, and
``inverse_zeta`` is the butterfly for a list of ints.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from math import comb

from .compositions import CapacityError

# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime below
# this bound (Sorenson and Webster, 2015), so the test is exact under it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981

# unsigned array typecodes of the field widths packed natively, by byte
# count; lists convert to and from arrays, and multi-byte blocks are scaled,
# in chunks, so no temporary list is as long as the input
_NATIVE_CODES = {array(code).itemsize: code for code in "QIHB"}
_CHUNK = 1 << 14

# Largest m whose residues (1-byte fields) are tallied by bytes.count scans,
# one per residue but the last; above it one Counter pass is faster.  On 2^20
# fields (2-core machine, Python 3.11, best of 7): bytes.count 23 / 44 /
# 46-53 / 48-60 / 89 ms against Counter 47 / 45-56 / 43-68 / 45-69 / 64 ms
# at p = 13 / 47 / 53 / 59 / 127, so the crossover lies near p = 53-59.
_COUNT_TALLY_MAX_P = 53


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
        raise CapacityError(
            f"primality of {p} is only decided below {MILLER_RABIN_LIMIT}"
        )
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
    """Return p, raising ValueError if it is not a prime."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime, got {p!r}")
    return p


def base_p_digits(n: int, p: int) -> tuple[int, ...]:
    """Digits of n in base p, least significant first: entry j is the
    coefficient of p**j, and the top digit is nonzero except in ``(0,)``,
    the digits of 0."""
    check_prime(p)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative int, got {n!r}")
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits)


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
# takes 0.08 us against 0.8 us, and C(10^6, 5*10^5) 10.9 s against 0.11 s.
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


def lucas_binomial(top: tuple[int, ...], bottom: tuple[int, ...], p: int) -> int:
    """C(top, bottom) mod p from little-endian base-p digit tuples, by
    Lucas's theorem; 0 unless bottom is digitwise at most top.  A digit
    binomial past ``_LUCAS_EXACT_MAX`` is built from residues mod p, so its
    intermediates stay below p^2."""
    if len(bottom) > len(top):
        return 0
    r = 1
    for a, b in zip(top, bottom):
        if b <= _LUCAS_EXACT_MAX or a - b <= _LUCAS_EXACT_MAX:
            r = r * comb(a, b) % p
        else:
            r = r * _binomial_mod(a, b, p) % p
        if not r:
            return 0
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
    or 8.  Both take item and slice assignment, and both are input to
    ``inverse_zeta_packed`` as they stand."""
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


def _lanes(unit: int, w: int, count: int) -> int:
    # ``count`` lanes of w bits, each holding ``unit``; count * w is a
    # whole number of bytes
    while w < 8:
        unit |= unit << w
        w *= 2
        count //= 2
    return int.from_bytes(unit.to_bytes(w // 8, "little") * count, "little")


def inverse_zeta_packed(fields, m: int):
    """The subset Moebius transform (Yates 1937) modulo any integer m >= 2,
    on packed fields: field T <- sum over S subset T of (-1)^|T\\S| field S,
    mod m.

    ``fields`` holds 2^k residues in [0, m): an ``array`` whose items fit
    m (a ``field_buffer``), or bytes-like data of little-endian fields of
    ``field_width(m)`` bytes (the form for moduli past 8 bytes).  The
    result comes back in the same form: an array of the same typecode, or
    bytes.  The fields are read as one int, so each level of the butterfly
    is a handful of linear-time big-int operations instead of one Python
    step per pair (SIMD within a register).  The level of bit s moves the
    lanes without bit s onto the lanes with it (``up``) and subtracts, lane
    by lane; no borrow crosses a lane, so every lane ends the level inside
    [0, 2^w) and holds (h - l) mod m.

    Before the levels, the int is folded while half the fields fill at
    least a byte and the residues fit a half lane, m <= 2^(w/2):
    ``x = lo | hi << (w/2)`` puts field i + size/2 into the high half-lane
    of field i.  A fold only moves the top index bit to bit 0 of the lane
    index, and the levels, one per index bit, commute, so the same levels
    over the lanes give the same transform; afterwards each fold is undone
    by masking out the low and the high half-lanes and joining the two
    halves' bytes.  The final width w decides the level.
    Where m <= 2^(w-1), a lane holds h - l + 2^(w-1) (the guarded level):
    its top bit says whether h - l stayed nonnegative, and 2^(w-1) - m
    comes off the lanes where it did not.  Above that the lanes have no
    sign bit (the borrow-detecting level): they subtract mod 2^w with
    their top bits set aside, the borrow out of each lane is read from the
    top bits of h, l and the difference, and 2^w - m comes off the lanes
    that borrowed.  So m = 2 runs in 1-bit lanes (k = 0: the level is an
    XOR), 3 and 4 in 2-bit lanes, 5 to 8 in 4-bit lanes with a sign bit,
    9 to 16 without, 17 to 128 in 8-bit lanes with one and 129 to 256
    without (wider fields of a small modulus fold further).
    """
    width = field_width(m)
    typecode = fields.typecode if isinstance(fields, array) else None
    if typecode:
        if fields.itemsize < width:
            raise ValueError(f"fields of {fields.itemsize} bytes are too narrow for modulus {m}")
        width = fields.itemsize
        if sys.byteorder == "big":
            fields = array(typecode, fields)
            fields.byteswap()
    nbytes = memoryview(fields).nbytes
    size = nbytes // width
    if not size or size & (size - 1) or size * width != nbytes:
        raise ValueError("the butterfly needs a power-of-two number of fields")
    w = 8 * width
    x = int.from_bytes(fields, "little")
    del fields  # a buffer the caller passed as a temporary is freed here
    # fold into lanes of half the width (see above), then pick the level
    while size // 2 * w >= 8 and m <= 1 << (w // 2):
        half = size * w // 2
        x = x & ((1 << half) - 1) | (x >> half) << (w // 2)
        w //= 2
    free = m > 1 << (w - 1)
    # the levels commute, so they run from the top bit down: the lanes
    # whose index has bit s set are mask ^ (mask >> (2^s lanes)), mask those
    # of bit s + 1, and bias holds the top bit of each of those lanes; k
    # comes off the lanes where h < l
    step = size // 2
    mask = ((1 << (w * step)) - 1) << (w * step)
    bias = _lanes(1 << (w - 1), w, size) >> (w * step) << (w * step)
    k = (1 << w if free else 1 << (w - 1)) - m
    while step:
        up = (x << (w * step)) & mask
        if free:
            e = x ^ up
            x = ((x | bias) - (up ^ (up & bias))) ^ bias ^ (e & bias)
            if k:
                # borrow out of the top bit: ~h & l = e & l, or ~e & (h - l)
                x -= ((((up & e) | (x ^ (x & e))) & bias) >> (w - 1)) * k
            del up, e  # so that no temporary outlives the level
        else:
            x |= bias
            x -= up
            del up
            sign = x & bias  # the top bits left set, where h - l >= 0
            x ^= sign
            if k:
                x -= ((bias ^ sign) >> (w - 1)) * k
            del sign
        step //= 2
        mask ^= mask >> (w * step)
        bias ^= bias >> (w * step)
    # unfold: the high half-lanes go back above the lower half of the
    # fields; the halves are joined as bytes, so no shifted copy of the
    # whole int is made, and each temporary is freed as soon as it is used
    data = x.to_bytes(size * w // 8, "little")
    del x
    while w < 8 * width:
        x = int.from_bytes(data, "little")
        del data
        low = _lanes((1 << w) - 1, 2 * w, size // 2)
        lo = (x & low).to_bytes(size * w // 8, "little")
        hi = (x >> w & low).to_bytes(size * w // 8, "little")
        del x, low
        data = lo + hi
        del lo, hi
        w *= 2
    if not typecode:
        return data
    out = array(typecode, data)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def inverse_zeta(vals: list[int], m: int) -> None:
    """In place: vals[T] <- sum over S subset T of (-1)^|T\\S| vals[S], mod m.

    The list form of ``inverse_zeta_packed``, for any integer m >= 2, prime
    or not (inputs need not be reduced; outputs are).  An exact result
    whose values are known to lie in [0, m) is its own residue, so callers
    with such a bound need no separate exact mode.  ``len(vals)`` must be a
    power of two.  Native field widths go through ``array`` in chunks, so
    no temporary list is as long as the input; wider fields (moduli past 8
    bytes) are packed one value at a time.
    """
    width = field_width(m)
    code = _NATIVE_CODES.get(width)
    if code:
        packed = array(code)
        for i in range(0, len(vals), _CHUNK):
            packed.fromlist([v % m for v in vals[i:i + _CHUNK]])
        out = inverse_zeta_packed(packed, m)
        del packed
        for i in range(0, len(vals), _CHUNK):
            vals[i:i + _CHUNK] = out[i:i + _CHUNK]
    else:
        data = inverse_zeta_packed(b"".join((v % m).to_bytes(width, "little") for v in vals), m)
        vals[:] = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def residue_tally(counts, m: int) -> list[int]:
    """[#0, ..., #(m - 1)] from a mapping {value: count}, each value taken
    mod m."""
    tally = [0] * m
    for v, c in counts.items():
        tally[v % m] += c
    return tally


def inverse_zeta_tally(fields, m: int) -> list[int]:
    """The residue tally of ``inverse_zeta_packed(fields, m)`` for a
    ``field_buffer`` of residues mod m: entry r counts the output fields
    equal to r.  Small moduli are tallied by a ``count`` scan per residue
    but the last, which takes what is left, larger ones by a Counter pass."""
    # handed over through a list, so no local here outlives the butterfly's del
    box = [fields]
    del fields
    out = inverse_zeta_packed(box.pop(), m)
    if m <= _COUNT_TALLY_MAX_P:
        tally = [out.count(r) for r in range(m - 1)]
        return tally + [len(out) - sum(tally)]
    return residue_tally(Counter(out), m)
