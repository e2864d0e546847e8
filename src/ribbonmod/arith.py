"""Base-p digit vectors, exact multinomials, Lucas binomials, and the
modular subset Moebius transform.

Everything here is pure integer arithmetic on Python ints, so results are
exact at any size.  Prime moduli are validated by a deterministic
Miller-Rabin test the first time they are used.  The Moebius transform works
modulo any integer m >= 2: it packs the residues into the byte fields of one
big int and runs each level of the butterfly as a few whole-int operations
(SIMD within a register).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import comb

from .compositions import CapacityError

# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime below
# this bound (Sorenson and Webster, 2015), so the test is exact under it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981

# unsigned array typecodes of the field widths packed natively, by byte
# count; lists convert to and from arrays in chunks, so no temporary list is
# as long as the input
_NATIVE_CODES = {array(code).itemsize: code for code in "QIHB"}
_CHUNK = 1 << 14


def is_prime(p: int) -> bool:
    """Deterministic primality test, exact for p < MILLER_RABIN_LIMIT.

    Raises CapacityError for larger p that no base divides, rather than
    give an answer that might be wrong.
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


def check_odd_prime(p: int) -> int:
    check_prime(p)
    if p == 2:
        raise ValueError("modulus must be an odd prime")
    return p


@dataclass(frozen=True)
class BasePDigits:
    """Little-endian base-p digit vector of a nonnegative integer.

    ``digits[j]`` is the coefficient of p**j.  The top digit is nonzero
    except for the vector of 0, which is stored as ``(0,)``.
    """

    digits: tuple[int, ...]
    p: int

    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.p + d
        return total

    def padded(self, size: int) -> tuple[int, ...]:
        """Digits extended with high-order zeros to ``size`` entries."""
        if size < len(self.digits):
            raise ValueError("cannot pad below the digit count")
        return self.digits + (0,) * (size - len(self.digits))

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, j: int) -> int:
        return self.digits[j]

    def __iter__(self):
        return iter(self.digits)


def base_p_digits(n: int, p: int) -> BasePDigits:
    """Digits of n in base p, least significant first."""
    check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return BasePDigits((0,), p)
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return BasePDigits(tuple(digits), p)


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


def lucas_binomial(top: tuple[int, ...], bottom: tuple[int, ...], p: int) -> int:
    """C(top, bottom) mod p from little-endian base-p digit tuples, by
    Lucas's theorem; 0 unless bottom is digitwise at most top."""
    if len(bottom) > len(top):
        return 0
    r = 1
    for a, b in zip(top, bottom):
        r = r * comb(a, b) % p
        if not r:
            return 0
    return r


def inverse_zeta(vals: list[int], m: int) -> None:
    """In place: vals[T] <- sum over S subset T of (-1)^|T\\S| vals[S], mod m.

    The subset Moebius transform (Yates 1937) modulo any integer m >= 2,
    prime or not (inputs need not be reduced; outputs are).  An exact
    result whose values are known to lie in [0, m) is its own residue, so
    callers with such a bound need no separate exact mode.  ``len(vals)``
    must be a power of two.

    The residues are packed into one int of fixed-width byte fields, field i
    at bit i * w with w at least bit_length(m) + 1, so each level of the
    butterfly is a handful of linear-time big-int operations instead of one
    Python step per pair.  The level of bit s moves the fields without bit s
    onto the fields with it (``up``) and subtracts; the top bit of each
    field h - l + 2^(w-1) says whether h - l stayed nonnegative, and m is
    added back to the fields where it did not.  Borrows between fields in
    the middle of a level cancel, because every field ends the level inside
    [0, 2^w).
    """
    size = len(vals)
    if not size or size & (size - 1):
        raise ValueError("the butterfly needs a power-of-two length")
    width = (m.bit_length() + 8) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    w = 8 * width
    code = _NATIVE_CODES.get(width)
    if code:
        packed = array(code)
        for i in range(0, size, _CHUNK):
            packed.fromlist([v % m for v in vals[i:i + _CHUNK]])
        if sys.byteorder == "big":
            packed.byteswap()
    else:
        packed = b"".join((v % m).to_bytes(width, "little") for v in vals)
    x = int.from_bytes(packed, "little")
    del packed
    # the levels commute, so they run from the top bit down: the fields
    # whose index has bit s set are m1 ^ (m1 >> (2^s fields)), m1 those of bit s + 1
    step = size // 2
    m1 = int.from_bytes(bytes(width * step) + (1).to_bytes(width, "little") * step, "little")
    while step:
        up = (x << (w * step)) & ((m1 << w) - m1)
        t = x + (m1 << (w - 1)) - up
        x = x - up + m * (m1 ^ ((t >> (w - 1)) & m1))
        step //= 2
        m1 ^= m1 >> (w * step)
    data = x.to_bytes(size * width, "little")
    del x
    if code:
        out = array(code, data)
        del data
        if sys.byteorder == "big":
            out.byteswap()
        for i in range(0, size, _CHUNK):
            vals[i:i + _CHUNK] = out[i:i + _CHUNK]
    else:
        vals[:] = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
