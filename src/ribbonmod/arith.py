"""Base-p digit vectors, exact/modular multinomial arithmetic, and the
subset Moebius transform.

Everything here is pure integer arithmetic on Python ints, so results are
exact at any size.  Moduli are validated as primes by a deterministic
Miller-Rabin test the first time they are used.  The Moebius transform packs
its values into the byte fields of one big int and runs each level of the
butterfly as a few whole-int operations (SIMD within a register).
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
# count (the lower-case code is the signed one); lists convert to and from
# arrays in chunks, so no temporary list is as long as the input
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


def multinomial_mod_p(n: int, parts, p: int) -> int:
    """Multinomial coefficient modulo a prime via base-p digit columns.

    The value is the product over digit positions j of the multinomial of
    the j-th digits of the parts with top n_j; it vanishes exactly when the
    digit rows of the parts fail to reproduce the digits of n columnwise.
    Each per-digit multinomial has top < p, so it is computed exactly and
    then reduced.
    """
    check_prime(p)
    parts = tuple(parts)
    if any(m < 0 for m in parts):
        raise ValueError("parts must be nonnegative")
    if any(m > n for m in parts):
        return 0
    nd = base_p_digits(n, p)
    width = len(nd)
    rows = [base_p_digits(m, p).padded(width) for m in parts]
    result = 1
    for j, nj in enumerate(nd):
        result = result * multinomial_exact(nj, (row[j] for row in rows)) % p
        if result == 0:
            return 0
    return result


def pow2_mod_p(e: int, p: int) -> int:
    """2**e mod p for an odd prime p."""
    check_odd_prime(p)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(2, e, p)


def inverse_zeta(vals: list[int], p: int | None = None) -> None:
    """In place: vals[T] <- sum over S subset T of (-1)^|T\\S| vals[S].

    The subset Moebius transform (Yates 1937), exact or, with ``p``, mod p
    (inputs need not be reduced; outputs are).  ``len(vals)`` must be a
    power of two.

    The values are packed into one int of fixed-width byte fields, field i
    at bit i * w, so each level of the butterfly is a handful of linear-time
    big-int operations instead of one Python step per pair.  Mod p a field
    holds a residue and is at least bit_length(p) + 1 bits wide.  Exactly a
    field holds v + B with the bias B = 2^(w-1) > 2^levels * max|v|, so no
    field ever goes negative; flipping the top bit of a w-bit two's
    complement field adds B, so packing and unpacking need no per-value
    arithmetic.  The level of bit s moves the fields without bit s onto the
    fields with it (``up``) and subtracts; mod p, the top bit of each field
    h - l + 2^(w-1) says whether h - l stayed nonnegative, and p is added
    back to the fields where it did not.  Borrows between fields in the
    middle of a level cancel, because every field ends the level inside
    [0, 2^w).
    """
    size = len(vals)
    if not size or size & (size - 1):
        raise ValueError("the butterfly needs a power-of-two length")
    signed = p is None
    if signed:
        bits = max(max(vals), -min(vals)).bit_length() + size.bit_length()
    else:
        bits = p.bit_length() + 1
    width = (bits + 7) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    w = 8 * width
    code = _NATIVE_CODES.get(width)
    if code and signed:
        code = code.lower()
    if code:
        if signed:
            packed = array(code, vals)
        else:
            packed = array(code)
            for i in range(0, size, _CHUNK):
                packed.fromlist([v % p for v in vals[i:i + _CHUNK]])
        if sys.byteorder == "big":
            packed.byteswap()
    else:
        fields = vals if signed else (v % p for v in vals)
        packed = b"".join(v.to_bytes(width, "little", signed=signed) for v in fields)
    x = int.from_bytes(packed, "little")
    del packed
    if signed:
        top = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
        x ^= top
    # the levels commute, so they run from the top bit down: the fields
    # whose index has bit s set are m ^ (m >> (2^s fields)), m those of bit s + 1
    step = size // 2
    m1 = int.from_bytes(bytes(width * step) + (1).to_bytes(width, "little") * step, "little")
    while step:
        up = (x << (w * step)) & ((m1 << w) - m1)
        if signed:
            x = x - up + (m1 << (w - 1))
        else:
            t = x + (m1 << (w - 1)) - up
            x = x - up + p * (m1 ^ ((t >> (w - 1)) & m1))
        step //= 2
        m1 ^= m1 >> (w * step)
    if signed:
        x ^= top
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
        vals[:] = [int.from_bytes(data[i:i + width], "little", signed=signed)
                   for i in range(0, len(data), width)]
