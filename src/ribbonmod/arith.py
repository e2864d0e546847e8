"""Base-p digit vectors, exact/modular multinomial arithmetic, and the
subset Moebius transform.

Everything here is pure integer arithmetic on Python ints, so results are
exact at any size.  Moduli are validated as primes by a deterministic
Miller-Rabin test the first time they are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .compositions import CapacityError

# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime below
# this bound (Sorenson and Webster, 2015), so the test is exact under it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


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

    The subset Moebius transform (Yates 1937), exact or, with ``p``, mod p.
    Level ``step`` pairs each mask having that bit with the mask without it.
    The pairs are rewritten either with one strided slice per offset below
    ``step`` or with one contiguous slice per block of ``2 * step`` masks,
    whichever takes fewer slice operations, so no level costs more than
    about sqrt(len(vals)) Python-level steps.
    """
    size = len(vals)
    step = 1
    while step < size:
        double = step * 2
        if step <= size // double:
            cuts = [(slice(lo + step, None, double), slice(lo, None, double)) for lo in range(step)]
        else:
            cuts = [(slice(base + step, base + double), slice(base, base + step))
                    for base in range(0, size, double)]
        for hi, lo in cuts:
            if p is None:
                vals[hi] = [x - y for x, y in zip(vals[hi], vals[lo])]
            else:
                vals[hi] = [(x - y) % p for x, y in zip(vals[hi], vals[lo])]
        step = double
