"""Compositions, pseudo-compositions, and their descent-set encodings.

A composition of n is a sequence of positive integers summing to n; a
pseudo-composition additionally allows its first part to be 0.  Either kind
is determined by its descent set (the set of proper prefix sums), so the
canonical in-memory form is a bitmask over the descent positions together
with n; the parts sequence is derived on demand.

Bit conventions:
  * family "A"  -- descent positions live in [1, n-1]; position j is bit j-1;
  * family "BD" -- descent positions live in {0, ..., n-1}; position j is bit j.

Full enumeration is capped at 63 mask bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_MASK_BITS = 63


class CapacityError(ValueError):
    """A requested enumeration exceeds the documented budget."""


@dataclass(frozen=True)
class DescentSet:
    """A set of descent positions for a fixed n and index family."""

    n: int
    mask: int
    family: str  # "A" or "BD"

    def __post_init__(self):
        if self.family not in ("A", "BD"):
            raise ValueError(f"unknown descent family {self.family!r}")
        width = self.n - 1 if self.family == "A" else self.n
        if self.mask < 0 or self.mask >> max(width, 0):
            raise ValueError("descent mask out of range for n")

    @classmethod
    def from_positions(cls, n: int, positions, family: str) -> "DescentSet":
        lo = 1 if family == "A" else 0
        mask = 0
        for j in positions:
            if not lo <= j <= n - 1:
                raise ValueError(f"descent position {j} out of range for n={n}")
            mask |= 1 << (j - lo)
        return cls(n, mask, family)

    def positions(self) -> tuple[int, ...]:
        lo = 1 if self.family == "A" else 0
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1 + lo)
            mask ^= low
        return tuple(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions())

    def __contains__(self, j: int) -> bool:
        lo = 1 if self.family == "A" else 0
        return lo <= j <= self.n - 1 and self.mask >> (j - lo) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()


def _parts_from_mask(n: int, mask: int, lo: int) -> tuple[int, ...]:
    # lo is the descent position encoded by bit 0.
    parts = []
    prev = 0
    m = mask
    while m:
        low = m & -m
        d = low.bit_length() - 1 + lo
        parts.append(d - prev)
        prev = d
        m ^= low
    parts.append(n - prev)
    return tuple(parts)


class _MaskBacked:
    """Shared machinery for the two composition kinds."""

    __slots__ = ("n", "mask")
    _family = ""  # "A" or "BD"

    def __init__(self, parts):
        parts = tuple(int(a) for a in parts)
        self._validate(parts)
        n = sum(parts)
        lo = 1 if self._family == "A" else 0
        mask = 0
        acc = 0
        for a in parts[:-1]:
            acc += a
            mask |= 1 << (acc - lo)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, n: int, mask: int):
        self = object.__new__(cls)
        width = n - 1 if cls._family == "A" else n
        if mask < 0 or mask >> max(width, 0):
            raise ValueError("descent mask out of range for n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        return self

    def __setattr__(self, *_):
        raise AttributeError("immutable value")

    @property
    def parts(self) -> tuple[int, ...]:
        lo = 1 if self._family == "A" else 0
        return _parts_from_mask(self.n, self.mask, lo)

    def __len__(self) -> int:
        return self.mask.bit_count() + 1

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.n, self.mask))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(str, self.parts))})"

    def descents(self) -> tuple[int, ...]:
        """Proper prefix sums, ascending."""
        return self.descent_set().positions()

    def descent_set(self) -> DescentSet:
        family = "A" if self._family == "A" else "BD"
        return DescentSet(self.n, self.mask, family)

    def prefix_sums(self) -> tuple[int, ...]:
        """All prefix sums, from the empty one (0) up to n."""
        acc = 0
        sums = [0]
        for a in self.parts:
            acc += a
            sums.append(acc)
        return tuple(sums)

    def complement(self):
        """The composition whose descent set is the complement of this one's."""
        width = self.n - 1 if self._family == "A" else self.n
        full = (1 << width) - 1
        return type(self).from_mask(self.n, self.mask ^ full)

    def _validate(self, parts):
        raise NotImplementedError


class Composition(_MaskBacked):
    """Composition of n: positive parts, in bijection with subsets of [n-1]."""

    _family = "A"

    def _validate(self, parts):
        if not parts:
            raise ValueError("a composition needs at least one part")
        if any(a < 1 for a in parts):
            raise ValueError(f"composition parts must be positive: {parts}")


class PseudoComposition(_MaskBacked):
    """Composition of n whose first part may be 0.

    In bijection with subsets of {0, ..., n-1}; there are 2**n of them.
    """

    _family = "BD"

    def _validate(self, parts):
        if not parts:
            raise ValueError("a pseudo-composition needs at least one part")
        if parts[0] < 0 or any(a < 1 for a in parts[1:]):
            raise ValueError(
                f"pseudo-composition needs first part >= 0 and the rest positive: {parts}"
            )


def from_descent_set(n: int, descents: DescentSet):
    """The unique (pseudo-)composition of n with the given descent set."""
    if descents.n != n:
        raise ValueError(f"descent set is for n={descents.n}, not n={n}")
    cls = Composition if descents.family == "A" else PseudoComposition
    return cls.from_mask(n, descents.mask)


def _check_enum_width(n: int):
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_MASK_BITS:
        raise CapacityError(
            f"full enumeration is limited to n <= {MAX_MASK_BITS} (mask width)"
        )


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All 2**(n-1) compositions of n, in ascending descent-mask order."""
    _check_enum_width(n)
    for mask in range(1 << (n - 1)):
        yield Composition.from_mask(n, mask)


def enumerate_pseudo_compositions(n: int) -> Iterator[PseudoComposition]:
    """All 2**n pseudo-compositions of n, in ascending descent-mask order."""
    _check_enum_width(n)
    for mask in range(1 << n):
        yield PseudoComposition.from_mask(n, mask)


def parse_parts(text: str, pseudo: bool = False):
    """Parse the CLI's comma-separated parts syntax, e.g. ``1,2,1``.

    A leading 0 is only accepted when ``pseudo`` is true.
    """
    try:
        parts = tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}") from None
    return PseudoComposition(parts) if pseudo else Composition(parts)
