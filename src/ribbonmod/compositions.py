"""Compositions, pseudo-compositions, and their descent-set encodings.

A composition of n is a sequence of positive integers summing to n; a
pseudo-composition additionally allows its first part to be 0.  Either kind
is determined by its descent set (the set of proper prefix sums), so the
canonical in-memory form is n with the ascending tuple of descent
positions; the parts and the descent mask are derived on demand.

The encoding lives here alone.  Each class's ``offset`` is the least
descent position, mask bit 0 and the least first part: 1 for a
``Composition`` (type A, positions [1, n-1]), 0 for a ``PseudoComposition``
(types B and D, positions {0, ..., n-1}); ``mask_offset(family)`` gives it
by family.  Every index is built by ``from_descents``, which checks
offset <= n and each position in [offset, n-1]: the constructor,
``from_mask``, ``complement``, copies and pickles go through it.  Only
``complement`` creates positions, and it refuses past
COMPLEMENT_MAX_POSITIONS before it allocates.

Full enumeration is capped at 63 mask bits.

``_Record`` is the frozen base of every value record of the package: the
two index kinds, ``ribbon.SignedPermutation``, ``cvec.DimensionPVector``,
``coxeter.IrreducibleType`` and ``coxeter.CoxeterDiagram``.  The family
gate ``check_family`` is here too, beside ``mask_offset``, for every module
that takes a family letter.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, compress, count
from operator import index, sub

MAX_MASK_BITS = 63

# Most positions one complement may create.  At the budget,
# `Composition((2**21 + 1,)).complement()` took 0.38-0.40 s and 158 MB peak
# RSS in a fresh process (2-core machine, Python 3.11).
COMPLEMENT_MAX_POSITIONS = 1 << 21

# The descent families: type A is indexed by Composition, types B and D by
# PseudoComposition
FAMILIES = ("A", "B", "D")


class CapacityError(ValueError):
    """A requested enumeration exceeds the documented budget."""


def check_family(family: str) -> str:
    """Return the family letter, raising ValueError unless it is A, B or D."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return family


def mask_offset(family: str) -> int:
    """The descent position that mask bit 0 encodes: 1 for family A, 0 for
    B or D.  A mask for n has n - mask_offset(family) bits."""
    return 1 if check_family(family) == "A" else 0


def _positions(mask: int, lo: int) -> Iterator[int]:
    # the descent positions of a mask whose bit 0 is position lo, ascending:
    # one pass over its binary digits, bit 0 first, each "0" made a zero byte
    return compress(count(lo), bin(mask)[:1:-1].encode().replace(b"0", b"\0"))


class _Record:
    """A frozen record over the fields its subclass names in ``__slots__``,
    in constructor order.

    Equality and hash read the fields in ``_compared`` (all of them unless
    a subclass narrows it), and only between records of one class; the
    repr names every field.  Copies and pickles rebuild through the
    constructor, so they pass its checks.  A subclass whose constructor
    does not take its fields (the indices) overrides every method that
    reads ``__slots__``: ``__init__``, ``_key``, ``__reduce__`` and
    ``__repr__``.
    """

    __slots__ = ()
    _compared = None  # the fields equality and hash read; None: all

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __setattr__(self, name, _):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _MaskBacked(_Record):
    """Shared machinery for the two composition kinds: a ``_Record`` of n and
    the ascending descent positions, built from the parts by ``__new__``."""

    __slots__ = ("n", "positions")
    offset = 0  # the least descent position, the mask bit 0, and the least first part

    def __new__(cls, parts):
        parts = tuple(int(a) for a in parts)
        if not parts or parts[0] < cls.offset or any(a < 1 for a in parts[1:]):
            raise ValueError(f"{cls.__name__} needs a first part >= {cls.offset} and the rest >= 1: {parts}")
        return cls.from_descents(sum(parts), accumulate(parts[:-1]))

    def __init__(self, parts):
        # __new__ has set the fields; _Record.__init__ would store the parts in n
        pass

    @classmethod
    def from_descents(cls, n: int, positions):
        """The index of n whose descent set holds the given positions, in any
        order, a repeated one counted once."""
        n, lo = index(n), cls.offset
        positions = tuple(sorted(set(map(index, positions))))
        if n < lo or positions and not lo <= positions[0] <= positions[-1] < n:
            raise ValueError(f"descent positions out of range for n={n}: n >= {lo}, each in [{lo}, n - 1]")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", positions)
        return self

    @classmethod
    def from_mask(cls, n: int, mask: int):
        """The index of n whose descents are the set bits of mask, bit 0 at offset."""
        if n < cls.offset or mask < 0 or mask >> (n - cls.offset):
            raise ValueError(f"descent mask {mask} out of range for n={n} with bit 0 at position {cls.offset}")
        return cls.from_descents(n, _positions(mask, cls.offset))

    def _key(self) -> tuple:
        # the fields, and the offset, so the two kinds hash apart
        return (self.offset, self.n, self.positions)

    def __reduce__(self):
        # copy and pickle rebuild through from_descents, so a payload runs
        # the same range check as every constructor
        return type(self).from_descents, (self.n, self.positions)

    @property
    def mask(self) -> int:
        """The descent set as bits, bit 0 at offset, in O(n/8 + d) bytes."""
        lo, buf = self.offset, bytearray((self.n - self.offset + 7) // 8)
        for j in self.positions:
            buf[(j - lo) >> 3] |= 1 << ((j - lo) & 7)
        return int.from_bytes(buf, "little")

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(map(sub, (*self.positions, self.n), (0, *self.positions)))

    def __len__(self) -> int:
        return len(self.positions) + 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(str, self.parts))})"

    def descents(self) -> tuple[int, ...]:
        """Proper prefix sums, ascending."""
        return self.positions

    def prefix_sums(self) -> tuple[int, ...]:
        """All prefix sums, from the empty one (0) up to n."""
        return (0, *self.positions, self.n)

    def complement(self):
        """The index whose descent set is the complement of this one's; past
        COMPLEMENT_MAX_POSITIONS new positions it is refused unbuilt."""
        lo, n, pos = self.offset, self.n, self.positions
        size = n - lo - len(pos)
        if size > COMPLEMENT_MAX_POSITIONS:
            raise CapacityError(f"a complement of {size} positions is past the budget of {COMPLEMENT_MAX_POSITIONS}")
        gaps = map(range, (lo, *(j + 1 for j in pos)), (*pos, n))
        return type(self).from_descents(n, chain.from_iterable(gaps))

    def fewer_descents(self):
        """This index, or its complement when that has strictly fewer descents."""
        d = len(self.positions)
        return self.complement() if self.n - self.offset - d < d else self


class Composition(_MaskBacked):
    """Composition of n: positive parts, in bijection with subsets of [n-1]."""

    __slots__ = ()
    offset = 1


class PseudoComposition(_MaskBacked):
    """Composition of n whose first part may be 0.

    In bijection with subsets of {0, ..., n-1}; there are 2**n of them.
    """

    __slots__ = ()
    offset = 0


def _enumerate(cls, n: int):
    # every index of cls for n, in ascending descent-mask order
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_MASK_BITS:
        raise CapacityError(
            f"full enumeration is limited to n <= {MAX_MASK_BITS} (mask width)"
        )
    for mask in range(1 << (n - cls.offset)):
        yield cls.from_mask(n, mask)


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All 2**(n-1) compositions of n, in ascending descent-mask order."""
    return _enumerate(Composition, n)


def enumerate_pseudo_compositions(n: int) -> Iterator[PseudoComposition]:
    """All 2**n pseudo-compositions of n, in ascending descent-mask order."""
    return _enumerate(PseudoComposition, n)


def parse_parts(text: str, pseudo: bool = False):
    """Parse the CLI's comma-separated parts syntax, e.g. ``1,2,1``.

    A leading 0 is only accepted when ``pseudo`` is true.
    """
    try:
        parts = tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}") from None
    return PseudoComposition(parts) if pseudo else Composition(parts)
