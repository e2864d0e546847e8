"""Compositions, pseudo-compositions, and their descent-set encodings.

A composition of n is a sequence of positive integers summing to n; a
pseudo-composition additionally allows its first part to be 0.  Either kind
is determined by its descent set (the set of proper prefix sums), so the
canonical in-memory form is a bitmask over the descent positions together
with n; the parts sequence is derived on demand.

The encoding lives here alone.  Each class's ``offset`` is the descent
position of bit 0 and the least first part: 1 for a ``Composition`` (type
A, positions [1, n-1]), 0 for a ``PseudoComposition`` (types B and D,
positions {0, ..., n-1}); ``mask_offset(family)`` gives it by family.  The
constructor, ``from_descents`` and ``from_mask`` share one check:
offset <= n <= MAX_DESCENT_N and a mask of n - offset bits.  Copies and
pickles rebuild through ``from_descents``, so they pass it too.

Full enumeration is capped at 63 mask bits.

``_Record`` is the frozen base of the package's other value records
(``cvec.DimensionPVector``, ``coxeter.IrreducibleType`` and
``coxeter.CoxeterDiagram``), in the same idiom as the indices.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
from operator import sub

MAX_MASK_BITS = 63

# Largest n of any descent mask.  A mask is one int of n - offset bits
# however few descents it has: `ribbonmod ribbon --family A --alpha
# 1000000000,1 --mod 3` took 1.4 s and 525 MB peak RSS (2-core machine,
# Python 3.11), and n = 10^10 would ask for several GB.
MAX_DESCENT_N = 1 << 30


class CapacityError(ValueError):
    """A requested enumeration exceeds the documented budget."""


def mask_offset(family: str) -> int:
    """The descent position that mask bit 0 encodes: 1 for family A, 0 for
    B or D.  A mask for n has n - mask_offset(family) bits."""
    if family not in ("A", "B", "D"):
        raise ValueError(f"unknown descent family {family!r}")
    return 1 if family == "A" else 0


def _check_mask(n: int, mask: int, offset: int) -> None:
    if n > MAX_DESCENT_N:
        raise CapacityError(f"a descent mask for n={n} is past the budget of n <= {MAX_DESCENT_N}")
    width = n - offset
    if width < 0 or mask < 0 or mask >> width:
        raise ValueError(f"descent mask {mask} out of range for n={n} with bit 0 at position {offset}")


def _positions(mask: int, lo: int) -> tuple[int, ...]:
    # the descent positions of a mask whose bit 0 is position lo, ascending
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1 + lo)
        mask ^= low
    return tuple(out)


class _Record:
    """A frozen record over the fields its subclass names in ``__slots__``,
    in constructor order.

    Equality and hash read the fields in ``_compared`` (all of them unless
    a subclass narrows it), and only between records of one class; the
    repr names every field.  Copies and pickles rebuild through the
    constructor, so they pass its checks.
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


class _MaskBacked:
    """Shared machinery for the two composition kinds."""

    __slots__ = ("n", "mask")
    offset = 0  # the descent position of mask bit 0, and the least first part

    def __new__(cls, parts):
        parts = tuple(int(a) for a in parts)
        if not parts or parts[0] < cls.offset or any(a < 1 for a in parts[1:]):
            raise ValueError(f"{cls.__name__} needs a first part >= {cls.offset} and the rest >= 1: {parts}")
        return cls.from_descents(sum(parts), accumulate(parts[:-1]))

    @classmethod
    def from_descents(cls, n: int, positions):
        """The index of n whose descent set holds the given positions."""
        lo = cls.offset
        _check_mask(n, 0, lo)  # before any n-bit int is built
        mask = 0
        for j in positions:
            if not lo <= j <= n - 1:
                raise ValueError(f"descent position {j} out of range for n={n}")
            mask |= 1 << (j - lo)
        return cls.from_mask(n, mask)

    @classmethod
    def from_mask(cls, n: int, mask: int):
        _check_mask(n, mask, cls.offset)
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        return self

    def __setattr__(self, *_):
        raise AttributeError("immutable value")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through from_descents, so a payload runs
        # the same range check as every constructor
        return type(self).from_descents, (self.n, self.descents())

    @property
    def parts(self) -> tuple[int, ...]:
        cuts = (0, *self.descents(), self.n)
        return tuple(map(sub, cuts[1:], cuts))

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
        return _positions(self.mask, self.offset)

    def prefix_sums(self) -> tuple[int, ...]:
        """All prefix sums, from the empty one (0) up to n."""
        return (0, *accumulate(self.parts))

    def complement(self):
        """The composition whose descent set is the complement of this one's."""
        full = (1 << (self.n - self.offset)) - 1
        return type(self).from_mask(self.n, self.mask ^ full)


class Composition(_MaskBacked):
    """Composition of n: positive parts, in bijection with subsets of [n-1]."""

    offset = 1


class PseudoComposition(_MaskBacked):
    """Composition of n whose first part may be 0.

    In bijection with subsets of {0, ..., n-1}; there are 2**n of them.
    """

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
