"""Compositions, pseudo-compositions, and their descent-set encodings.

A composition of n is a sequence of positive integers summing to n; a
pseudo-composition additionally allows its first part to be 0.  Either kind
is determined by its descent set (the set of proper prefix sums), so the
canonical in-memory form is n with the ascending tuple of descent
positions, O(parts) at any n; the parts and the mask are derived on
demand.  (A composition indexes a projective indecomposable module of the
0-Hecke algebra, of the size of its descent class.)

The encoding lives here alone.  Each class's ``offset`` is the least
descent position, mask bit 0 and the least first part: 1 for a
``Composition`` (type A, positions [1, n-1]), 0 for a ``PseudoComposition``
(types B and D, positions {0, ..., n-1}); ``mask_offset(family)`` gives it
by family.  Every index is built by ``from_descents``, which checks
offset <= n and each position in [offset, n-1]: the constructor,
``from_mask``, ``complement``, copies and pickles go through it.  Only
``complement`` creates positions, and it refuses past
COMPLEMENT_MAX_POSITIONS before it allocates.

Every refusal past a budget is a ``CapacityError``.  ``_Record`` is the
frozen base of every value record of the package: the two index kinds,
``cvec.DimensionPVector``, ``coxeter.IrreducibleType`` and
``coxeter.CoxeterDiagram``.  The family gate ``check_family`` is here too,
beside ``mask_offset``, for every module that takes a family letter, and
the gate ``check_n`` for every entry that takes n.  ``int_value`` reads
every int of a command line, of any length.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import accumulate, chain, compress, count
from operator import index, sub

# Most positions one complement may create.  At the budget,
# `Composition((2**21 + 1,)).complement()` took 0.38-0.40 s and 158 MB peak
# RSS in a fresh process (2-core machine, Python 3.11).
COMPLEMENT_MAX_POSITIONS = 1 << 21

# The descent families: type A is indexed by Composition, types B and D by
# PseudoComposition
FAMILIES = ("A", "B", "D")


class CapacityError(ValueError):
    """A request past a budget, refused before its work.  ``budget`` names
    its constant, e.g. ``"cvec.SWEEP_MAX_BITS"``; ``needed`` (a lower bound
    where the check stops early) and ``cap`` are in its unit, and written
    past 128 bits as the lower bound 2^(b - 1) of their b bits, in that unit
    also where it is bits, so neither the message nor the repr raises."""

    def __init__(self, budget: str, needed: int, cap: int):
        ValueError.__init__(self, budget, needed, cap)
        self.budget = budget
        self.needed = needed
        self.cap = cap

    def __str__(self) -> str:
        return f"{self.budget}: the request needs {_bound_text(self.needed)}; the budget is {_bound_text(self.cap)}"

    def __repr__(self) -> str:
        # BaseException.__repr__ would write the ints in decimal
        ints = f"{_bound_text(self.needed)}, {_bound_text(self.cap)}"
        return f"{type(self).__name__}({self.budget!r}, {ints})"


def _bound_text(value) -> str:
    if isinstance(value, int) and value > 0 and value.bit_length() > 128:
        return f"2^{value.bit_length() - 1} or more"
    return text_head(value)


def text_head(value) -> str:
    """How every message writes a value it echoes, bounded and never raising:
    an int past 128 bits by its bit length (``str()`` refuses one past the
    digit limit), a text or another value's repr past 60 characters by its
    first 60 and its length, one whose repr raises by its type, else repr."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"an int of {value.bit_length()} bits"
    try:
        text, write = (value, repr) if isinstance(value, str) else (repr(value), str)  # a text is cut, then quoted
    except Exception:  # e.g. an int past the digit limit inside a list
        return f"a {type(value).__name__} whose repr raises"
    return write(text) if len(text) <= 60 else f"{write(text[:60])}... ({len(text)} characters)"


def int_value(text: str) -> int:
    """``int(text)``, at any length.

    ``int()`` refuses a text of more digits than the interpreter's limit
    (4300 by default), which is left alone.  A text longer than the limit
    must be ASCII digits after an optional sign, and is read in halves:
    the low one a power-of-two multiple of the limit in digits, joined to
    the high one by a product with a power of ten squared up from
    10^limit.  Karatsuba products make it subquadratic: 10^6 digits took
    0.7-0.8 s in process (2-core machine, Python 3.11).  A malformed long
    text is refused with ValueError quoting its head (``text_head``)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or len(text) <= limit:
        return int(text)
    digits = text[1:] if text[0] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text_head(text)}")
    powers = [10**limit]  # powers[j] = 10^(limit 2^j)
    while limit << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])

    def read(part: str, j: int) -> int:
        # part has at most limit 2^(j + 1) digits
        if len(part) <= limit:
            return int(part)
        while limit << j >= len(part):
            j -= 1
        low = limit << j
        return read(part[:-low], j) * powers[j] + read(part[-low:], j)

    value = read(digits, len(powers) - 1)
    return -value if text[0] == "-" else value


def check_family(family: str) -> str:
    """Return the family letter, raising ValueError unless it is A, B or D."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {text_head(family)}")
    return family


def check_n(n) -> int:
    """Return n, raising ValueError unless it is an int: a bool is refused,
    as it would pass for 0 or 1, and so is a float or a string."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {text_head(n)}")
    return n


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
        raise AttributeError(f"cannot assign to field {text_head(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {text_head(name)}")

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
        parts = tuple(parts)  # each an int by check_n's rule: a bool, float or str is refused
        at = next((i for i, a in enumerate(parts)
                   if not isinstance(a, int) or isinstance(a, bool) or a < (1 if i else cls.offset)), None)
        if at is not None or not parts:
            got = "no part" if at is None else f"part {at} = {text_head(parts[at])}"
            raise ValueError(f"{cls.__name__} needs a first part >= {cls.offset} and the rest >= 1, got {got}")
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
            raise ValueError(f"descent positions out of range for n={text_head(n)}: n >= {lo}, each in [{lo}, n - 1]")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", positions)
        return self

    @classmethod
    def from_mask(cls, n: int, mask: int):
        """The index of n whose descents are the set bits of mask, bit 0 at offset."""
        if n < cls.offset or mask < 0 or mask >> (n - cls.offset):
            raise ValueError(f"descent mask {text_head(mask)} out of range for n={text_head(n)} with bit 0 at position {cls.offset}")
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
            raise CapacityError("compositions.COMPLEMENT_MAX_POSITIONS", size, COMPLEMENT_MAX_POSITIONS)
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


def parse_parts(text: str, pseudo: bool = False):
    """Parse the CLI's comma-separated parts syntax, e.g. ``1,2,1``.

    A leading 0 is only accepted when ``pseudo`` is true.  A part may have
    any number of digits (``int_value``).
    """
    try:
        parts = tuple(int_value(tok.strip()) for tok in str.split(text, ","))
    except (TypeError, ValueError):  # str.split refuses a text that is not a str with TypeError
        raise ValueError(f"malformed composition {text_head(text)}") from None
    return PseudoComposition(parts) if pseudo else Composition(parts)
