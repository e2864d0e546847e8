"""Ribbon numbers: descent-class sizes in types A, B, D.

Three independent routes are provided and cross-checked by the test suite:

  * ``ribbon_exact(family, alpha)``: the alternating sum of (weighted)
    multinomial coefficients over the coarsenings of the index, evaluated
    by an O(l^2) recurrence over the chains of descent positions;
  * for type A only, an equivalent determinant evaluated exactly over the
    integers (``ribbon_a_det``);
  * brute-force enumeration of the group itself, tallying descent sets
    (``oracle_descent_class_sizes``): the permutations of [n] are counted
    by parabolic cosets, a suffix table of S_k, k = min(n, (n + 3) // 2),
    by first value and descent mask times the ordered (n - k)-prefixes by
    descent mask and by c, the values left below their last value; in
    types B and D each sign pattern maps the permutations' descent masks,
    with their counts, to signed descent masks.

``ribbon_mod_p`` runs the same recurrence modulo a prime with binomials
from Lucas's theorem (``arith.lucas_binomial`` on the positions as ints),
after dropping the descent positions whose base-p digits are not bounded
by those of n: every chain through one of them vanishes.  Its kernel
``chain_mod_p(family, n, pos, p)`` takes bare sorted descent positions, so
it also gives the residue of any one subset of a theorem-method support
set.

The class of a descent set J and the class of its complement have the same
size: w -> w0 w turns every descent into an ascent and back (Bjorner and
Brenti, Combinatorics of Coxeter Groups, Prop. 2.3.2); the tests check it
for type D at n = 2, 3 too, where the group is not an irreducible type-D
Coxeter group.  So ``ribbon_exact`` and ``ribbon_mod_p`` run on the side
with fewer descents (the given one on a tie): a single class costs
O(min(d, m - d)^2) binomials for d descents out of m positions, so 1^n
costs what its one-part complement does.  The determinant, the oracle and
``chain_mod_p`` on bare positions take the side they are given, so they
stay independent checks of the flip.

Every index-taking entry checks the family, the index type (Composition
in type A, PseudoComposition in types B and D) and n >= 2 in type D.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

from .arith import check_prime, lucas_binomial, multinomial_exact
from .compositions import CapacityError, Composition, PseudoComposition, _Record, check_family

# Group-enumeration budgets for the oracle, by family: the largest n.  At
# the budget (S_9, 362880 elements; B7, 645120; D7, 322560) one oracle call
# takes 2.5 / 2.4 / 1.4 ms in process (2-core machine, Python 3.11, best of
# 7), since the type-A pass tallies cosets, not elements; the budget waits
# for a measured edge run before it moves.
ORACLE_MAX_N = {"A": 9, "B": 7, "D": 7}

def _check_index(family: str, alpha):
    check_family(family)
    if family == "A":
        if not isinstance(alpha, Composition):
            raise TypeError("family A is indexed by Composition")
    elif not isinstance(alpha, PseudoComposition):
        raise TypeError("families B and D are indexed by PseudoComposition")
    if family == "D" and alpha.n < 2:
        raise ValueError("type D needs n >= 2")
    return alpha


# ---------------------------------------------------------------------------
# the chain kernel


def _chain_sum(n: int, pos, first, binom, p: int | None = None) -> int:
    """Signed sum over the subsets T of the sorted descent positions ``pos``.

    Each T = {t_1 < ... < t_k} contributes (-1)^(|pos| - k) times
    w C(t_2, b) C(t_3, t_2) ... C(n, t_k), where ``first(t_1)`` returns the
    family's first-step weight w and the binomial base b of a chain that
    starts at t_1 (b = t_1 except for a type-D descent at 1, which merges
    into the next part); the empty T contributes (-1)^|pos|.  With the
    multinomial written as a chain of binomials, this is the coarsening sum
    of a ribbon number.

    Grouping the chains by their top descent gives the recurrence
    h(s) = w(s) - sum over earlier states (base, h) of C(s, base) h, where
    h is the chain sum times (-1)^(index of its top descent), which takes
    the signs of the skipped positions out of it: O(|pos|^2) calls of
    ``binom`` in place of 2^|pos| terms.  A chain started at s with a base
    other than s keeps a state of its own, which chains through s do not
    extend.  With ``p`` given, every value is reduced mod p.
    """
    states: list[tuple[int, int]] = []  # (binomial base, h) per chain end
    for s in pos:
        h = 0
        for base, v in states:
            h -= binom(s, base) * v
        weight, base = first(s)
        if base == s:
            h += weight
        else:
            states.append((base, weight))
        states.append((s, h if p is None else h % p))
    total = 1
    for base, v in states:
        total -= binom(n, base) * v
    if len(pos) % 2:
        total = -total
    return total if p is None else total % p


def _first_step(family: str, n: int, pow2):
    """The family's first-step rule for ``_chain_sum``: descent -> (weight,
    base), with ``pow2(e)`` computing 2^e exactly or mod p."""
    if family == "A":
        return lambda s: (1, s)
    if family == "B":
        return lambda s: (pow2(n - s), s)
    half = pow2(n - 1)
    # a first part of at most 1 halves the count 2^n; a descent at 1 taken
    # straight from the start merges into the next part (base 0), while one
    # reached from a descent at 0 closes a part of size 1 (base 1)
    return lambda s: (half, 0) if s <= 1 else (pow2(n - s), s)


def chain_mod_p(family: str, n: int, pos, p: int) -> int:
    """The signed chain sum of the sorted descent positions ``pos`` mod p.

    Binomials come from ``lucas_binomial`` on the positions themselves.
    A position s with C(n, s) = 0 mod p (some base-p digit of s above that
    of n) lies on no nonzero chain, so it only flips the sign; a type-D
    descent at 1 is kept, because a chain started there merges into the
    next part.  The modulus is checked here, since the kernel also runs on
    bare positions.
    """
    check_prime(p)
    first = _first_step(family, n, lambda e: pow(2, e, p))
    live = [s for s in pos if lucas_binomial(n, s, p) or (family == "D" and s == 1)]
    value = _chain_sum(n, live, first, lambda top, bottom: lucas_binomial(top, bottom, p), p)
    return -value % p if (len(pos) - len(live)) % 2 else value


def _chain_exact(family: str, n: int, pos) -> int:
    """The signed chain sum of the sorted descent positions ``pos``, exactly,
    on the side given."""
    return _chain_sum(n, pos, _first_step(family, n, lambda e: 1 << e), comb)


# ---------------------------------------------------------------------------
# exact values


def ribbon_exact(family: str, alpha) -> int:
    """The family's ribbon number of alpha, exactly: the signed sum over the
    coarsenings beta <= alpha of C(n; beta) (type A), 2^(n - beta_1) C(n; beta)
    (type B), or the type-D covering count, by the chain recurrence.

    The recurrence runs on alpha or on its complement, whichever has fewer
    descents: both classes have the same size, so l parts cost
    O(min(l - 1, m - l + 1)^2) binomials for m descent positions.

    Type D needs n >= 2; for n < 4 the value still counts descent classes of
    the even-signed-permutation group even though that group is not an
    irreducible type-D Coxeter group.
    """
    alpha = _check_index(family, alpha).fewer_descents()
    return _chain_exact(family, alpha.n, alpha.descents())


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    size = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def ribbon_a_det(alpha: Composition) -> int:
    """Type-A ribbon number via the determinant of reciprocal factorials.

    The determinant of the matrix with entries 1/(s_j - s_{i-1})!, where the
    s_i are the prefix sums of alpha and 1/k! is 0 for k < 0, is scaled by
    n!.  Row i is cleared to integers by (n - s_{i-1})!, so the whole
    computation stays in exact integer arithmetic.  This exists purely as an
    independent cross-check of ``ribbon_exact("A", alpha)``.
    """
    _check_index("A", alpha)
    sigma = alpha.prefix_sums()
    n = alpha.n
    ell = len(alpha)
    rows = []
    for i in range(1, ell + 1):
        base = sigma[i - 1]
        row = []
        for j in range(1, ell + 1):
            k = sigma[j] - base
            if k < 0:
                row.append(0)
            else:
                # (n - base)! / k!  as a falling-factorial product
                val = 1
                for t in range(k + 1, n - base + 1):
                    val *= t
                row.append(val)
        rows.append(row)
    det = _bareiss_det(rows)
    denom = 1
    for i in range(1, ell + 1):
        denom *= factorial(n - sigma[i - 1])
    num = factorial(n) * det
    if num % denom:
        raise ArithmeticError("determinant route produced a non-integer")
    return num // denom


# ---------------------------------------------------------------------------
# modular values


def term_mod_p(family: str, parts: tuple[int, ...], nd: tuple[int, ...],
               p: int, digit_row, inv2: int) -> int:
    """One refinement term of a ribbon number, reduced mod p digitwise.

    ``nd`` holds the digits of n, ``digit_row(m)`` the padded digits of m,
    and ``inv2`` the inverse of 2 mod p (unused for family A).  Returns 0
    exactly when the digit rows of the (adjusted) parts fail to form a
    vector composition of the digits of n.  No route of the package calls it:
    it is the independent per-term reference the term table is tested
    against.
    """
    halve = False
    if family == "D":
        first = parts[0]
        if first == 1:
            parts = (0, 1 + parts[1]) + parts[2:]
        halve = first <= 1
    rows = [digit_row(m) for m in parts]
    w = 1
    for j, nj in enumerate(nd):
        w = w * multinomial_exact(nj, (row[j] for row in rows)) % p
        if w == 0:
            return 0
    if family == "A":
        return w
    exponent = sum(nd) - sum(rows[0])
    w = w * pow(2, exponent, p) % p
    if halve:
        w = w * inv2 % p
    return w


def ribbon_mod_p(family: str, alpha, p: int) -> int:
    """Ribbon number of alpha modulo p, by the chain recurrence over the
    descents whose digits are bounded by those of n, on alpha or on its
    complement, whichever has fewer descents.

    For families B and D with p = 2 every first-step weight is a positive
    power of 2, so every chain vanishes and the answer is 1: every ribbon
    number there is odd.
    """
    alpha = _check_index(family, alpha).fewer_descents()
    check_prime(p)
    return chain_mod_p(family, alpha.n, alpha.descents(), p)


# ---------------------------------------------------------------------------
# brute-force group oracles


class SignedPermutation(_Record):
    """A signed permutation of [n], stored by its window w(1), ..., w(n).

    The empty window is the one element of the trivial group B_0, and its
    type-B descent set is empty; type D needs n >= 2.  A frozen record:
    copies and pickles rebuild through the window check."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(abs(v) for v in images) != list(range(1, n + 1)) or 0 in images:
            raise ValueError(f"not a signed permutation window: {images}")
        _Record.__init__(self, images)

    @property
    def n(self) -> int:
        return len(self.images)

    def negatives(self) -> int:
        return sum(1 for v in self.images if v < 0)

    def is_even(self) -> bool:
        """Whether this element lies in the type-D subgroup."""
        return self.negatives() % 2 == 0

    def descent_set(self, family: str) -> tuple[int, ...]:
        """The descent positions in {0, ..., n-1}, ascending; empty for the
        empty window in type B."""
        if family not in ("B", "D"):
            raise ValueError("signed-permutation descents are defined for families B and D")
        if family == "D" and self.n < 2:
            raise ValueError("type D needs n >= 2")
        return PseudoComposition.from_mask(self.n, _signed_descent_mask(self.images, family)).descents()


def _signed_descent_mask(w: tuple[int, ...], family: str) -> int:
    # Position 0 compares against w(0) := 0 in type B and w(0) := -w(2) in type D.
    if family == "B":
        mask = 1 if w and w[0] < 0 else 0
    else:
        mask = 1 if -w[1] > w[0] else 0
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            mask |= 1 << i
    return mask


def _descent_bits(w) -> int:
    # bit i: w[i] > w[i + 1]
    mask = 0
    bit = 1
    prev = w[0]
    for v in w[1:]:
        if prev > v:
            mask |= bit
        bit <<= 1
        prev = v
    return mask


def _type_a_mask_counts(n: int) -> dict[int, int]:
    """How many permutations of [n] have each type-A descent mask (bit i - 1:
    w(i) > w(i + 1)), by the coset tally of ``oracle_descent_class_sizes``."""
    k = min(n, (n + 3) // 2)
    m = n - k
    counts: dict[int, int] = {}
    if not m:
        for w in permutations(range(n)):
            mask = _descent_bits(w)
            counts[mask] = counts.get(mask, 0) + 1
        return counts
    suffixes: dict[tuple[int, int], int] = {}
    for s in permutations(range(k)):
        key = (s[0], _descent_bits(s) << m)
        suffixes[key] = suffixes.get(key, 0) + 1
    prefixes: dict[tuple[int, int], int] = {}
    for w in permutations(range(n), m):
        last = w[-1]
        key = (_descent_bits(w), last - sum(map(last.__gt__, w)))
        prefixes[key] = prefixes.get(key, 0) + 1
    boundary = 1 << m >> 1
    for (head, c), count in prefixes.items():
        below = head | boundary
        for (f, tail), tally in suffixes.items():
            mask = (below if f < c else head) | tail
            counts[mask] = counts.get(mask, 0) + count * tally
    return counts


def oracle_descent_class_sizes(family: str, n: int) -> dict[Composition | PseudoComposition, int]:
    """Descent-class sizes by counting every group element once, keyed by the
    index (Composition in type A, PseudoComposition in types B and D) whose
    descent set the class has.

    Family A counts each permutation once by its parabolic factorisation
    w = w^J w_J, with W_J the permutations of the last k = min(n, (n + 3) // 2)
    positions (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.4.4).
    A suffix table tallies S_k by first value f and descent mask.  The
    ordered (n - k)-prefixes are tallied by descent mask and by c, the number
    of values left for the suffix that lie below the prefix's last value, so
    the boundary descent holds exactly when f < c; each (prefix mask, c) pair
    adds its count times each suffix count.  For n <= 3, k = n leaves no
    prefix, and S_n is tallied by descent mask alone.

    Types B and D use W(B_n) = {sign patterns} x S_n (D keeps the even
    patterns): the signed window with absolute values a_1, ..., a_n and sign
    pattern ``neg`` has its descents fixed by ``neg`` and the type-A descents
    of a, so each sign pattern maps every type-A mask, with its count, to one
    signed mask by bit operations.  Adjacent entries ±a, ±b: (+, -) is always
    a descent, (-, +) never, (+, +) iff a > b and (-, -) iff a < b.  Position
    0 compares w(1) with w(0) = 0 in type B and with w(0) = -w(2) in type D
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1-8.2).
    """
    check_family(family)
    lo = 2 if family == "D" else 1
    if not lo <= n <= ORACLE_MAX_N[family]:
        raise CapacityError(
            f"oracle budget for family {family} is {lo} <= n <= {ORACLE_MAX_N[family]}"
        )
    base = _type_a_mask_counts(n)
    if family == "A":
        return {Composition.from_mask(n, mask): c for mask, c in base.items()}
    low = (1 << (n - 1)) - 1
    counts: dict[int, int] = {}
    for neg in range(1 << n):  # bit j set: entry j + 1 is negative
        if family == "D" and neg.bit_count() % 2:
            continue
        nxt = neg >> 1  # bit j: the sign of entry j + 2
        always = ~neg & nxt & low  # (+, -)
        keep = ~(neg ^ nxt) & low  # equal signs: the type-A bit, flipped if both are -
        flip = neg & keep
        # position 0 reads bit 0 of d the same way: (d & keep0) ^ set0
        if family == "B" or not (neg ^ nxt) & 1:
            # w(1) < 0 in type B; w(1) + w(2) < 0 with equal signs in type D
            keep0, set0 = 0, neg & 1
        else:
            # (+, -) iff a < b, (-, +) iff a > b
            keep0, set0 = 1, nxt & 1
        for d, c in base.items():
            mask = (always | (d & keep) ^ flip) << 1 | (d & keep0) ^ set0
            counts[mask] = counts.get(mask, 0) + c
    return {PseudoComposition.from_mask(n, mask): c for mask, c in counts.items()}
