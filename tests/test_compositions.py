import copy
import pickle
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from ribbonmod.compositions import (
    MAX_DESCENT_N,
    CapacityError,
    Composition,
    PseudoComposition,
    enumerate_compositions,
    enumerate_pseudo_compositions,
    mask_offset,
    parse_parts,
)


def test_descent_set_examples():
    assert Composition((1, 2, 1)).descents() == (1, 3)
    assert PseudoComposition((0, 2)).descents() == (0,)
    assert Composition((7,)).descents() == ()
    assert PseudoComposition((1, 1, 1)).descents() == (1, 2)


def test_from_descents_examples():
    assert Composition.from_descents(4, (1, 3)) == Composition((1, 2, 1))
    assert PseudoComposition.from_descents(3, (0,)) == PseudoComposition((0, 3))
    assert Composition.from_descents(5, ()) == Composition((5,))
    assert Composition.from_descents(6, iter((2, 5))).parts == (2, 3, 1)


def test_descent_positions_out_of_range():
    with pytest.raises(ValueError):
        Composition.from_descents(4, (0,))  # 0 is not a type-A position
    with pytest.raises(ValueError):
        Composition.from_descents(4, (4,))
    with pytest.raises(ValueError):
        PseudoComposition.from_descents(4, (4,))
    with pytest.raises(ValueError):
        PseudoComposition.from_descents(4, (-1,))
    with pytest.raises(ValueError):
        Composition.from_mask(4, 1 << 3)  # bit 3 encodes position 4
    with pytest.raises(ValueError):
        PseudoComposition.from_mask(4, 1 << 4)
    with pytest.raises(ValueError):
        PseudoComposition.from_mask(4, -1)
    with pytest.raises(ValueError):
        Composition.from_mask(4, -1)


def test_mask_offset_by_family():
    assert [mask_offset(f) for f in "ABD"] == [1, 0, 0]
    assert (Composition.offset, PseudoComposition.offset) == (1, 0)
    for family in ("C", "BD", "a", ""):
        with pytest.raises(ValueError):
            mask_offset(family)


def test_mask_below_the_family_minimum_refused():
    # no composition of n <= 0 exists, nor a pseudo-composition of n < 0
    for make in (lambda: Composition.from_mask(-3, 0),
                 lambda: Composition.from_mask(0, 0),
                 lambda: PseudoComposition.from_mask(-1, 0),
                 lambda: Composition.from_descents(-3, ()),
                 lambda: Composition.from_descents(0, ()),
                 lambda: PseudoComposition.from_descents(-1, ())):
        with pytest.raises(ValueError):
            make()
    assert PseudoComposition.from_mask(0, 0) == PseudoComposition((0,))


@given(n=st.integers(min_value=-4, max_value=20), mask=st.integers(min_value=-4, max_value=1 << 21))
def test_every_accepted_mask_is_a_constructor_value(n, mask):
    for cls in (Composition, PseudoComposition):
        try:
            alpha = cls.from_mask(n, mask)
        except ValueError:
            continue
        assert cls(alpha.parts) == alpha


def _compositions(n):
    # every tuple of positive parts summing to n, built without the package
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_descent_positions_agree_with_the_constructors():
    # bit 0 is position 1 in type A and position 0 in types B and D; every
    # route to a mask gives the same one, and the mask gives back the parts
    for n in range(1, 11):
        for parts in _compositions(n):
            for cls, lo, alpha in ((Composition, 1, parts),
                                   (PseudoComposition, 0, parts),
                                   (PseudoComposition, 0, (0,) + parts)):
                descents = tuple(accumulate(alpha[:-1]))
                mask = sum(1 << (d - lo) for d in descents)
                assert cls.from_descents(n, descents).mask == mask
                assert cls(alpha).mask == mask
                assert cls.from_mask(n, mask).parts == alpha


def test_invalid_parts():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        PseudoComposition((1, 0, 1))
    with pytest.raises(ValueError):
        PseudoComposition((-1, 2))
    PseudoComposition((0, 2))  # leading zero is fine here


def test_enumerate_compositions_small():
    assert {c.parts for c in enumerate_compositions(3)} == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    assert [c.parts for c in enumerate_compositions(1)] == [(1,)]
    assert sum(1 for _ in enumerate_compositions(15)) == 2**14


def test_enumerate_pseudo_compositions_small():
    assert {c.parts for c in enumerate_pseudo_compositions(2)} == {
        (2,),
        (0, 2),
        (1, 1),
        (0, 1, 1),
    }
    assert {c.parts for c in enumerate_pseudo_compositions(1)} == {(1,), (0, 1)}
    assert sum(1 for _ in enumerate_pseudo_compositions(15)) == 2**15


def test_enumeration_is_ascending_mask_order():
    masks = [c.mask for c in enumerate_compositions(6)]
    assert masks == sorted(masks)


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_compositions(64))
    with pytest.raises(CapacityError):
        next(enumerate_pseudo_compositions(64))
    with pytest.raises(ValueError):
        next(enumerate_compositions(0))


def test_descent_mask_past_the_budget_refused_before_allocating():
    # one part of 10^10 would make a mask of 10^10 bits (over a GB); n is
    # refused by the one mask check before any n-bit int is built
    calls = [
        lambda: Composition((10**10, 1)),
        lambda: PseudoComposition((0, 10**10)),
        lambda: parse_parts("10000000000,1"),
        lambda: Composition.from_descents(10**10, (1,)),
        lambda: PseudoComposition.from_descents(MAX_DESCENT_N + 1, (0,)),
        lambda: PseudoComposition.from_mask(MAX_DESCENT_N + 1, 1),
        lambda: Composition.from_mask(MAX_DESCENT_N + 2, 1),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert 10**9 + 1 <= MAX_DESCENT_N
    assert PseudoComposition.from_mask(MAX_DESCENT_N, 1).parts == (0, MAX_DESCENT_N)


def _coarsenings(alpha):
    # every composition of alpha's kind whose descent set is a subset of
    # alpha's, in ascending submask order
    sub = 0
    while True:
        yield type(alpha).from_mask(alpha.n, sub)
        if sub == alpha.mask:
            return
        sub = (sub - alpha.mask) & alpha.mask


def test_coarsenings_examples():
    # exactly the subsets of the descent set {1, 3}
    got = {c.parts for c in _coarsenings(Composition((1, 2, 1)))}
    assert got == {(4,), (1, 3), (3, 1), (1, 2, 1)}
    assert [c.parts for c in _coarsenings(Composition((5,)))] == [(5,)]
    got = {c.parts for c in _coarsenings(PseudoComposition((0, 1, 1)))}
    assert got == {(2,), (0, 2), (1, 1), (0, 1, 1)}


def test_coarsening_counts():
    for alpha in enumerate_compositions(9):
        count = sum(1 for _ in _coarsenings(alpha))
        assert count == 1 << (len(alpha) - 1)
    for alpha in enumerate_pseudo_compositions(7):
        count = sum(1 for _ in _coarsenings(alpha))
        assert count == 1 << len(alpha.descents())


def test_descent_bijection_exhaustive():
    for n in range(1, 17):
        seen = set()
        for alpha in enumerate_compositions(n):
            descents = alpha.descents()
            assert descents not in seen
            seen.add(descents)
            assert Composition.from_descents(n, descents) == alpha
            assert len(alpha) == len(descents) + 1
    for n in range(1, 16):
        for alpha in enumerate_pseudo_compositions(n):
            assert PseudoComposition.from_descents(n, alpha.descents()) == alpha


def test_complement_involution():
    for n in range(1, 13):
        full = (1 << (n - 1)) - 1
        for alpha in enumerate_compositions(n):
            comp = alpha.complement()
            assert comp.mask == alpha.mask ^ full
            assert comp.complement() == alpha
        for alpha in enumerate_pseudo_compositions(min(n, 10)):
            assert alpha.complement().complement() == alpha


def test_prefix_sums():
    assert Composition((1, 2, 1)).prefix_sums() == (0, 1, 3, 4)
    assert PseudoComposition((0, 3, 2)).prefix_sums() == (0, 0, 3, 5)


@given(n=st.integers(min_value=1, max_value=20), data=st.data())
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    alpha = Composition.from_mask(n, mask)
    assert sum(alpha.parts) == n
    assert all(a >= 1 for a in alpha.parts)
    assert Composition(alpha.parts) == alpha
    pmask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    beta = PseudoComposition.from_mask(n, pmask)
    assert sum(beta.parts) == n
    assert PseudoComposition(beta.parts) == beta


def test_parse_parts():
    assert parse_parts("1,2,1").parts == (1, 2, 1)
    assert parse_parts("0,2", pseudo=True).parts == (0, 2)
    with pytest.raises(ValueError):
        parse_parts("0,2")
    with pytest.raises(ValueError):
        parse_parts("1,x")
    with pytest.raises(ValueError):
        parse_parts("")


def test_value_semantics():
    assert Composition((2, 2)) == Composition((2, 2))
    assert Composition((2, 2)) != PseudoComposition((2, 2))
    assert hash(Composition((2, 2))) != hash(PseudoComposition((2, 2)))
    assert repr(Composition((1, 2))) == "Composition(1, 2)"
    with pytest.raises(AttributeError):
        Composition((2, 2)).n = 5


def test_copy_and_pickle_round_trip():
    for alpha in (
        PseudoComposition((0,)),
        PseudoComposition((0, 2, 1)),
        Composition((1,)),
        Composition(range(1, 101)),
        PseudoComposition(range(100)),
    ):
        for clone in (copy.copy(alpha), copy.deepcopy(alpha), pickle.loads(pickle.dumps(alpha))):
            assert type(clone) is type(alpha)
            assert clone == alpha and hash(clone) == hash(alpha)
            assert clone.parts == alpha.parts


def test_tampered_pickle_payload_refused():
    # protocol 0 writes n as the text b"I3"; shrinking it to 1 leaves a
    # descent position past n - 1, which the rebuild refuses
    for alpha in (Composition((1, 2)), PseudoComposition((0, 2, 1))):
        payload = pickle.dumps(alpha, 0)
        assert payload.count(b"(I3\n") == 1
        with pytest.raises(ValueError):
            pickle.loads(payload.replace(b"(I3\n", b"(I1\n"))
