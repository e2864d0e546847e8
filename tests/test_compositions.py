import copy
import pickle
import random
import sys
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from conftest import coarsenings, indices, traced_peak
from ribbonmod import cli, compositions
from ribbonmod.compositions import (
    FAMILIES,
    CapacityError,
    Composition,
    PseudoComposition,
    check_family,
    int_value,
    mask_offset,
    parse_parts,
    text_head,
)
from ribbonmod.coxeter import CoxeterDiagram, IrreducibleType, builtin_diagram
from ribbonmod.cvec import DimensionPVector, cvec_naive, cvec_theorem
from ribbonmod.ribbon import ribbon_exact, ribbon_mod_p


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


@pytest.mark.parametrize("cls", [Composition, PseudoComposition])
def test_index_refusals_write_a_long_int_by_its_bit_length(cls):
    # each constructor's own message, not the interpreter's int -> str
    # limit, for an int of 5001 digits where the caller gave it
    huge = 10**5000
    refusals = (
        (lambda: cls.from_mask(5, huge), "descent mask an int of 16610 bits out of range for n=5"),
        (lambda: cls.from_mask(huge, -1), "descent mask -1 out of range for n=an int of 16610 bits"),
        (lambda: cls((1, -huge)), rf"needs a first part >= {cls.offset} and the rest >= 1, got part 1 = an int of 16610 bits"),
        (lambda: cls.from_descents(-huge, ()), "out of range for n=an int of 16610 bits"),
    )
    for call, message in refusals:
        with pytest.raises(ValueError, match=message):
            call()


def test_mask_offset_by_family():
    # mask_offset reads the family through the one family gate
    assert [mask_offset(f) for f in "ABD"] == [1, 0, 0]
    assert [check_family(f) for f in FAMILIES] == list("ABD")
    assert (Composition.offset, PseudoComposition.offset) == (1, 0)
    for family in ("C", "BD", "a", ""):
        for gate in (mask_offset, check_family):
            with pytest.raises(ValueError, match=r"family must be one of \('A', 'B', 'D'\)"):
                gate(family)


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
    # each part is an int as check_n reads n, a bool refused: no part is
    # rounded, and a text is not read digit by digit
    for cls, parts, got in ((Composition, [2.9, 1.9], "part 0 = 2.9"), (Composition, "12", "part 0 = '1'"),
                            (Composition, [True, 2], "part 0 = True"), (PseudoComposition, (0, 2, False), "part 2 = False"),
                            (Composition, (1, "2"), "part 1 = '2'"), (Composition, "7" * 10**6, "part 0 = '7'")):
        with pytest.raises(ValueError, match=f"needs a first part >= {cls.offset} and the rest >= 1, got {got}$"):
            cls(parts)


def test_enumerate_compositions_small():
    assert {c.parts for c in indices(Composition, 3)} == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    assert [c.parts for c in indices(Composition, 1)] == [(1,)]
    assert sum(1 for _ in indices(Composition, 15)) == 2**14


def test_enumerate_pseudo_compositions_small():
    assert {c.parts for c in indices(PseudoComposition, 2)} == {
        (2,),
        (0, 2),
        (1, 1),
        (0, 1, 1),
    }
    assert {c.parts for c in indices(PseudoComposition, 1)} == {(1,), (0, 1)}
    assert sum(1 for _ in indices(PseudoComposition, 15)) == 2**15


def test_enumeration_is_ascending_mask_order():
    masks = [c.mask for c in indices(Composition, 6)]
    assert masks == sorted(masks)


def test_an_index_of_ten_billion_stays_small():
    # an index holds its descent positions, not an n-bit mask: one part of
    # 10^10 costs what one part of 10 does, and so does the ribbon route
    # (the class of (a, 1) has a elements, and 10^10 = 1 mod 3)
    alpha = Composition((10**10, 1))
    for call, expected in ((lambda: Composition((10**10, 1)), alpha),
                           (lambda: parse_parts("10000000000,1"), alpha),
                           (lambda: Composition.from_descents(10**10 + 1, (10**10,)), alpha),
                           (lambda: Composition.from_mask(10**10 + 1, 1), Composition((1, 10**10))),
                           (lambda: alpha.parts, (10**10, 1)),
                           (lambda: alpha.fewer_descents() is alpha, True),
                           (lambda: len(alpha), 2),
                           (lambda: ribbon_mod_p("A", alpha, 3), 1),
                           (lambda: PseudoComposition((0, 10**10)).descents(), (0,))):
        result, peak = traced_peak(call)
        assert peak < 1 << 20
        assert result == expected


def test_capacity_error_is_written_from_its_budget():
    # the message names the one budget and writes both ints; copies and
    # pickles rebuild it through the constructor
    refusal = CapacityError("cvec.SWEEP_MAX_BITS", 27, 26)
    assert str(refusal) == "cvec.SWEEP_MAX_BITS: the request needs 27; the budget is 26"
    assert repr(refusal) == "CapacityError('cvec.SWEEP_MAX_BITS', 27, 26)"
    assert (refusal.budget, refusal.needed, refusal.cap) == ("cvec.SWEEP_MAX_BITS", 27, 26)
    for copied in (copy.deepcopy(refusal), pickle.loads(pickle.dumps(refusal))):
        assert type(copied) is CapacityError and (str(copied), repr(copied)) == (str(refusal), repr(refusal))
        assert (copied.budget, copied.needed, copied.cap) == ("cvec.SWEEP_MAX_BITS", 27, 26)


def test_int_text_writes_a_long_int_by_its_bit_length():
    # text_head, the one writer of an echoed value: up to 128 bits in
    # decimal, past it by the bit length, so no int past the interpreter's
    # digit limit reaches str(); other values by repr, past 60 characters
    # by the first 60 and the repr's length, and by their type where the
    # repr raises.  A refusal writes its needed and cap past 128 bits as
    # the lower bound 2^(b - 1), in the budget's unit
    assert text_head(2**128 - 1) == str(2**128 - 1)
    assert text_head(-(2**128) + 1) == str(-(2**128) + 1)
    assert text_head(2**128) == "an int of 129 bits"
    assert text_head(-(10**5000)) == "an int of 16610 bits"
    assert (text_head(True), text_head("7"), text_head(2.5)) == ("True", "'7'", "2.5")
    assert text_head([7] * 20) == repr([7] * 20) and len(repr([7] * 20)) == 60
    assert text_head([7] * 10**5) == f"{repr([7] * 21)[:60]}... (300000 characters)"
    assert text_head(b"7" * 10**6) == "b'" + "7" * 58 + "... (1000003 characters)"
    assert (text_head([10**5000]), text_head((2**128,))) == ("a list whose repr raises", repr((2**128,)))
    message = str(CapacityError("compositions.COMPLEMENT_MAX_POSITIONS", 10**5000, 1 << 21))
    assert message == "compositions.COMPLEMENT_MAX_POSITIONS: the request needs 2^16609 or more; the budget is 2097152"
    assert str(CapacityError("cvec.RESULT_BITS_MAX", 2**128 - 1, 2**128)) == (
        f"cvec.RESULT_BITS_MAX: the request needs {2**128 - 1}; the budget is 2^128 or more")


def test_complement_past_its_budget_refused_before_allocating(monkeypatch):
    # tests/test_budgets.py refuses complements of 10^10 positions; with the
    # budget patched to 10, the complement at it is built and one position
    # past it refused
    monkeypatch.setattr(compositions, "COMPLEMENT_MAX_POSITIONS", 10)
    assert Composition((11,)).complement() == Composition((1,) * 11)
    assert PseudoComposition((3, 7)).complement() == PseudoComposition((0, 1, 1, 2) + (1,) * 6)
    for index in (Composition((12,)), PseudoComposition((11,)), PseudoComposition((3, 9))):
        with pytest.raises(CapacityError):
            index.complement()


def test_many_part_index_never_decodes_a_mask(monkeypatch, capsys):
    # 200000 parts build, print and answer both ribbon routes from their
    # positions alone: the mask decoder is never reached
    def refuse(*_):
        raise AssertionError("a mask was decoded")

    monkeypatch.setattr(compositions, "_positions", refuse)
    ones = (1,) * 200000
    alpha, beta = Composition(ones), PseudoComposition((0, *ones))
    assert alpha.parts == ones and len(alpha) == 200000 and beta.parts == (0, *ones)
    for family, index in (("A", alpha), ("B", beta), ("D", beta)):
        assert ribbon_exact(family, index) == 1 and ribbon_mod_p(family, index, 3) == 1
    assert cli.main(["ribbon", "--family", "A", "--alpha", ",".join(["1"] * 200000), "--mod", "3",
                     "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"family": "A", "alpha": [' + ", ".join(['"1"'] * 200000) + '], "value": "1"}\n'


def test_from_descents_merges_repeats_in_any_order():
    assert Composition.from_descents(6, (5, 2, 2, 5)) == Composition((2, 3, 1))
    assert Composition.from_descents(6, [5, 2, 2, 5]).descents() == (2, 5)
    assert PseudoComposition.from_descents(3, iter((2, 0, 0))).parts == (0, 2, 1)
    assert len(PseudoComposition.from_descents(3, (1, 1, 1))) == 2


def test_coarsenings_examples():
    # exactly the subsets of the descent set {1, 3}
    got = {c.parts for c in coarsenings(Composition((1, 2, 1)))}
    assert got == {(4,), (1, 3), (3, 1), (1, 2, 1)}
    assert [c.parts for c in coarsenings(Composition((5,)))] == [(5,)]
    got = {c.parts for c in coarsenings(PseudoComposition((0, 1, 1)))}
    assert got == {(2,), (0, 2), (1, 1), (0, 1, 1)}


def test_coarsening_counts():
    for alpha in indices(Composition, 9):
        count = sum(1 for _ in coarsenings(alpha))
        assert count == 1 << (len(alpha) - 1)
    for alpha in indices(PseudoComposition, 7):
        count = sum(1 for _ in coarsenings(alpha))
        assert count == 1 << len(alpha.descents())


def test_descent_bijection_exhaustive():
    for n in range(1, 17):
        seen = set()
        for alpha in indices(Composition, n):
            descents = alpha.descents()
            assert descents not in seen
            seen.add(descents)
            assert Composition.from_descents(n, descents) == alpha
            assert len(alpha) == len(descents) + 1
    for n in range(1, 16):
        for alpha in indices(PseudoComposition, n):
            assert PseudoComposition.from_descents(n, alpha.descents()) == alpha


def test_complement_involution():
    for n in range(1, 13):
        full = (1 << (n - 1)) - 1
        for alpha in indices(Composition, n):
            comp = alpha.complement()
            assert comp.mask == alpha.mask ^ full
            assert comp.complement() == alpha
        for alpha in indices(PseudoComposition, min(n, 10)):
            assert alpha.complement().complement() == alpha


def test_fewer_descents_flips_only_to_a_strictly_smaller_side():
    for n in range(1, 11):
        for alpha in (*indices(Composition, n), *indices(PseudoComposition, n)):
            if 2 * (len(alpha) - 1) > n - alpha.offset:
                assert alpha.fewer_descents() == alpha.complement()
            else:
                assert alpha.fewer_descents() is alpha
    # one descent in 2^25 - 1 positions: the 4 MB complement is never built
    alpha = Composition((1 << 24, 1 << 24))
    same, peak = traced_peak(lambda: alpha.fewer_descents() is alpha)
    assert same and peak < 1 << 20


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
    for text in (12, [1], None, True, 2.5, b"1,2"):
        with pytest.raises(ValueError, match="^malformed composition "):
            parse_parts(text)


# The frozen records share one base: value equality and hash over the
# compared fields, the repr, no __dict__, no assignment or deletion, and
# copies and pickles rebuilt through the constructor.  Each case: (record,
# an equal record built another way, unequal records that hash apart (one
# compared field away first), the compared key, the repr, the field names,
# a payload edit with the constructor message it must raise: bytes at
# protocol 0, then at protocols 2 and 5, and more records whose copies and
# pickles round trip, at those protocols and the default).
RECORDS = {
    "DimensionPVector": lambda: (
        DimensionPVector(family="A", n=4, p=3, counts=(4, 2, 2), method="naive"),
        cvec_theorem("A", 4, 3),  # the method tag is not compared
        (cvec_naive("B", 4, 3),),
        ("A", 4, 3, (4, 2, 2)),
        "DimensionPVector(family='A', n=4, p=3, counts=(4, 2, 2), method='naive')",
        ("family", "n", "p", "counts", "method"),
        ((b"I3\n(", b"I5\n("), (b"K\x03", b"K\x05"), "one entry per residue class"),  # p=5 with 3 counts
        (),
    ),
    "IrreducibleType": lambda: (
        IrreducibleType(family="I", rank=2, m=5),
        IrreducibleType("I", 2, 5),
        (IrreducibleType("I", 2, 7),),
        ("I", 2, 5),
        "IrreducibleType(family='I', rank=2, m=5)",
        ("family", "rank", "m"),
        ((b"I5\nt", b"I2\nt"), (b"K\x05", b"K\x02"), "dihedral types"),  # I2(2)
        (),
    ),
    "CoxeterDiagram": lambda: (
        CoxeterDiagram(generators=(0, 1, 2), edges=((0, 1, 4), (1, 2, 3)), name="B3"),
        builtin_diagram("B3"),
        (builtin_diagram("A3"),),
        ((0, 1, 2), ((0, 1, 4), (1, 2, 3)), "B3"),
        "CoxeterDiagram(generators=(0, 1, 2), edges=((0, 1, 4), (1, 2, 3)), name='B3')",
        ("generators", "edges", "name"),
        ((b"I4\nt", b"I2\nt"), (b"K\x04", b"K\x02"), "edge labels start at 3"),  # a label-2 edge
        (),
    ),
    # the indices compare their offset too, so the two kinds hash apart, and
    # rebuild through from_descents; n = 1 leaves a descent past n - 1.  The
    # extremes round trip too: one part, and 100 parts
    "Composition": lambda: (
        Composition((2, 2)),
        Composition.from_descents(4, (2,)),
        (Composition((1, 3)), PseudoComposition((2, 2))),
        (1, 4, (2,)),
        "Composition(2, 2)",
        ("n", "positions"),
        ((b"(I4\n", b"(I1\n"), (b"K\x04K\x02", b"K\x01K\x02"), "out of range"),
        (Composition((1,)), Composition(range(1, 101))),
    ),
    "PseudoComposition": lambda: (
        PseudoComposition((0, 2, 1)),
        PseudoComposition.from_mask(3, 0b101),
        (PseudoComposition((2, 1)),),
        (0, 3, (0, 2)),
        "PseudoComposition(0, 2, 1)",
        ("n", "positions"),
        ((b"(I3\n", b"(I1\n"), (b"K\x03K\x00", b"K\x01K\x00"), "out of range"),
        (PseudoComposition((0,)), PseudoComposition(range(100))),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record, twin, others, compared, text, fields, (text_edit, binary_edit, message), more = RECORDS[name]()
    assert type(record).__name__ == name
    assert record == twin and hash(record) == hash(twin) == hash(compared)
    assert record != compared
    for other in others:
        assert record != other and hash(record) != hash(other)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(others[0], field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == twin and hash(record) == hash(compared) and repr(record) == text
    for original in (record, *more):
        clones = [copy.copy(original), copy.deepcopy(original)]
        clones += [pickle.loads(pickle.dumps(original, protocol)) for protocol in (0, 2, pickle.DEFAULT_PROTOCOL, 5)]
        for clone in clones:
            assert type(clone) is type(original)
            assert clone == original and hash(clone) == hash(original) and repr(clone) == repr(original)
    # a dataclass unpickles without its __post_init__ check; these rebuild
    # through the constructor and refuse the edited payload at every protocol
    for protocol, (old, new) in ((0, text_edit), (2, binary_edit), (5, binary_edit)):
        payload = pickle.dumps(record, protocol)
        assert payload.count(old) == 1
        with pytest.raises(ValueError, match=message):
            pickle.loads(payload.replace(old, new))


def test_int_value_reads_a_text_of_any_length():
    # on both sides of the interpreter's digit limit and of the halving
    # points past it, with a sign and leading zeros, against the CLI's
    # output writer; a text at most the limit long is int()'s alone
    limit = sys.get_int_max_str_digits()
    rng = random.Random(50)
    for digits in (1, limit - 1, limit, limit + 1, 2 * limit, 2 * limit + 1, 4 * limit + 3, 50000):
        x = rng.randrange(10 ** (digits - 1), 10**digits)
        text = cli._decimal(x, {})
        assert len(text) == digits
        for written, value in ((text, x), ("-" + text, -x), ("+" + text, x), ("0" * limit + text, x)):
            assert int_value(written) == value, digits
    for text in (" 12 ", "1_000", "-7", "\u0661\u0662"):
        assert int_value(text) == int(text)


def test_int_value_past_the_limit_takes_ascii_digits_and_quotes_a_short_head():
    limit = sys.get_int_max_str_digits()
    ones = "1" * (limit + 1)
    for text in (ones + "x", " " + ones, "1_" * limit, "\u0661" * (limit + 1), "--" + ones, "-" * (limit + 1)):
        with pytest.raises(ValueError) as excinfo:
            int_value(text)
        message = str(excinfo.value)
        assert message.endswith(f"{text[:60]!r}... ({len(text)} characters)") and len(message) < 150, text[:4]
    assert text_head("1,x") == repr("1,x") and text_head("1" * 60) == repr("1" * 60)
