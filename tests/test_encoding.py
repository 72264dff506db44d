import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.encoding import (
    FitResult,
    MarkingPattern,
    TapeEntry,
    TypeRegistry,
    UnknownTapeKindError,
    codon_count,
    complement,
    default_registry,
    fit,
    flip_end_over_end,
    negative_copy,
    reverse,
    tape_from_json_dict,
    tape_from_kinds,
    tape_to_json_dict,
)

REG = default_registry()
KINDS = REG.kinds


def P(s):
    return MarkingPattern.from_string(s)


@pytest.mark.parametrize("n", [0, -2, 3, 5])
def test_codon_count_rejects_bad_widths(n):
    with pytest.raises(ValueError):
        codon_count(n)


def test_pattern_validation():
    with pytest.raises(ValueError):
        P("1110")
    with pytest.raises(ValueError):
        P("110")
    with pytest.raises(ValueError):
        MarkingPattern((0, 2, 1, 0))
    with pytest.raises(ValueError, match="^pattern bits must be 0 or 1$"):
        P("ab")


def test_complement_and_reverse_are_involutions():
    for kind in KINDS:
        p = REG.pattern(kind)
        assert complement(complement(p)) == p
        assert reverse(reverse(p)) == p
        assert reverse(complement(p)) == complement(reverse(p))


def test_complement_examples():
    assert complement(P("1100")) == P("0011")
    assert complement(P("1010")) == P("0101")
    assert reverse(P("1100")) == P("0011")
    assert reverse(P("1001")) == P("1001")


def test_registry_roles_and_partners():
    assert [REG.role(k) for k in ("G0_", "H__", "L__", "R__", "M1x", "b__")] == [
        "a", "b", "c", "d", "e", "f",
    ]
    by_role = {REG.role(k): k for k in KINDS}
    for x, y in (("a", "f"), ("b", "e"), ("c", "d")):
        kx, ky = by_role[x], by_role[y]
        assert REG.partner(kx) == ky
        assert REG.partner(ky) == kx
        assert complement(REG.pattern(kx)) == REG.pattern(ky)


def test_registry_rebuilt_from_its_own_reads_is_equal():
    again = TypeRegistry({k: (REG.role(k), REG.pattern(k)) for k in REG.kinds})
    # kind order numbers the copier's draws, so the rebuild keeps it
    assert again == REG and again.kinds == REG.kinds
    for k in KINDS:
        assert again.pattern(k) == REG.pattern(k)
        assert again.role(k) == REG.role(k)
        assert again.partner(k) == REG.partner(k)


@pytest.mark.parametrize(
    "text,message",
    [
        ("ab", "pattern bits must be 0 or 1"),
        ("", "pattern width must be positive and even"),
        ("1110", "exactly half the bits must be raised: 1110"),
    ],
    ids=["not-bits", "empty", "unbalanced"],
)
def test_pattern_of_another_shape_is_a_value_error(text, message):
    with pytest.raises(ValueError) as e:
        MarkingPattern.from_string(text)
    assert str(e.value) == message


def test_registry_rejects_unpaired_patterns():
    with pytest.raises(ValueError):
        TypeRegistry(
            {
                "G0_": ("a", P("1100")),
                "H__": ("b", P("1010")),
            }
        )


def test_fit_worked_examples():
    assert fit("b__", False, "G0_") is FitResult.EXACT
    assert fit("G0_", True, "G0_") is FitResult.REVERSED
    assert fit("L__", True, "L__") is FitResult.NO_FIT
    assert fit("H__", False, "G0_") is FitResult.NO_FIT


def test_fit_depends_only_on_relative_flip():
    for ck, sk in itertools.product(KINDS, KINDS):
        for cf, sf in itertools.product([False, True], repeat=2):
            assert fit(ck, cf, sk, sf) is fit(ck, not cf, sk, not sf)


def test_reversed_fit_confined_to_af_and_be():
    # a reversed acceptance puts the candidate where its own complement
    # partner belongs, so the substituted pair is (candidate, partner(slot))
    confusable = {frozenset("af"), frozenset("be")}
    seen = set()
    for ck, sk in itertools.product(KINDS, KINDS):
        for cf in (False, True):
            r = fit(ck, cf, sk)
            if r is FitResult.REVERSED:
                pair = frozenset((REG.role(ck), REG.role(REG.partner(sk))))
                assert pair in confusable
                seen.add(pair)
    assert seen == confusable


def test_exact_fit_is_exactly_the_partner():
    for ck, sk in itertools.product(KINDS, KINDS):
        upright = fit(ck, False, sk)
        assert (upright is FitResult.EXACT) == (REG.partner(sk) == ck)


def _complement_fit(ck, cf, sk, sf, reg):
    """`fit` as the rule states it: the presented pattern against the
    slot pattern's complement."""
    pc = reg.pattern(ck)
    presented = reverse(pc) if cf != sf else pc
    if presented != complement(reg.pattern(sk)):
        return FitResult.NO_FIT
    return FitResult.EXACT if cf == sf or pc.palindromic else FitResult.REVERSED


@st.composite
def _registries(draw):
    """Random balanced patterns of one width, each with its complement, in a
    drawn kind order."""
    width = draw(st.sampled_from([2, 4, 6, 8]))
    codons = [
        "".join(b) for b in itertools.product("01", repeat=width) if b.count("1") == width // 2
    ]
    picks = draw(st.lists(st.sampled_from(codons), min_size=1, unique=True))
    bits = set(picks) | {"".join("10"[int(c)] for c in p) for p in picks}
    kinds = draw(st.permutations(sorted(bits)))
    return TypeRegistry({f"k{p}": (p, P(p)) for p in kinds})


@settings(max_examples=60, deadline=None)
@given(_registries())
def test_fit_agrees_with_complement_rule_on_random_registries(reg):
    for ck, sk in itertools.product(reg.kinds, reg.kinds):
        for cf, sf in itertools.product([False, True], repeat=2):
            assert fit(ck, cf, sk, sf, reg) is _complement_fit(ck, cf, sk, sf, reg)


def test_palindromic_pair_flips_are_exact_not_reversed():
    # c and d cannot be told apart from their flipped selves
    assert fit("R__", True, "L__") is FitResult.EXACT
    assert fit("L__", True, "R__") is FitResult.EXACT


def test_negative_copy_involution():
    tape = tape_from_kinds(
        ["G0_", "H__", "L__", "R__", "M1x", "b__"],
        [False, True, False, True, False, True],
    )
    neg = negative_copy(tape)
    assert [e.kind for e in neg] == ["b__", "M1x", "R__", "L__", "H__", "G0_"]
    assert [e.flipped for e in neg] == [e.flipped for e in tape]
    assert negative_copy(neg) == tape
    assert negative_copy(()) == ()


def test_negative_copy_unknown_kind():
    with pytest.raises(UnknownTapeKindError) as e:
        negative_copy((TapeEntry("Z__"),))
    assert str(e.value) == "kind 'Z__' is not in the type registry"


def test_flip_end_over_end():
    tape = tape_from_kinds(["G0_", "H__"], [False, False])
    flipped = flip_end_over_end(tape)
    assert flipped == (TapeEntry("H__", True), TapeEntry("G0_", True))
    assert flip_end_over_end(flipped) == tape


@pytest.mark.parametrize(
    "kinds,flips,message",
    [
        (["b__", "H__"], [True], "2 kind(s) but 1 flip(s)"),
        (["b__"], [True, False], "1 kind(s) but 2 flip(s)"),
        (["b__"], [], "1 kind(s) but 0 flip(s)"),
    ],
)
def test_tape_from_kinds_refuses_flips_that_do_not_pair_up(kinds, flips, message):
    with pytest.raises(ValueError) as e:
        tape_from_kinds(kinds, flips)
    assert str(e.value) == message
    assert tape_from_kinds(kinds) == tuple(TapeEntry(k) for k in kinds)


def test_tape_json_roundtrip():
    tape = tape_from_kinds(["G0_", "b__"], [True, False])
    assert tape_from_json_dict(tape_to_json_dict(tape)) == tape


@pytest.mark.parametrize(
    "raw",
    [
        [],
        "entries",
        {},
        {"fixtures": []},
        {"entries": {"kind": "G0_"}},
        {"entries": [["zz", True]]},
        {"entries": [{"flipped": True}]},
        {"entries": [{"kind": 3}]},
        # "false" is truthy, and a flip must be a JSON boolean
        *({"entries": [{"kind": "G0_", "flipped": f}]} for f in ("false", "yes", [1], None, 0)),
    ],
)
def test_tape_json_of_another_shape_is_a_value_error(raw):
    with pytest.raises(ValueError):
        tape_from_json_dict(raw)


def test_tape_json_flipped_defaults_to_upright():
    raw = {"entries": [{"kind": "G0_"}, {"kind": "b__", "flipped": True}]}
    assert tape_from_json_dict(raw) == tape_from_kinds(["G0_", "b__"], [False, True])
