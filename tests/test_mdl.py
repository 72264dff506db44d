import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mdl_reference import ref_scan

from chainfold.mdl import (
    KIND_CHARS,
    PARAM_CHARS,
    SEPARATOR_CHARS,
    SIX_TYPE_PROFILE,
    AlphabetProfile,
    MdlError,
    Token,
    TruncatedTokenError,
    UnknownKindError,
    parse_mdl,
    validate,
    write_canonical,
)


def kinds_of(text):
    return [t.canonical for t in parse_mdl(text)]


def test_canonical_tokens():
    assert kinds_of("M1xH__b__b__G1_") == ["M1x", "H__", "b__", "b__", "G1_"]


def test_empty_and_comment_only():
    assert len(parse_mdl("")) == 0
    assert len(parse_mdl("# nothing here\n  \n")) == 0


def test_underscore_separated_style():
    assert kinds_of("b_H_b_b_b_") == ["b__", "H__", "b__", "b__", "b__"]
    assert kinds_of("b_b_b_H_b__") == ["b__", "b__", "b__", "H__", "b__"]


def test_space_separated_style():
    assert kinds_of("b b H b\nH b Z b") == [
        "b__", "b__", "H__", "b__", "H__", "b__", "Z__", "b__",
    ]


def test_juxtaposed_digit_params():
    # digits bind to the preceding kind; a kind letter ends the params
    assert kinds_of("M24b H G2 G2") == ["M24", "b__", "H__", "G2_", "G2_"]
    assert kinds_of("M50M50M50M50R") == ["M50", "M50", "M50", "M50", "R__"]


def test_params_do_not_cross_whitespace():
    # a wrapped line must not donate its first char as a parameter
    assert kinds_of("L_\nL_H_") == ["L__", "L__", "H__"]


def test_numeral_kinds_are_tokens_at_token_start():
    assert kinds_of("b__1__2__") == ["b__", "1__", "2__"]


def test_unknown_kind_position():
    with pytest.raises(UnknownKindError) as e:
        parse_mdl("b_Q_b_")
    assert e.value.position == 2
    assert e.value.char == "Q"


def test_strict_mode():
    assert [t.canonical for t in parse_mdl("b__H__M1x", strict=True)] == [
        "b__", "H__", "M1x",
    ]
    # separators between tokens stay legal in strict mode
    assert len(parse_mdl("b__ H__\n# c\nb__", strict=True)) == 3
    with pytest.raises(TruncatedTokenError):
        parse_mdl("b_H_", strict=True)
    with pytest.raises(TruncatedTokenError):
        parse_mdl("b__H", strict=True)


def test_token_equality_ignores_offset():
    a, b = Token("b", "__", offset=0), Token("b", "__", offset=9)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Token("d", "__", offset=0) and a != ("b", "__", 0)
    assert parse_mdl("b_ b_") == parse_mdl("b__b__")
    # a token is immutable
    for name in ("kind", "params", "offset"):
        with pytest.raises(AttributeError):
            setattr(a, name, "d")


def token_strategy():
    params = st.text(alphabet="0123456789x_", min_size=2, max_size=2)
    return st.builds(Token, kind=st.sampled_from(KIND_CHARS), params=params)


@given(st.lists(token_strategy(), max_size=40))
@settings(max_examples=200)
def test_roundtrip_parse_of_canonical(tokens):
    chain = tuple(tokens)
    assert parse_mdl(write_canonical(chain)) == chain


@given(
    st.lists(token_strategy(), min_size=1, max_size=25),
    st.lists(st.sampled_from([" ", "\n", "_", "\t", "  ", "__"]), min_size=1),
)
@settings(max_examples=200)
def test_separators_between_tokens_are_inert(tokens, seps):
    chain = tuple(tokens)
    text = ""
    for i, t in enumerate(chain):
        text += t.canonical + seps[i % len(seps)]
    assert parse_mdl(text) == chain


def test_profile_matching():
    assert SIX_TYPE_PROFILE.size == 6
    m10 = parse_mdl("M10")[0]
    m40 = parse_mdl("M40")[0]
    assert SIX_TYPE_PROFILE.matches(m10)  # M1x wildcard covers the phase
    assert not SIX_TYPE_PROFILE.matches(m40)
    assert SIX_TYPE_PROFILE.matches(parse_mdl("G0_")[0])
    assert not SIX_TYPE_PROFILE.matches(parse_mdl("G2_")[0])


def test_validate_diagnostics():
    assert validate(parse_mdl("b__"), SIX_TYPE_PROFILE) == []
    codes = [d.code for d in validate(parse_mdl("Z__"), SIX_TYPE_PROFILE)]
    assert codes == ["outside-profile"]
    codes = [d.code for d in validate(parse_mdl("M__"))]
    assert "mover-params" in codes
    for gluer in ("G__", "G7_"):
        assert [d.code for d in validate(parse_mdl(gluer))] == ["gluer-params"]
    assert validate(parse_mdl("G5_")) == []
    codes = [d.code for d in validate(parse_mdl(""))]
    assert codes == ["empty-chain"]


def test_token_fields_face_phase_and_delay():
    chain = parse_mdl("M24 M5_ Mx3 G3_ G7_ d3_ d__ b__")
    assert [(t.face, t.phase, t.delay) for t in chain] == [
        (2, 4, None), (5, None, None), (None, 3, None), (3, None, None),
        (None, None, None), (None, None, 3), (None, None, 10), (None, None, None),
    ]


def test_bad_profile_entry_rejected():
    with pytest.raises(MdlError, match="bad profile entry 'Q__'"):
        AlphabetProfile(("Q__",))


@pytest.mark.parametrize("entry", ["bQQ", "b_Q", "b_", "b___", ""])
def test_profile_entry_needs_two_parameter_characters(entry):
    # an entry outside the token grammar could never match a token
    with pytest.raises(MdlError, match="bad profile entry"):
        AlphabetProfile(("b__", entry))
    # nor can a token be built with that kind and those parameters
    with pytest.raises(MdlError):
        Token(entry[:1], entry[1:])


@pytest.mark.parametrize("kind", ["bd", "", "Q", "b "])
def test_token_kind_is_exactly_one_kind_character(kind):
    # Token("bd", "__") would write "bd__", which parses back as b__, d__
    with pytest.raises(UnknownKindError) as e:
        Token(kind, "__", 7)
    assert (e.value.position, e.value.char) == (7, kind)


# kind, parameter, separator, comment, newline and foreign characters
_SCANNER_CHARS = sorted(set(KIND_CHARS + PARAM_CHARS + SEPARATOR_CHARS + "#\n"))
_SCANNER_TEXT = st.text(st.sampled_from(_SCANNER_CHARS + ["Q", "é", "-", "\x00"]), max_size=40)


@given(_SCANNER_TEXT, st.booleans())
@example("b#\nH", False)
@example("b__#x\nb", True)
@example("b\r\nx", False)
@example("M2", True)
@settings(max_examples=600)
def test_lexeme_pattern_matches_reference_scanner(text, strict):
    try:
        expected = ref_scan(text, strict=strict)
    except MdlError as e:
        with pytest.raises(type(e)) as got:
            parse_mdl(text, strict=strict)
        assert (got.value.position, str(got.value)) == (e.position, str(e))
    else:
        chain = parse_mdl(text, strict=strict)
        assert [(t.kind, t.params, t.offset) for t in chain] == expected


def test_parse_mdl_reads_a_commented_chain_file(tmp_path):
    p = tmp_path / "toy.mdl"
    p.write_text("# toy chain\nb_H_b_b_b_\n")
    assert len(parse_mdl(p.read_text(encoding="utf-8"))) == 5
