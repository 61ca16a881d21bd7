import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nimtriples import bit, census, nim_sum, parse_natural, require_natural

naturals = st.integers(min_value=0)


def test_parse_decimal():
    assert parse_natural("0") == 0
    assert parse_natural("42") == 42
    assert parse_natural("  7  ") == 7


def test_parse_hex_and_binary():
    assert parse_natural("0x1f") == 31
    assert parse_natural("0X1F") == 31
    assert parse_natural("0b101") == 5
    assert parse_natural("0B101") == 5


@pytest.mark.parametrize("text", ["", "abc", "0x", "0b", "0o7", "1.5", "0xg", "0b2"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_natural(text)


@pytest.mark.parametrize("text", ["-5", "0x-5", "-0b1", "+5", "1-2"])
def test_parse_rejects_signs(text):
    with pytest.raises(ValueError):
        parse_natural(text)


@pytest.mark.parametrize("value", [12, None, b"12", bytearray(b"12")])
def test_parse_refuses_non_strings(value):
    with pytest.raises(ValueError) as exc:
        parse_natural(value)
    assert str(exc.value) == f"not a natural number: {value!r}"


@given(naturals)
def test_parse_round_trips_decimal(x):
    assert parse_natural(str(x)) == x


@given(naturals)
def test_parse_round_trips_hex_and_binary(x):
    assert parse_natural(hex(x)) == x
    assert parse_natural(bin(x)) == x


def test_nim_sum_examples():
    assert nim_sum(0, 5) == 5
    assert nim_sum(13, 13) == 0
    assert nim_sum(5, 3) == 6


def test_nim_sum_wide_disjoint_supports():
    assert nim_sum(1 << 70, 1) == (1 << 70) + 1


def test_nim_sum_rejects_negatives():
    with pytest.raises(ValueError):
        nim_sum(-1, 3)
    with pytest.raises(ValueError):
        nim_sum(3, -1)


class _Index:
    """Not an int, but convertible to one through ``__index__``."""

    def __index__(self):
        return 5

    def __repr__(self):
        return "_Index()"


class _Int(int):
    """An int subclass, refused like any other non-int, whose repr is the int's."""


def test_require_natural_rejects_non_integers():
    with pytest.raises(ValueError):
        require_natural(1.5)
    with pytest.raises(ValueError):
        require_natural("3")
    # only int itself: integers of other types are refused, not converted
    for value in (_Index(), _Int(5)):
        with pytest.raises(ValueError, match=rf"^not an integer: {re.escape(repr(value))}$"):
            require_natural(value)
    assert require_natural(0) == 0


WIDE_NEGATIVE = -(1 << 16000)  # too long for the interpreter to print in decimal


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: nim_sum(WIDE_NEGATIVE, 0), "not a natural number: -<16001-bit number>"),
        (lambda: census(WIDE_NEGATIVE), "not a natural number: -<16001-bit number>"),
        (lambda: census("9" * 5000), "not an integer: '99999999999999999999'...(5000 chars)"),
        (
            lambda: require_natural([0] * 100000),
            "not an integer: [0, 0, 0, 0, 0, 0, 0...(300000 chars)",
        ),
        (
            lambda: parse_natural("9" * 5000 + "x"),
            "not a natural number: '99999999999999999999'...(5001 chars)",
        ),
        (lambda: parse_natural(WIDE_NEGATIVE), "not a natural number: -<16001-bit number>"),
        (lambda: nim_sum(-5, 0), "not a natural number: -5"),
        (lambda: require_natural(-(1 << 64) + 1), f"not a natural number: {-(1 << 64) + 1}"),
        (lambda: require_natural("7"), "not an integer: '7'"),
        (lambda: require_natural(_Int(1 << 16000)), "not an integer: <16001-bit number>"),
        (lambda: require_natural(_Int(5)), "not an integer: 5"),
    ],
    ids=[
        "nim_sum-wide", "census-wide", "census-long-str", "require-long-list",
        "parse-long", "parse-wide-int", "short-negative", "64-bit-negative", "short-str",
        "wide-int-subclass", "narrow-int-subclass",
    ],
)
def test_refusal_echoes_the_value_short(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_bit_examples():
    assert bit(5, 0) == 1
    assert bit(5, 1) == 0
    assert bit(5, 2) == 1
    assert bit(5, 63) == 0


def test_bit_wide():
    assert bit(1 << 70, 70) == 1
    assert bit(1 << 70, 69) == 0
    assert bit(1 << 70, 71) == 0


def test_bit_rejects_negative_index():
    with pytest.raises(ValueError):
        bit(5, -1)


@pytest.mark.parametrize("index", [True, 2.0, "2", None])
def test_bit_index_must_be_natural(index):
    with pytest.raises(ValueError):
        bit(5, index)


@pytest.mark.parametrize("value", [True, False])
def test_require_natural_rejects_bool(value):
    with pytest.raises(ValueError):
        require_natural(value)
    with pytest.raises(ValueError):
        nim_sum(value, 2)
    with pytest.raises(ValueError):
        nim_sum(2, value)


@pytest.mark.parametrize(
    "text", ["1_000", "0x_1f", "0b1_0", "٣", "５", "1٣", "0x0x5", "0b0b1", "0x 5", "0o17"]
)
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_natural(text)


def test_parse_keeps_prefix_like_hex_digits():
    assert parse_natural("0x0b1") == 0xB1
    assert parse_natural("007") == 7


_GRAMMAR = re.compile(r"\s*(?:0[xX]([0-9a-fA-F]+)|0[bB]([01]+)|([0-9]+))\s*")


@given(st.text(alphabet="0123456789abfxXbB_+- \t٣５", max_size=12))
def test_parse_accepts_exactly_the_grammar(text):
    match = _GRAMMAR.fullmatch(text)
    if match is None:
        with pytest.raises(ValueError):
            parse_natural(text)
    else:
        hex_digits, bin_digits, dec_digits = match.groups()
        if hex_digits is not None:
            expected = int(hex_digits, 16)
        elif bin_digits is not None:
            expected = int(bin_digits, 2)
        else:
            expected = int(dec_digits)
        assert parse_natural(text) == expected
