"""Naturals: parsing, the Nim sum, digit access and the short echo of a refused value, and
one table of every natural operand of the library, each refusing every kind of non-natural.
"""

import inspect
import random
import re
from itertools import product

import pytest

import nimtriples
from nimtriples import (
    advise_move,
    bit,
    census,
    census_closed_form_check,
    classification_grid,
    classify_triangle,
    classify_vertex,
    exclusion_set,
    greedy_minimal_table,
    mex_oracle,
    nim_sum,
    parse_natural,
    render_pgm,
    reorder_dominant,
    require_natural,
    winning_moves,
)

from conftest import WIDE, WORD_EDGES, Index, Int, block_kernel, of_width


@pytest.mark.parametrize("value", [12, None, b"12", bytearray(b"12")])
def test_parse_refuses_non_strings(value):
    with pytest.raises(ValueError) as exc:
        parse_natural(value)
    assert str(exc.value) == f"not a natural number: {value!r}"


# every natural under 256, the word edges, and one seeded natural of each width to 300 bits
_rng = random.Random(300)
_NATURALS = [*range(256), *WORD_EDGES, *(of_width(_rng, w) for w in range(1, 301))]


def test_parse_round_trips_decimal():
    for x in _NATURALS:
        assert parse_natural(str(x)) == x, x


def test_parse_round_trips_hex_and_binary():
    for x in _NATURALS:
        assert parse_natural(hex(x)) == parse_natural(bin(x)) == x, x


def test_nim_sum_examples():
    assert nim_sum(0, 5) == 5
    assert nim_sum(13, 13) == 0
    assert nim_sum(5, 3) == 6


def test_nim_sum_wide_disjoint_supports():
    assert nim_sum(1 << 70, 1) == (1 << 70) + 1


def test_require_natural_returns_a_natural_as_is():
    for x in _NATURALS:
        assert require_natural(x) is x, x


# Each public call that takes a natural, with one valid set of arguments: each argument named
# is a natural operand, and a position's operand is its middle pile.
NATURAL_OPERANDS = {
    require_natural: {"value": 5},
    nim_sum: {"a": 5, "b": 6},
    bit: {"a": 5, "i": 2},
    classify_vertex: {"x": 5, "y": 6, "z": 7},
    classify_triangle: {"a": 5, "b": 6, "c": 7},
    reorder_dominant: {"a1": 5, "a2": 6, "a3": 7},
    advise_move: {"piles": [5, 6, 7]},
    winning_moves: {"piles": [5, 6, 7]},
    exclusion_set: {"a": 5, "b": 6},
    mex_oracle: {"a": 5, "b": 6},
    census: {"k": 2},
    census_closed_form_check: {"k": 2},
    greedy_minimal_table: {"n": 2},
    classification_grid: {"k": 2, "fixed_c": 5},
    render_pgm: {"k": 2, "fixed_c": 5},
}

# only int itself is a natural: a bool, an int subclass or an __index__ object is refused, not
# converted; a value past 64 bits is echoed by its sign and width
NON_NATURALS = [
    pytest.param(True, "not an integer: True", id="True"),
    pytest.param(False, "not an integer: False", id="False"),
    pytest.param(-1, "not a natural number: -1", id="-1"),
    pytest.param(2.0, "not an integer: 2.0", id="2.0"),
    pytest.param("2", "not an integer: '2'", id="str"),
    pytest.param(None, "not an integer: None", id="None"),
    pytest.param(Index(), "not an integer: Index()", id="Index"),
    pytest.param(Int(3), "not an integer: Int(3)", id="Int"),
    pytest.param(-WIDE, "not a natural number: -<16000-bit number>", id="16000-bit-negative"),
]


@pytest.mark.parametrize(("value", "message"), NON_NATURALS)
@pytest.mark.parametrize(
    ("call", "operand"),
    [
        pytest.param(call, operand, id=f"{call.__name__}-{operand}")
        for call, args in NATURAL_OPERANDS.items()
        for operand in args
    ],
)
def test_every_natural_operand_refuses_each_non_natural(monkeypatch, call, operand, value, message):
    block_kernel(monkeypatch)  # so a refusal must come before any grid or sweep
    args = dict(NATURAL_OPERANDS[call])
    args[operand] = [5, value, 7] if operand == "piles" else value
    with pytest.raises(ValueError) as exc:
        call(**args)
    assert str(exc.value) == message


# the parameters of public calls that the table leaves out, each with the reason
NOT_IN_THE_TABLE = {
    ("parse_natural", "text"): "a str, whose grammar test_parse_accepts_exactly_the_grammar holds",
    ("verify_table_equals_xor", "rows"): "a table, not a natural",
    ("table_to_text", "rows"): "a table, not a natural",
    **dict.fromkeys(
        [("case_table_lookup", digit) for digit in ("bit_a", "bit_b", "bit_c")],
        "a binary digit, whose rule test_case_table_rejects_non_digits holds",
    ),
    **dict.fromkeys(
        [(name, "max_k") for name in ("census", "classification_grid", "render_pgm")],
        "a cap, not an operand, whose rule test_limits.py holds",
    ),
}


def test_every_public_parameter_is_in_the_table_or_left_out_with_a_reason():
    # a new public call, or a new parameter of one, cannot skip the table unnoticed
    calls = [getattr(nimtriples, name) for name in nimtriples.__all__]
    parameters = {
        (call.__name__, parameter)
        for call in calls
        if inspect.isfunction(call)
        for parameter in inspect.signature(call).parameters
    }
    held = {(call.__name__, operand) for call, args in NATURAL_OPERANDS.items() for operand in args}
    assert sorted(parameters) == sorted(held | NOT_IN_THE_TABLE.keys())


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: census("9" * 5000), "not an integer: '99999999999999999999'...(5000 chars)"),
        (
            lambda: require_natural([0] * 100000),
            "not an integer: [0, 0, 0, 0, 0, 0, 0...(300000 chars)",
        ),
        (
            lambda: parse_natural("9" * 5000 + "x"),
            "not a natural number: '99999999999999999999'...(5001 chars)",
        ),
        (lambda: parse_natural(-WIDE), "not a natural number: -<16000-bit number>"),
        (lambda: require_natural(-(1 << 64) + 1), f"not a natural number: {-(1 << 64) + 1}"),
        (lambda: require_natural(Int(WIDE)), "not an integer: Int(<16000-bit number>)"),
    ],
    ids=[
        "census-long-str", "require-long-list", "parse-long", "parse-wide-int",
        "64-bit-negative", "wide-int-subclass",
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


_GRAMMAR = re.compile(r"\s*(?:0[xX]([0-9a-fA-F]+)|0[bB]([01]+)|([0-9]+))\s*")
_ALPHABET = "0123456789abfxXB_+- \t٣５"


def _texts(rng):
    """Every text of up to 2 characters over the alphabet, then 1000 seeded ones of 3 to 12: a
    prefix or none, then characters of the alphabet, of its binary or of its hex digits."""
    yield from ("".join(chars) for size in range(3) for chars in product(_ALPHABET, repeat=size))
    for _ in range(1000):
        head = rng.choice(("", "0x", "0X", "0b", "0B", " "))
        size = rng.randint(3, 12) - len(head)
        yield head + "".join(rng.choices(rng.choice((_ALPHABET, "01", "0123456789abfB")), k=size))


# worked examples: decimal, hex, binary and prefix-like digits, garbage, signs, and digit forms
# outside the grammar
_EXAMPLES = ["0", "42", "  7  ", "0x1f", "0X1F", "0b101", "0B101", "007", "0x0b1", "", "abc"]
_EXAMPLES += ["0x", "0b", "0o7", "1.5", "0xg", "0b2", "-5", "0x-5", "-0b1", "+5", "1-2", "1_000"]
_EXAMPLES += ["0x_1f", "0b1_0", "٣", "５", "1٣", "0x0x5", "0b0b1", "0x 5", "0o17"]


def test_parse_accepts_exactly_the_grammar():
    for text in [*_EXAMPLES, *_texts(random.Random(12))]:
        match = _GRAMMAR.fullmatch(text)
        if match is None:
            with pytest.raises(ValueError):
                parse_natural(text)
        else:
            hex_digits, bin_digits, dec_digits = match.groups()
            base = 16 if hex_digits else 2 if bin_digits else 10
            assert parse_natural(text) == int(hex_digits or bin_digits or dec_digits, base), text
