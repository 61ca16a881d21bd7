"""Arbitrary-width natural numbers: parsing, bit access, and Nim addition.

Naturals are plain Python ints restricted to values >= 0.  Python's int is
already arbitrary precision with a unique (canonical) representation, so this
module only adds validation, radix handling, the carry-free addition, and
the one rule for echoing a refused value short.
All functions are pure; values are immutable and safe to share.
"""

from collections.abc import Callable

__all__ = ["bit", "nim_sum", "parse_natural", "require_natural"]

# A refusal or a usage error echoes at most this many characters of a string.
_TOKEN_SHOWN = 20


def _token(text: str, show: Callable[[str], str] = repr) -> str:
    """``show(text)``, or its first characters and its length when that is shorter."""
    whole = show(text)
    cut = f"{show(text[:_TOKEN_SHOWN])}...({len(text)} chars)"
    return whole if len(whole) <= len(cut) else cut


def shown(value: int) -> str:
    """``value`` in decimal for a message, or its sign and bit width once it passes 64 bits.

    An operand far past a cap may be too long for the interpreter to print
    in decimal at all, and the message must not fail while it is built.
    """
    bits = value.bit_length()
    return str(value) if bits <= 64 else f"{'-' if value < 0 else ''}<{bits}-bit number>"


def _echo(value) -> str:
    """A refused value, short: a str by ``_token``, an int by ``shown``, an ``int`` subclass
    but bool by its type name around ``shown``, else its repr cut."""
    if isinstance(value, str):
        return _token(value)
    if type(value) is int:
        return shown(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{type(value).__name__}({shown(int.__int__(value))})"
    return _token(repr(value), str)


def require_natural(value) -> int:
    """Return ``value`` if it is a non-negative ``int``; raise ValueError otherwise.

    Only ``int`` itself counts: a bool, an ``int`` subclass, a numpy integer
    or any other object with ``__index__`` is refused, not converted.
    """
    if type(value) is not int:
        raise ValueError(f"not an integer: {_echo(value)}")
    if value < 0:
        raise ValueError(f"not a natural number: {shown(value)}")
    return value


_PREFIX_BASES = {"0x": 16, "0X": 16, "0b": 2, "0B": 2}


def parse_natural(text: str) -> int:
    """Parse a natural number from a decimal, ``0x`` hex, or ``0b`` binary string.

    Surrounding whitespace is ignored.  Signs, ``_`` separators and non-ASCII
    digits are rejected: negative numbers are not representable, and the rest
    is outside the grammar.  Raises ValueError on anything unparseable,
    a value that is not a ``str`` (bytes, an int, None) included.
    """
    s = text.strip() if isinstance(text, str) else ""  # "" fails the grammar below
    base = _PREFIX_BASES.get(s[:2], 10)
    digits = s if base == 10 else s[2:]
    # int() alone would also take a sign, "_" separators, non-ASCII digits,
    # and a space or a second prefix of the same base after the prefix.
    if (
        digits[:1].isalnum()
        and digits.isascii()
        and "_" not in digits
        and _PREFIX_BASES.get(digits[:2]) != base
    ):
        try:
            return int(digits, base)
        except ValueError:
            pass
    raise ValueError(f"not a natural number: {_echo(text)}")


def nim_sum(a: int, b: int) -> int:
    """Carry-free binary addition: digit i of the result is a_i XOR b_i."""
    return require_natural(a) ^ require_natural(b)


def bit(a: int, i: int) -> int:
    """Digit i of a's binary expansion, least significant first.

    Defined for every natural i; positions beyond the top set bit are 0.
    """
    return (require_natural(a) >> require_natural(i)) & 1
