"""The caps, and one check of every capped natural: census, render and check widths, table size."""

from .natural import _echo, require_natural, shown

# The exclusion set holds up to a + b elements; beyond this the oracle refuses
# and the caller should use the direct XOR instead.
MEX_ENUMERATION_CAP = 1 << 20

# The greedy table fills n * (n + 1) / 2 cells in Python and mirrors the rest;
# the README's cap ledger gives the time and memory at n = 1024.
TABLE_MAX_N = 1024

DEFAULT_CENSUS_MAX_K = 7
DEFAULT_RENDER_MAX_K = 12

# A max_k argument moves either cap above, to an integer in 0..MAX_K_CEILING.
# The ceiling bounds render memory (at k=16 a render is already a 4 GiB grid),
# not time; the exhaustive census check has its own cap, CENSUS_CHECK_MAX_K.
MAX_K_CEILING = 16

# The exhaustive census check sweeps 8**k triples; the README's cap ledger
# gives its time at this cap, 8**k = 2**30.
# It is the check's only cap: max_k does not apply.
CENSUS_CHECK_MAX_K = 10

# The command line converts integers to and from decimal up to this many
# digits, whatever the interpreter's own limit (PYTHONINTMAXSTRDIGITS) says;
# 4300 is that limit's default.
DECIMAL_DIGITS = 4300


class CapExceeded(Exception):
    """An enumeration-bounded operation was asked to exceed its cap."""


# By its cap message's name: the operand's name there, wording below the least, least, default cap.
_CAPS = {
    "census": ("k", "bit width", 1, DEFAULT_CENSUS_MAX_K),
    "render": ("k", "bit width", 0, DEFAULT_RENDER_MAX_K),
    "census check": ("k", "bit width", 1, CENSUS_CHECK_MAX_K),
    "table": ("n", "table size", 1, TABLE_MAX_N),
}


def checked(what: str, value: int, max_k: int | None = None) -> int:
    """``value`` as a natural from the least value up to the cap of ``what``.

    ``what`` is a key of _CAPS.  The cap is ``max_k`` when given, else the
    default of ``what``.  Raises ValueError for a ``max_k`` that is not a
    natural up to MAX_K_CEILING, for a non-natural ``value`` or one below
    the least, and CapExceeded for one above the cap.
    """
    name, wording, least, default = _CAPS[what]
    if max_k is None:
        max_k = default
    elif type(max_k) is not int or not 0 <= max_k <= MAX_K_CEILING:
        raise ValueError(f"max_k must be an integer in 0..{MAX_K_CEILING}, got {_echo(max_k)}")
    value = require_natural(value)
    if value < least:
        raise ValueError(f"{wording} must be >= {least}, got {value}")
    if value > max_k:
        raise CapExceeded(f"{what} {name}={shown(value)} exceeds cap {max_k}")
    return value
