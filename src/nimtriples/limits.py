"""Enumeration caps of every operation, and the one check of a bit width against its cap."""

import os

from .natural import _echo, parse_natural, require_natural, shown

# The exclusion set holds up to a + b elements; beyond this the oracle refuses
# and the caller should use the direct XOR instead.
MEX_ENUMERATION_CAP = 1 << 20

# The greedy table fills n * (n + 1) / 2 cells in Python and mirrors the rest;
# the README's cap ledger gives the time and memory at n = 1024.
TABLE_MAX_N = 1024

DEFAULT_CENSUS_MAX_K = 7
DEFAULT_RENDER_MAX_K = 12

# Optional override for both bit-width caps above.  Either cap, from this
# variable or a max_k argument, must be an integer in 0..MAX_K_CEILING.  The
# ceiling bounds render memory (at k=16 a render is already a 4 GiB grid),
# not time; the exhaustive census check has its own cap, CENSUS_CHECK_MAX_K.
MAX_K_ENV = "NIM_TRIPLE_MAX_K"
MAX_K_CEILING = 16

# The exhaustive census check sweeps 8**k triples; the README's cap ledger
# gives its time at this cap, 8**k = 2**30.
# It is the check's only cap: neither max_k nor NIM_TRIPLE_MAX_K applies.
CENSUS_CHECK_MAX_K = 10

# The command line converts integers to and from decimal up to this many
# digits, whatever the interpreter's own limit (PYTHONINTMAXSTRDIGITS) says;
# 4300 is that limit's default.
DECIMAL_DIGITS = 4300


class CapExceeded(Exception):
    """An enumeration-bounded operation was asked to exceed its cap."""


# The least bit width and the default cap of each width-checked operation.
_WIDTHS = {"census": (1, DEFAULT_CENSUS_MAX_K), "render": (0, DEFAULT_RENDER_MAX_K)}


def checked_width(what: str, k: int, max_k: int | None) -> int:
    """``k`` as a natural bit width from the least width up to the cap of ``what``.

    ``what`` is ``"census"`` or ``"render"``.  The cap is ``max_k`` when given,
    else the ``NIM_TRIPLE_MAX_K`` override, read by ``parse_natural`` like a
    numeric argument of the CLI, else the default of ``what``.
    Raises ValueError for a cap from either source that is not a natural up
    to MAX_K_CEILING, for a non-natural ``k`` or one below the least width,
    and CapExceeded for one above the cap.
    """
    least, default = _WIDTHS[what]
    source, given = "max_k", max_k
    if max_k is None:
        source, given = MAX_K_ENV, os.environ.get(MAX_K_ENV)
    if given is None:
        max_k = default
    else:
        try:
            max_k = parse_natural(given) if source == MAX_K_ENV else require_natural(given)
        except ValueError:
            max_k = None
        if max_k is None or max_k > MAX_K_CEILING:
            raise ValueError(
                f"{source} must be an integer in 0..{MAX_K_CEILING}, got {_echo(given)}"
            )
    k = require_natural(k)
    if k < least:
        raise ValueError(f"bit width must be >= {least}, got {k}")
    if k > max_k:
        raise CapExceeded(f"{what} k={shown(k)} exceeds cap {max_k}")
    return k
