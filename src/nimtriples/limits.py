"""Enumeration caps shared by the mex oracle, the greedy table, the census, and the renderer."""

from __future__ import annotations

import os

from .natural import require_natural

# The exclusion set holds up to a + b elements; beyond this the oracle refuses
# and the caller should use the direct XOR instead.
MEX_ENUMERATION_CAP = 1 << 20

# The greedy table fills n * (n + 1) / 2 cells in Python and mirrors the rest;
# n = 1024 takes about 0.35 s on a 2-vCPU VM.
TABLE_MAX_N = 1024

DEFAULT_CENSUS_MAX_K = 7
DEFAULT_RENDER_MAX_K = 12

# Optional override for both bit-width caps above.  It must be an integer in
# 0..MAX_K_CEILING, a memory bound: at k=16 a render is already a 4 GiB grid.
MAX_K_ENV = "NIM_TRIPLE_MAX_K"
MAX_K_CEILING = 16


class CapExceeded(Exception):
    """An enumeration-bounded operation was asked to exceed its cap."""


def shown(value: int) -> str:
    """``value`` in decimal for a cap message, or its bit width once it passes 64 bits.

    An operand far past a cap may be too long for the interpreter to print
    in decimal at all, and the message must not fail while it is built.
    """
    bits = value.bit_length()
    return str(value) if bits <= 64 else f"<{bits}-bit number>"


def _env_max_k() -> int | None:
    raw = os.environ.get(MAX_K_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= MAX_K_CEILING:
        raise ValueError(f"{MAX_K_ENV} must be an integer in 0..{MAX_K_CEILING}, got {raw!r}")
    return value


# The least bit width and the default cap of each width-checked operation.
_WIDTHS = {"census": (1, DEFAULT_CENSUS_MAX_K), "render": (0, DEFAULT_RENDER_MAX_K)}


def checked_width(what: str, k: int, max_k: int | None) -> int:
    """``k`` as a natural bit width from the least width up to the cap of ``what``.

    ``what`` is ``"census"`` or ``"render"``.  The cap is ``max_k`` when given,
    else the ``NIM_TRIPLE_MAX_K`` override, else the default of ``what``.
    Raises ValueError for a non-natural ``k`` or one below the least width,
    and CapExceeded for one above the cap.
    """
    least, default = _WIDTHS[what]
    if max_k is None:
        override = _env_max_k()
        max_k = default if override is None else override
    k = require_natural(k)
    if k < least:
        raise ValueError(f"bit width must be >= {least}, got {k}")
    if k > max_k:
        raise CapExceeded(f"{what} k={shown(k)} exceeds cap {max_k}")
    return k
