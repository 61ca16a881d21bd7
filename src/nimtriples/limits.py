"""Enumeration caps shared by the mex oracle, the greedy table, the census, and the renderer."""

from __future__ import annotations

import os

# The exclusion set holds up to a + b elements; beyond this the oracle refuses
# and the caller should use the direct XOR instead.
MEX_ENUMERATION_CAP = 1 << 20

# The greedy table fills n * n cells in Python; n = 1024 takes about 0.6 s.
TABLE_MAX_N = 1024

DEFAULT_CENSUS_MAX_K = 7
DEFAULT_RENDER_MAX_K = 12

# Optional override for both bit-width caps below.  It must be an integer in
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


def census_max_k() -> int:
    """Largest bit width the census accepts (env override wins)."""
    override = _env_max_k()
    return DEFAULT_CENSUS_MAX_K if override is None else override


def render_max_k() -> int:
    """Largest bit width the renderer accepts (env override wins)."""
    override = _env_max_k()
    return DEFAULT_RENDER_MAX_K if override is None else override
