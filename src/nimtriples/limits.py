"""Enumeration caps shared by the mex oracle, the census, and the renderer."""

from __future__ import annotations

import os

# The exclusion set holds up to a + b elements; beyond this the oracle refuses
# and the caller should use the direct XOR instead.
MEX_ENUMERATION_CAP = 1 << 20

DEFAULT_CENSUS_MAX_K = 7
DEFAULT_RENDER_MAX_K = 12

# Optional override for both bit-width caps below.  It must be an integer in
# 0..MAX_K_CEILING, which keeps the kernel's lanes within uint16; at k=16 a
# render is already a 4 GiB grid.
MAX_K_ENV = "NIM_TRIPLE_MAX_K"
MAX_K_CEILING = 16


class CapExceeded(Exception):
    """An enumeration-bounded operation was asked to exceed its cap."""


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
