"""Nim addition on natural numbers and everything it forces.

The package covers four connected pieces: carry-free binary addition with
digit access, the large/aligned/small classification of number triples with
its flat/tight/loose taxonomy, the exclusion-set mex characterization of the
Nim sum together with the greedy minimal operation table, and a winning-move
advisor plus a class census built on top, counted per discriminant and
checked by an exhaustive sweep.  Every claim is small enough to verify by
full enumeration, and the test suite does.
"""

import sys

__version__ = "0.1.0"

# Each home submodule with the public names it defines.  ``__getattr__``
# imports a home on the first use of one of its names or of the submodule
# itself, so ``import nimtriples`` loads no submodule and a CLI command loads
# only the modules it runs.
_EXPORTS = {
    "_census": ("CensusReport", "census", "census_closed_form_check"),
    "_kernel": (),
    "advisor": ("Move", "advise_move", "winning_moves"),
    "limits": ("CapExceeded", "MEX_ENUMERATION_CAP"),
    "mex": (
        "exclusion_set", "greedy_minimal_table", "mex_oracle", "table_to_text",
        "verify_table_equals_xor",
    ),
    "natural": ("bit", "nim_sum", "parse_natural", "require_natural"),
    "render": ("GRAY_LEVELS", "classification_grid", "render_pgm"),
    "triangles": (
        "CASE_TABLE", "TriangleClass", "TriangleClassification", "VertexStatus",
        "case_table_lookup", "classify_triangle", "classify_vertex", "reorder_dominant",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """The public name or submodule ``name``, imported on first use and then cached here."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime lists the submodule
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
