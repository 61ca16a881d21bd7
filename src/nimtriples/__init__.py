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

# Eager: the function ``census`` shares its submodule's name, and a lazy binding
# would let ``import nimtriples.census`` replace the function with the module.
from .census import CensusReport, census, census_closed_form_check

__version__ = "0.1.0"

__all__ = [
    "CASE_TABLE",
    "CapExceeded",
    "CensusReport",
    "GRAY_LEVELS",
    "MEX_ENUMERATION_CAP",
    "Move",
    "TriangleClass",
    "TriangleClassification",
    "VertexStatus",
    "advise_move",
    "bit",
    "case_table_lookup",
    "census",
    "census_closed_form_check",
    "classification_grid",
    "classify_triangle",
    "classify_vertex",
    "exclusion_set",
    "greedy_minimal_table",
    "mex_oracle",
    "nim_sum",
    "parse_natural",
    "render_pgm",
    "reorder_dominant",
    "require_natural",
    "table_to_text",
    "verify_table_equals_xor",
    "winning_moves",
]

# The home submodule of every other public name, and of each submodule that a
# plain ``import nimtriples`` makes reachable (a submodule is its own home).
# ``__getattr__`` imports it on first use, so a CLI command loads only the
# modules it runs.
_HOMES = {
    "_kernel": "_kernel",
    "advisor": "advisor",
    "Move": "advisor",
    "advise_move": "advisor",
    "winning_moves": "advisor",
    "limits": "limits",
    "CapExceeded": "limits",
    "MEX_ENUMERATION_CAP": "limits",
    "mex": "mex",
    "exclusion_set": "mex",
    "greedy_minimal_table": "mex",
    "mex_oracle": "mex",
    "table_to_text": "mex",
    "verify_table_equals_xor": "mex",
    "natural": "natural",
    "bit": "natural",
    "nim_sum": "natural",
    "parse_natural": "natural",
    "require_natural": "natural",
    "render": "render",
    "GRAY_LEVELS": "render",
    "classification_grid": "render",
    "render_pgm": "render",
    "triangles": "triangles",
    "CASE_TABLE": "triangles",
    "TriangleClass": "triangles",
    "TriangleClassification": "triangles",
    "VertexStatus": "triangles",
    "case_table_lookup": "triangles",
    "classify_triangle": "triangles",
    "classify_vertex": "triangles",
    "reorder_dominant": "triangles",
}


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
