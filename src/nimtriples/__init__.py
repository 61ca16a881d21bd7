"""Nim addition on natural numbers and everything it forces.

The package covers four connected pieces: carry-free binary addition with
digit access, the large/aligned/small classification of number triples with
its flat/tight/loose taxonomy, the exclusion-set mex characterization of the
Nim sum together with the greedy minimal operation table, and a winning-move
advisor plus a class census built on top, counted per discriminant and
checked by an exhaustive sweep.  Every claim is small enough to verify by
full enumeration, and the test suite does.
"""

from .advisor import Move, advise_move, winning_moves
from .census import CensusReport, census, census_closed_form_check
from .limits import MEX_ENUMERATION_CAP, CapExceeded
from .mex import (
    exclusion_set,
    greedy_minimal_table,
    mex_oracle,
    table_to_text,
    verify_table_equals_xor,
)
from .natural import bit, nim_sum, parse_natural, require_natural
from .render import GRAY_LEVELS, classification_grid, render_pgm
from .triangles import (
    CASE_TABLE,
    TriangleClass,
    TriangleClassification,
    VertexStatus,
    case_table_lookup,
    classify_triangle,
    classify_vertex,
    reorder_dominant,
)

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
