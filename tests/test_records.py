"""The three result records are ``collections.namedtuple``s: tuples with field names.

A winning move, a triangle's classification and a census report each behave
as the plain tuple of their values, and pickle and copy like one.
"""

import pickle

import pytest

from nimtriples import (
    CensusReport,
    Move,
    TriangleClass,
    TriangleClassification,
    VertexStatus,
    advise_move,
    census,
    classify_triangle,
    winning_moves,
)

_L, _S = VertexStatus.LARGE, VertexStatus.SMALL
_CLASSIFICATION = TriangleClassification, ("statuses", "kind", "discriminant")
_MOVE = Move, ("pile", "new_size")

# One row per place that builds a record: advise_move's first and a later pile,
# each of the three moves of winning_moves, and both non-flat kinds.
RECORDS = [
    pytest.param(advise_move([5, 1, 2]), *_MOVE, (0, 3), "Move(pile=0, new_size=3)", id="Move"),
    pytest.param(
        advise_move([5, 1, 2, 8]), *_MOVE, (3, 6), "Move(pile=3, new_size=6)", id="Move-later-pile"
    ),
    *[
        pytest.param(
            move, *_MOVE, (i, size), f"Move(pile={i}, new_size={size})", id=f"winning_moves-{i}"
        )
        for i, (move, size) in enumerate(zip(winning_moves((7, 5, 6)), [3, 1, 2], strict=True))
    ],
    pytest.param(
        classify_triangle(5, 1, 2),
        *_CLASSIFICATION,
        ((_L, _S, _S), TriangleClass.LOOSE, 2),
        "TriangleClassification(statuses=(<VertexStatus.LARGE: 'large'>,"
        " <VertexStatus.SMALL: 'small'>, <VertexStatus.SMALL: 'small'>),"
        " kind=<TriangleClass.LOOSE: 'loose'>, discriminant=2)",
        id="TriangleClassification",
    ),
    pytest.param(
        classify_triangle(7, 5, 6),
        *_CLASSIFICATION,
        ((_L, _L, _L), TriangleClass.TIGHT, 2),
        "TriangleClassification(statuses=(<VertexStatus.LARGE: 'large'>,"
        " <VertexStatus.LARGE: 'large'>, <VertexStatus.LARGE: 'large'>),"
        " kind=<TriangleClass.TIGHT: 'tight'>, discriminant=2)",
        id="TriangleClassification-tight",
    ),
    pytest.param(
        census(2),
        CensusReport,
        ("k", "flat", "tight", "loose"),
        (2, 16, 12, 36),
        "CensusReport(k=2, flat=16, tight=12, loose=36)",
        id="CensusReport",
    ),
]


@pytest.mark.parametrize(("record", "cls", "fields", "values", "text"), RECORDS)
def test_record_is_the_named_tuple_of_its_values(record, cls, fields, values, text):
    assert type(record) is cls
    assert cls._fields == fields
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
    assert repr(record) == text
    assert record == values and tuple(record) == values
    assert hash(record) == hash(values)
    assert record._asdict() == dict(zip(fields, values))
    replaced = record._replace(**{fields[-1]: None})
    assert type(replaced) is cls and replaced == (*values[:-1], None)
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is cls and copied == record
    assert not hasattr(record, "__dict__")


def test_census_report_keeps_its_counts_and_line():
    report = census(2)._replace(flat=1)
    assert report.counts == (1, 12, 36)
    assert report.to_line() == "k=2 flat=1 tight=12 loose=36"
