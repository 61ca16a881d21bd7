import numpy as np
import pytest

from nimtriples import (
    GRAY_LEVELS,
    CapExceeded,
    classification_grid,
    classify_triangle,
    render_pgm,
)
from nimtriples.triangles import TriangleClass


def test_grid_k1_c0():
    grid = classification_grid(1, 0)
    assert grid.dtype == np.uint8
    assert grid.tolist() == [[255, 85], [85, 255]]


def test_grid_k1_c1():
    assert classification_grid(1, 1).tolist() == [[85, 255], [255, 170]]


def test_grid_k0():
    assert classification_grid(0, 0).tolist() == [[255]]


def test_gray_levels_are_distinct():
    assert len(set(GRAY_LEVELS.values())) == 3
    assert GRAY_LEVELS[TriangleClass.FLAT] == 255
    assert GRAY_LEVELS[TriangleClass.TIGHT] == 170
    assert GRAY_LEVELS[TriangleClass.LOOSE] == 85


def test_grid_huge_fixed_side_is_all_loose():
    grid = classification_grid(2, 1 << 70)
    assert (grid == 85).all()
    # spot-check the claim against the scalar classifier
    assert classify_triangle(3, 2, 1 << 70).kind is TriangleClass.LOOSE


def test_render_pgm_golden():
    data = render_pgm(1, 0)
    assert data == b"P5\n2 2\n255\n" + bytes([255, 85, 85, 255])


def test_render_pgm_k0():
    assert render_pgm(0, 0) == b"P5\n1 1\n255\n\xff"


def test_render_is_deterministic():
    assert render_pgm(2, 3) == render_pgm(2, 3)


def test_grid_rejects_negative_k():
    with pytest.raises(ValueError):
        classification_grid(-1, 0)


def test_grid_cap():
    with pytest.raises(CapExceeded):
        classification_grid(13, 0)
    with pytest.raises(CapExceeded):
        classification_grid(3, 0, max_k=2)


def test_grid_cap_env_override(monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "2")
    with pytest.raises(CapExceeded):
        classification_grid(3, 0)
    assert classification_grid(2, 0).shape == (4, 4)


@pytest.mark.parametrize("k", [2.0, True, False, -1, "2", None])
def test_render_widths_must_be_naturals(k):
    for call in (classification_grid, render_pgm):
        with pytest.raises(ValueError):
            call(k, 0)


def test_render_width_check_keeps_its_messages(monkeypatch):
    with pytest.raises(CapExceeded, match=r"^render k=13 exceeds cap 12$"):
        render_pgm(13, 0)
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "2")
    with pytest.raises(CapExceeded, match=r"^render k=3 exceeds cap 2$"):
        classification_grid(3, 0)
    assert render_pgm(3, 0, max_k=3).startswith(b"P5\n8 8\n")
