import pytest

from nimtriples import (
    CapExceeded,
    _kernel,
    census,
    census_closed_form_check,
    classification_grid,
    render_pgm,
)

WIDTH_CHECKED = [census, census_closed_form_check, classification_grid, render_pgm]


def _no_kernel(*args):
    raise AssertionError("the kernel ran before the cap was checked")


def _refused(monkeypatch, call, **max_k) -> str:
    """The ValueError message of a width-checked ``call`` at k=1, with the kernel blocked."""
    monkeypatch.setattr(_kernel, "pieces", _no_kernel)
    monkeypatch.setattr(_kernel, "count", _no_kernel)
    args = (1,) if call in (census, census_closed_form_check) else (1, 0)
    with pytest.raises(ValueError) as exc:
        call(*args, **max_k)
    return str(exc.value)


@pytest.mark.parametrize("max_k", [-1, 17, True, 2.5, "7", 1 << 40])
@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_max_k_outside_the_ceiling_is_refused_before_any_work(monkeypatch, call, max_k):
    message = _refused(monkeypatch, call, max_k=max_k)
    assert message == f"max_k must be an integer in 0..16, got {max_k!r}"


def test_max_k_range_ends_are_accepted():
    assert census(3, max_k=16).k == 3
    assert census_closed_form_check(2, max_k=16)
    assert classification_grid(3, 5, max_k=16).shape == (8, 8)
    assert render_pgm(0, 0, max_k=0) == b"P5\n1 1\n255\n\xff"
    assert classification_grid(0, 0, max_k=0).shape == (1, 1)
    with pytest.raises(CapExceeded, match=r"^census k=1 exceeds cap 0$"):
        census(1, max_k=0)
    with pytest.raises(CapExceeded, match=r"^census k=1 exceeds cap 0$"):
        census_closed_form_check(1, max_k=0)


def test_max_k_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "2")
    assert census(3, max_k=3).k == 3
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "banana")
    assert render_pgm(1, 0, max_k=1).startswith(b"P5\n2 2\n")


@pytest.mark.parametrize("raw", ["-1", "17", "banana", "", "2.5", "True"])
@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_environment_cap_keeps_its_message(monkeypatch, call, raw):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    message = _refused(monkeypatch, call)
    assert message == f"NIM_TRIPLE_MAX_K must be an integer in 0..16, got {raw!r}"
