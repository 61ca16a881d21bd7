"""What the test modules share: the environment a test runs in, the golden battery, the
README, ``needs_numpy``, the kernel block, two non-int probes, the 16000-bit ``WIDE``, and
the naturals that more than one module draws: ``WORD_EDGES``, and ``of_width`` and
``random_entry``, which draw from the caller's ``random.Random`` of constant seed, so each
run checks the same cases.  ``test_acceptance`` and ``test_triangles`` use all three,
``test_natural`` the first two.

``NIM_TRIPLE_MAX_K`` is removed for every test, so a ``main`` run in process
caps census and render at their defaults whatever the shell exports; a test
that needs the variable sets it itself.  ``child_env`` is the one environment
of a child interpreter and ``run_child`` the one way to run one to its end,
``golden`` is ``tools/golden.py``, loaded once, ``GOLDEN_ENTRIES`` the battery
it recorded in ``tests/golden_cli.json``, and ``GOLDEN_BY_ARGV`` its entries
with ``NIM_TRIPLE_MAX_K`` unset, by argv: the battery holds each argv once,
so its entry is the one record of what the argv writes.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
GOLDEN_ENTRIES = json.loads(golden.GOLDEN.read_text(encoding="ascii"))
GOLDEN_BY_ARGV = {tuple(e["argv"]): e for e in GOLDEN_ENTRIES if e[golden.MAX_K_ENV] is None}

README = (ROOT / "README.md").read_text(encoding="utf-8")

try:  # only classification_grid needs numpy, and the tests that build one carry needs_numpy
    import numpy
except ImportError:
    numpy = None
needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy does not import")


class Index:
    """Not an int, but convertible to one through ``__index__``."""

    def __index__(self):
        return 5

    def __repr__(self):
        return "Index()"


class Int(int):
    """An int subclass, refused like any other non-int, whose repr is the int's."""


# the ends of the 64-bit word and of two of them, where a fixed-width sum would wrap
WORD_EDGES = (0, *((1 << w) + d for w in (63, 64, 128) for d in (-1, 0, 1)))

WIDE = (1 << 16000) - 1  # 16000 bits: too long for the interpreter to print in decimal

# entries below 2**10, about the 64-bit word, and far past it
_ENTRY_RANGES = ((0, (1 << 10) + 1), ((1 << 60) - 8, (1 << 66) + 1), (0, (1 << 300) + 1))


def random_entry(rng):
    """A natural drawn from one of three ranges: up to 2**10, about 2**64, and up to 2**300."""
    return rng.randrange(*rng.choice(_ENTRY_RANGES))


def of_width(rng, width):
    """A natural of exactly ``width`` bits."""
    return (1 << (width - 1)) | rng.getrandbits(width - 1)


def _no_kernel(*args):
    raise AssertionError("the kernel ran before the operands were checked")


def block_kernel(monkeypatch):
    """Make the kernel fail the test, so that a refusal must come before any grid or sweep."""
    from nimtriples import _kernel

    monkeypatch.setattr(_kernel, "pieces", _no_kernel)
    monkeypatch.setattr(_kernel, "count", _no_kernel)


def acceptance_block():
    """The lines of the README's acceptance block: the verdicts of one run of the suite."""
    (block,) = re.findall(r"^```\n(acceptance [^`]*)```$", README, re.MULTILINE)
    return block.splitlines()


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("NIM_TRIPLE_MAX_K", raising=False)


def child_env(**changes):
    """This process's environment for a child interpreter that imports the package from src.

    src comes first on ``PYTHONPATH``, and no bytecode is written; each
    keyword sets a variable, or removes it when its value is None.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **changes}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return {name: value for name, value in env.items() if value is not None}


def run_child(*args, env=None, text=True, timeout=60, **options):
    """The finished run of ``sys.executable`` with ``args``, its stdout and stderr captured.

    It runs in ``child_env`` with ``env``'s changes; ``options`` go to
    ``subprocess.run``, such as ``cwd``, ``input`` or ``check``.
    """
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        env=child_env(**(env or {})),
        timeout=timeout,
        **options,
    )
