"""The command line's bytes depend on argv and NIM_TRIPLE_MAX_K alone.

A battery of argv runs in the default environment and again under a narrow
and a wide ``COLUMNS``, under interpreter decimal limits of 640 and 0
(unlimited), and, in a pair of child processes, under ``LC_ALL=C`` without
UTF-8 mode.  The exit code, stdout, stderr and the file written must match.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nimtriples.cli import main

WIDE = "0x" + "f" * 4000  # 16000 bits, about 4817 decimal digits
LONG = "9" * 4999 + "x"
COMMANDS = ["sum", "classify", "reorder", "mex", "table", "move", "census", "render"]
BATTERY = [
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    [],
    ["table"],
    ["sum", "1", "frog"],
    ["frobnicate"],
    [LONG],
    ["sum", LONG, "1"],
    ["sum", "1", "2", LONG],
    ["sum", WIDE, "1"],
    ["sum", WIDE, "0"],
    ["--json", "sum", WIDE, "1"],
    ["sum", "1" * 1000, "1"],
    ["sum", "1" * 5000, "1"],
    ["--json", "census", "3", "--check-closed-form"],
    ["render", "2", "5", "--out", "x.pgm"],
    ["render", "2", "5", "--out", "missing/x.pgm"],
]


def _battery(capsys) -> list:
    """(exit code, stdout, stderr, files written) of each argv, run in the current directory."""
    results = []
    for argv in BATTERY:
        code = main(argv)
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in Path.cwd().iterdir()}
        for name in files:
            os.unlink(name)
        results.append((code, out, err, files))
    return results


@pytest.mark.parametrize(
    "columns,digits",
    [("30", None), ("200", None), (None, 640), (None, 0)],
    ids=["COLUMNS=30", "COLUMNS=200", "digits=640", "digits=unlimited"],
)
def test_output_ignores_the_terminal_width_and_the_decimal_limit(
    capsys, monkeypatch, tmp_path, columns, digits
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLUMNS", raising=False)
    expected = _battery(capsys)
    assert all((out + err).isascii() for _, out, err, _ in expected)
    assert [code for code, *_ in expected] == [0] * 9 + [2] * 7 + [3, 3, 3, 0, 2, 0, 0, 1]
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
    saved = sys.get_int_max_str_digits()
    if digits is not None:
        sys.set_int_max_str_digits(digits)
    try:
        assert _battery(capsys) == expected
        assert sys.get_int_max_str_digits() == (saved if digits is None else digits)
    finally:
        sys.set_int_max_str_digits(saved)


_CHILD = """
import json, sys
from nimtriples.cli import main
for argv in json.load(sys.stdin):
    code = main(argv)
    print(f"exit {code}", flush=True)
    print("--", file=sys.stderr, flush=True)
"""


def test_output_ignores_the_locale(tmp_path):
    # under LC_ALL=C without UTF-8 mode stderr is ASCII, and a non-ASCII
    # character would come out as a backslash escape
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("PYTHONIOENCODING", "PYTHONUTF8", "COLUMNS", "PYTHONINTMAXSTRDIGITS"):
        env.pop(name, None)
    runs = []
    for flags, extra in (([], {}), (["-X", "utf8=0"], {"LC_ALL": "C"})):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _CHILD],
            input=json.dumps(BATTERY).encode(),
            capture_output=True,
            env={**env, **extra},
            cwd=tmp_path,
            timeout=120,
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr, (tmp_path / "x.pgm").read_bytes()))
        (tmp_path / "x.pgm").unlink()
    assert runs[0] == runs[1]
    code, out, err, _ = runs[0]
    assert code == 0
    assert out.count(b"exit ") == err.count(b"--\n") == len(BATTERY)
    assert b"'99999999999999999999'...(5000 chars)" in err
