"""The command line's bytes depend on argv and NIM_TRIPLE_MAX_K alone.

The whole golden battery of ``tools/golden.py`` runs under a narrow and a
wide ``COLUMNS`` and under interpreter decimal limits of 640 and 0
(unlimited), and each argv must give the exit code, stdout, stderr and
files recorded in ``tests/golden_cli.json``.  Its environment argvs also run
in a pair of child processes, the second under ``LC_ALL=C`` without UTF-8
mode, and both must write the same bytes, all of them ASCII.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize(
    "columns,digits",
    [("30", None), ("200", None), (None, 640), (None, 0)],
    ids=["COLUMNS=30", "COLUMNS=200", "digits=640", "digits=unlimited"],
)
def test_output_ignores_the_terminal_width_and_the_decimal_limit(
    monkeypatch, tmp_path, columns, digits
):
    expected = json.loads(golden.GOLDEN.read_text(encoding="ascii"))
    monkeypatch.delenv("COLUMNS", raising=False)
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
    saved = sys.get_int_max_str_digits()
    if digits is not None:
        sys.set_int_max_str_digits(digits)
    try:
        runs = [golden.record(argv, max_k, str(tmp_path)) for argv, max_k in golden.battery()]
        assert sys.get_int_max_str_digits() == (saved if digits is None else digits)
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(runs) == len(expected)
    assert [i for i, (run, entry) in enumerate(zip(runs, expected)) if run != entry] == []


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
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("PYTHONIOENCODING", "PYTHONUTF8", "COLUMNS", "PYTHONINTMAXSTRDIGITS"):
        env.pop(name, None)
    runs = []
    for flags, extra in (([], {}), (["-X", "utf8=0"], {"LC_ALL": "C"})):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _CHILD],
            input=json.dumps(golden._ENVIRONMENT).encode(),
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
    assert (out + err).isascii()
    assert out.count(b"exit ") == err.count(b"--\n") == len(golden._ENVIRONMENT)
    assert b"'99999999999999999999'...(5000 chars)" in err
