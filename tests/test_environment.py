"""The command line's bytes depend on argv and NIM_TRIPLE_MAX_K alone.

The whole golden battery of ``tools/golden.py`` runs twice, under a narrow
``COLUMNS`` with an interpreter decimal limit of 640 and under a wide one with
no limit, and each argv must give the exit code, stdout, stderr and files
recorded in ``tests/golden_cli.json``; ``tests/test_golden_cli.py`` runs it
with neither set.  Its environment argvs also run in a pair of child
processes, the second under ``LC_ALL=C`` without UTF-8 mode, and both must
write the same bytes, all of them ASCII.
"""

import json
import subprocess
import sys

import pytest

from conftest import child_env, golden


@pytest.mark.parametrize(
    "columns,digits",
    [("30", 640), ("200", 0)],
    ids=["COLUMNS=30-digits=640", "COLUMNS=200-digits=unlimited"],
)
def test_output_ignores_the_terminal_width_and_the_decimal_limit(
    monkeypatch, tmp_path, columns, digits
):
    expected = json.loads(golden.GOLDEN.read_text(encoding="ascii"))
    monkeypatch.setenv("COLUMNS", columns)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        runs = [golden.record(argv, max_k, str(tmp_path)) for argv, max_k in golden.battery()]
        assert sys.get_int_max_str_digits() == digits
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
    unset = dict.fromkeys(("PYTHONIOENCODING", "PYTHONUTF8", "COLUMNS", "PYTHONINTMAXSTRDIGITS"))
    runs = []
    for flags, extra in (([], {}), (["-X", "utf8=0"], {"LC_ALL": "C"})):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _CHILD],
            input=json.dumps(golden._ENVIRONMENT).encode(),
            capture_output=True,
            env=child_env(**unset, **extra),
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
