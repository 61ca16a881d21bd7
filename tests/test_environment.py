"""The command line's bytes do not depend on the locale.

The environment argvs of ``tools/golden.py`` run in a pair of child
processes, the second under ``LC_ALL=C`` without UTF-8 mode, and both must
write the same bytes, all of them ASCII.  ``tests/test_golden_cli.py``
checks that the terminal width and the interpreter's decimal limit change
no byte either.
"""

import json

from conftest import golden, run_child


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
    feed, runs = json.dumps(golden._ENVIRONMENT).encode(), []
    for flags, extra in (([], {}), (["-X", "utf8=0"], {"LC_ALL": "C"})):
        proc = run_child(
            *flags, "-c", _CHILD, input=feed, env={**unset, **extra}, text=False, cwd=tmp_path,
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
