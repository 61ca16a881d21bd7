import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nimtriples.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum(capsys):
    code, out, err = run(capsys, "sum", "5", "3")
    assert (code, out, err) == (0, "6\n", "")


def test_sum_accepts_hex_and_binary(capsys):
    code, out, _ = run(capsys, "sum", "0x1f", "0b10")
    assert code == 0
    assert out == "29\n"


def test_sum_json(capsys):
    code, out, _ = run(capsys, "--json", "sum", "5", "3")
    assert code == 0
    assert json.loads(out) == {"value": 6}


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "5", "1", "2")
    assert code == 0
    assert out == "loose j=2 a:large b:small c:small\n"


def test_classify_flat(capsys):
    code, out, _ = run(capsys, "classify", "1", "2", "3")
    assert code == 0
    assert out == "flat a:aligned b:aligned c:aligned\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--json", "classify", "2", "2", "3")
    assert code == 0
    assert json.loads(out) == {
        "class": "tight",
        "j": 1,
        "a": "large",
        "b": "large",
        "c": "large",
    }


def test_reorder(capsys):
    code, out, _ = run(capsys, "reorder", "1", "2", "7")
    assert code == 0
    assert out == "7 1 2 perm=2,0,1\n"


def test_reorder_json(capsys):
    code, out, _ = run(capsys, "--json", "reorder", "1", "2", "7")
    assert code == 0
    assert json.loads(out) == {"triple": [7, 1, 2], "perm": [2, 0, 1]}


def test_mex(capsys):
    code, out, _ = run(capsys, "mex", "2", "3")
    assert (code, out) == (0, "1\n")


def test_mex_cap(capsys):
    code, out, err = run(capsys, "mex", "0x100000", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_table(capsys):
    code, out, _ = run(capsys, "table", "2")
    assert code == 0
    assert out == "0 1\n1 0\n"


def test_table_json(capsys):
    code, out, _ = run(capsys, "--json", "table", "2")
    assert json.loads(out) == {"n": 2, "rows": [[0, 1], [1, 0]]}


def test_table_verify(capsys):
    code, out, _ = run(capsys, "table", "8", "--verify")
    assert code == 0
    assert out == "n=8 xor=ok\n"


@pytest.mark.parametrize("n", [1000, 1024], ids=["padded", "cap"])
def test_table_verify_at_size(capsys, n):
    # 1000 rows are checked against expected rows of width 1024
    code, out, err = run(capsys, "table", str(n), "--verify")
    assert (code, out, err) == (0, f"n={n} xor=ok\n", "")


def test_table_rejects_zero(capsys):
    code, _, err = run(capsys, "table", "0")
    assert code == 2
    assert "error:" in err


def test_move(capsys):
    code, out, _ = run(capsys, "move", "5", "1", "2")
    assert (code, out) == (0, "winning pile=0 new=3\n")


def test_move_losing(capsys):
    code, out, _ = run(capsys, "move", "3", "1", "2")
    assert (code, out) == (0, "no-winning-move\n")


def test_move_json(capsys):
    code, out, _ = run(capsys, "--json", "move", "5", "1", "2")
    assert code == 0
    assert json.loads(out) == {"winning": True, "pile": 0, "new": 3}
    code, out, _ = run(capsys, "--json", "move", "3", "1", "2")
    assert json.loads(out) == {"winning": False}
    code, out, _ = run(capsys, "--json", "move", "2", "2", "3", "--all")
    assert json.loads(out) == {
        "moves": [
            {"pile": 0, "new": 1},
            {"pile": 1, "new": 1},
            {"pile": 2, "new": 0},
        ]
    }


def test_move_all(capsys):
    code, out, _ = run(capsys, "move", "2", "2", "3", "--all")
    assert code == 0
    assert out == (
        "winning pile=0 new=1\n"
        "winning pile=1 new=1\n"
        "winning pile=2 new=0\n"
    )


def test_move_all_losing(capsys):
    code, out, _ = run(capsys, "move", "1", "2", "3", "--all")
    assert (code, out) == (0, "no-winning-move\n")


def test_move_all_requires_three_piles(capsys):
    code, _, err = run(capsys, "move", "1", "2", "--all")
    assert code == 2
    assert "error:" in err


def test_census(capsys):
    code, out, _ = run(capsys, "census", "1")
    assert (code, out) == (0, "k=1 flat=4 tight=1 loose=3\n")


def test_census_closed_form(capsys):
    code, out, _ = run(capsys, "census", "2", "--check-closed-form")
    assert code == 0
    assert out == "k=2 flat=16 tight=12 loose=36 closed-form=ok\n"


def test_census_json(capsys):
    code, out, _ = run(capsys, "--json", "census", "1")
    assert json.loads(out) == {"k": 1, "flat": 4, "tight": 1, "loose": 3}


def test_census_rejects_zero(capsys):
    code, _, err = run(capsys, "census", "0")
    assert code == 2
    assert "error:" in err


def test_census_cap(capsys):
    code, _, err = run(capsys, "census", "99")
    assert code == 3
    assert "error:" in err


def test_census_timing_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "3", "--timing"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_census_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "1")
    code, _, err = run(capsys, "census", "2")
    assert code == 3
    assert "error:" in err


def test_render(capsys, tmp_path):
    target = tmp_path / "grid.pgm"
    code, out, _ = run(capsys, "render", "1", "0", "--out", str(target))
    assert code == 0
    assert out == f"out={target} width=2 height=2\n"
    assert target.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 85, 85, 255])


def test_render_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "grid.pgm"
    code, out, err = run(capsys, "render", "1", "0", "--out", str(target))
    assert code == 1
    assert out == ""
    assert str(target) in err


def test_render_cap(capsys, tmp_path):
    code, _, err = run(capsys, "render", "13", "0", "--out", str(tmp_path / "x.pgm"))
    assert code == 3
    assert "error:" in err


def test_bad_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum", "5", "frog"])
    assert exc.value.code == 2


def test_negative_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum", "5", "--", "-3"])
    assert exc.value.code == 2


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["1_000", "٣", "0x0x5"])
def test_number_outside_the_grammar_is_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["sum", text, "1"])
    assert exc.value.code == 2


LONG_TOKEN = "9" * 4999 + "x"


@pytest.mark.parametrize(
    "argv",
    [["sum", LONG_TOKEN, "1"], [LONG_TOKEN], ["sum", "1", "2", LONG_TOKEN]],
    ids=["operand", "command", "extra"],
)
def test_rejected_long_token_is_echoed_short(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.encode()) < 1000
    assert "99999999999999999999" in err
    assert "999999999999999999999" not in err
    assert "…(5000 chars)" in err


@pytest.mark.parametrize("raw", ["-1", "17", "banana"])
def test_max_k_env_out_of_range_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    code, out, err = run(capsys, "census", "1")
    assert (code, out) == (2, "")
    assert "0..16" in err


def test_max_k_env_range_ends(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "0")
    assert run(capsys, "census", "1")[0] == 3
    assert run(capsys, "render", "0", "0", "--out", str(tmp_path / "dot.pgm"))[0] == 0
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "16")
    assert run(capsys, "census", "1")[0] == 0


_LIMITED_WRITE = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard))
from nimtriples.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_render_failed_write_leaves_existing_file_untouched(tmp_path):
    # the child may write at most 1000 bytes per file, less than the 4107-byte PGM
    target = tmp_path / "grid.pgm"
    target.write_bytes(b"previous render")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_WRITE, "render", "6", "0", "--out", str(target)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"cannot write {target}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert target.read_bytes() == b"previous render"
    assert list(tmp_path.iterdir()) == [target]


def _child(*argv, stdout, stderr=subprocess.PIPE, unbuffered=False, preexec_fn=None, cwd=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # a buffered stdout keeps the bytes a failed flush could not write and
    # flushes them again at exit; an unbuffered one fails at the first write
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "nimtriples", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
        cwd=cwd,
    )


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_1_quietly(unbuffered):
    # about 4 MB of table against a reader that stops after 10 bytes
    with _child("table", "1024", stdout=subprocess.PIPE, unbuffered=unbuffered) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""


def _assert_one_error_line(proc, err):
    assert proc.returncode == 1
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("sum", "1", "2"), ("table", "64")])
def test_read_only_stdout_exits_1_with_one_error_line(tmp_path, argv, unbuffered):
    # every write to a stdout opened for reading fails with EBADF
    (tmp_path / "out").write_text("")
    with open(tmp_path / "out") as read_only:
        proc = _child(*argv, stdout=read_only, unbuffered=unbuffered)
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)
    assert "Bad file descriptor" in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv,code",
    [(("-h",), 1), (("sum", "-h"), 1), (("sum", "1", "frog"), 2)],
    ids=["help", "command-help", "usage-error"],
)
def test_help_and_usage_to_a_read_only_stdout(tmp_path, argv, code, unbuffered):
    # help fails on stdout and exits 1; a usage error writes only to stderr
    (tmp_path / "out").write_text("")
    with open(tmp_path / "out") as read_only:
        proc = _child(*argv, stdout=read_only, unbuffered=unbuffered)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    if code == 1:
        _assert_one_error_line(proc, err)
    else:
        assert "invalid parse_natural value: 'frog'" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_stdout_exits_1_with_one_error_line(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _child("sum", "1", "2", stdout=full, unbuffered=unbuffered)
        _, err = proc.communicate(timeout=60)
    _assert_one_error_line(proc, err)


def test_closed_stdout_fd_exits_0_quietly():
    # started with fd 1 closed, the interpreter sets sys.stdout to None and
    # print drops its line
    proc = _child("sum", "1", "2", stdout=None, preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("stderr", ["read-only", "closed"])
@pytest.mark.parametrize(
    "argv,code,out",
    [
        (("table", "1025"), 3, ""),
        (("mex", "0x100000", "1"), 3, ""),
        (("census", "0"), 2, ""),
        (("render", "2", "0", "--out", "missing/x.pgm"), 1, ""),
        (("sum", "1", "2"), 0, "3\n"),
        (("sum", "1", "frog"), 2, ""),
    ],
    ids=["table-cap", "mex-cap", "census-zero", "render-unwritable", "sum", "usage-error"],
)
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, code, out, stderr, unbuffered):
    # a read-only stderr fails every write with EBADF, and a buffered one
    # would fail again in the flush at exit; with fd 2 closed at start-up
    # sys.stderr is None, and neither an error line nor a usage line may
    # fall back to stdout
    (tmp_path / "err").write_text("")
    with open(tmp_path / "err") as read_only:
        proc = _child(
            *argv,
            stdout=subprocess.PIPE,
            stderr=read_only if stderr == "read-only" else None,
            unbuffered=unbuffered,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
            cwd=tmp_path,
        )
        stdout, _ = proc.communicate(timeout=60)
    assert (proc.returncode, stdout) == (code, out)
    assert (tmp_path / "err").read_text() == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["err"]


@pytest.mark.parametrize("argv", [("-h",), ("sum", "-h")], ids=["help", "command-help"])
def test_help_with_fd_2_closed_goes_to_stdout(argv):
    expected, _ = _child(*argv, stdout=subprocess.PIPE).communicate(timeout=60)
    assert expected.startswith("usage: nimtriples")
    proc = _child(*argv, stdout=subprocess.PIPE, stderr=None, preexec_fn=lambda: os.close(2))
    out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, expected)


@pytest.mark.parametrize(
    "argv,text,payload",
    [
        (
            ["table", "8", "--verify"],
            "n=8 xor=mismatch at=2,3",
            {"n": 8, "xor": "mismatch", "at": [2, 3]},
        ),
        (
            ["census", "2", "--check-closed-form"],
            "k=2 flat=16 tight=12 loose=36 closed-form=mismatch",
            {"k": 2, "flat": 16, "tight": 12, "loose": 36, "closed_form": "mismatch"},
        ),
    ],
    ids=["table", "census"],
)
def test_failed_check_prints_its_verdict_and_exits_1(capsys, monkeypatch, argv, text, payload):
    # neither check can fail on correct code, so both are made to fail here
    monkeypatch.setattr("nimtriples.cli.verify_table_equals_xor", lambda rows: (False, (2, 3)))
    monkeypatch.setattr("nimtriples.cli.census_closed_form_check", lambda k: False)
    assert run(capsys, *argv) == (1, text + "\n", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, json.loads(out), err) == (1, payload, "")


def test_render_replaces_existing_file(capsys, tmp_path):
    target = tmp_path / "grid.pgm"
    target.write_bytes(b"previous render")
    code, _, _ = run(capsys, "render", "1", "0", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 85, 85, 255])
    assert list(tmp_path.iterdir()) == [target]


# 16000 bits, about 4817 decimal digits: past the interpreter's default limit of 4300
WIDE = "0x" + "f" * 4000
DECIMAL_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < DECIMAL_LIMIT < 4817, reason="the interpreter prints 16000 bits")
@pytest.mark.parametrize(
    "argv",
    [
        ["sum", WIDE, "1"],
        ["--json", "sum", WIDE, "1"],
        ["reorder", WIDE, "1", "2"],
        ["move", WIDE, WIDE, "1"],
        ["move", WIDE, WIDE, "1", "--all"],
        ["--json", "move", WIDE, WIDE, "1", "--all"],
    ],
)
def test_output_too_wide_for_decimal_is_a_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    assert "16000 bits" in err
    assert f"{DECIMAL_LIMIT}-digit" in err


def test_wide_operands_with_a_short_result_still_print(capsys):
    assert run(capsys, "sum", WIDE, WIDE) == (0, "0\n", "")
    code, out, _ = run(capsys, "classify", WIDE, "1", "2")
    assert (code, out) == (0, "loose j=15999 a:large b:small c:small\n")
    code, out, _ = run(capsys, "move", WIDE, "1", "2")
    assert (code, out) == (0, "winning pile=0 new=3\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", WIDE],
        ["table", WIDE],
        ["mex", WIDE, "1"],
        ["render", WIDE, "0", "--out", "unused.pgm"],
    ],
)
def test_wide_operand_past_a_cap_is_named_by_width(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "<16000-bit number>" in err
    assert "Exceeds the limit" not in err


def test_table_cap(capsys):
    code, out, err = run(capsys, "table", "1025")
    assert (code, out) == (3, "")
    assert err == "error: table n=1025 exceeds cap 1024\n"


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ nimtriples "):
            examples.append((shlex.split(line, comments=True)[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_every_command():
    commands = {argv[0] for argv, _ in README_EXAMPLES}
    assert commands == {"sum", "classify", "reorder", "mex", "table", "move", "census", "render"}


@pytest.mark.parametrize(
    "argv,expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example(capsys, monkeypatch, tmp_path, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out.splitlines(), err) == (0, expected, "")
