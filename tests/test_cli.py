"""What the golden battery of ``tools/golden.py`` cannot pin about the command line.

The battery records each argv's exit code, stdout, stderr and files, run in
process.  The tests here need more: a child process whose stdout or stderr
fails or is closed, a check made to fail, traced memory, a file the render
replaces, and the README's examples.
"""

import errno
import json
import os
import shlex
import stat
import subprocess
import sys
import tracemalloc

import pytest

import nimtriples
from conftest import ROOT, child_env
from nimtriples.cli import main
from nimtriples.render import render_pgm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "k,c", [(k, c) for k in (0, 1, 5, 12) for c in sorted({0, 5 % (1 << k), 1 << k})]
)
def test_render_writes_the_bytes_of_render_pgm(capsys, tmp_path, k, c):
    # c is 0, below 2**k where k > 0, and 2**k
    target = tmp_path / "grid.pgm"
    assert run(capsys, "render", str(k), str(c), "--out", str(target))[0] == 0
    assert target.read_bytes() == render_pgm(k, c)


def test_render_at_its_default_cap_writes_without_joining(capsys, tmp_path):
    # the pieces of a k=12 grid hold about 0.6 MiB; the joined PGM would be 16 MiB
    target = tmp_path / "grid.pgm"
    tracemalloc.start()
    try:
        code = main(["render", "12", "5", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert target.stat().st_size == 4**12 + len(b"P5\n4096 4096\n255\n")
    assert peak < 4**12 // 8


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
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_WRITE, "render", "6", "0", "--out", str(target)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"cannot write {target}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert target.read_bytes() == b"previous render"
    assert list(tmp_path.iterdir()) == [target]


def _child(*argv, stdout, stderr=subprocess.PIPE, unbuffered=False, preexec_fn=None, cwd=None):
    # a buffered stdout keeps the bytes a failed flush could not write and
    # flushes them again at exit; an unbuffered one fails at the first write
    return subprocess.Popen(
        [sys.executable, "-m", "nimtriples", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=child_env(PYTHONUNBUFFERED="1" if unbuffered else None),
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
@pytest.mark.parametrize("fd", [2, 1], ids=["fd-2", "fd-1"])
def test_help_with_one_fd_closed_goes_to_the_other(argv, fd):
    # help goes to stdout, and to stderr when the process started with fd 1
    # closed and sys.stdout is None
    expected, _ = _child(*argv, stdout=subprocess.PIPE).communicate(timeout=60)
    assert expected.startswith("usage: nimtriples")
    stdout, stderr = (subprocess.PIPE, None) if fd == 2 else (None, subprocess.PIPE)
    proc = _child(*argv, stdout=stdout, stderr=stderr, preexec_fn=lambda: os.close(fd))
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out if fd == 2 else err) == (0, expected)


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
    # each command imports its check from the home module when it runs
    monkeypatch.setattr(nimtriples.mex, "verify_table_equals_xor", lambda rows: (False, (2, 3)))
    monkeypatch.setattr(nimtriples._census, "census_closed_form_check", lambda k: False)
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


def test_render_beside_a_stale_scratch_file_leaves_it_as_it_was(capsys, monkeypatch, tmp_path):
    # an earlier process with this pid, killed mid-write, left its scratch file behind
    monkeypatch.chdir(tmp_path)
    stale = tmp_path / f".{os.getpid()}.tmp"
    stale.write_bytes(b"half a render")
    code, out, err = run(capsys, "render", "2", "5", "--out", "x.pgm")
    assert (code, out, err) == (0, "out=x.pgm width=4 height=4\n", "")
    assert (tmp_path / "x.pgm").read_bytes() == render_pgm(2, 5)
    assert stale.read_bytes() == b"half a render"
    assert sorted(path.name for path in tmp_path.iterdir()) == [stale.name, "x.pgm"]


@pytest.mark.parametrize("mode", [0o600, 0o444, 0o751], ids=oct)
def test_render_keeps_the_permission_bits_of_the_file_it_replaces(capsys, tmp_path, mode):
    target = tmp_path / "x.pgm"
    target.write_bytes(b"previous render")
    target.chmod(mode)
    assert run(capsys, "render", "2", "5", "--out", str(target))[0] == 0
    assert target.read_bytes() == render_pgm(2, 5)
    assert stat.S_IMODE(target.stat().st_mode) == mode
    # a new target gets the mode that a plain write gives
    plain, new = tmp_path / "plain", tmp_path / "new.pgm"
    plain.write_bytes(b"")
    assert run(capsys, "render", "2", "5", "--out", str(new))[0] == 0
    assert new.stat().st_mode == plain.stat().st_mode


def test_render_over_a_symlink_replaces_the_link(capsys, tmp_path):
    # the link becomes a regular file with the permission bits of the file it
    # named, and that file is left as it was
    old = tmp_path / "old.pgm"
    old.write_bytes(b"previous render")
    old.chmod(0o640)
    link = tmp_path / "x.pgm"
    link.symlink_to(old)
    assert run(capsys, "render", "2", "5", "--out", str(link))[0] == 0
    assert not link.is_symlink()
    assert link.read_bytes() == render_pgm(2, 5)
    assert stat.S_IMODE(link.stat().st_mode) == 0o640
    assert old.read_bytes() == b"previous render"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["old.pgm", "x.pgm"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_render_into_a_fifo_writes_into_it_in_place(capsys, tmp_path):
    # the read end is open, so opening the write end does not block, and the
    # 2x2 PGM fits in the pipe's buffer; replaced by a file, the FIFO reads as empty
    fifo = tmp_path / "x.pgm"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "render", "1", "0", "--out", str(fifo))[0] == 0
        assert os.read(reader, 1 << 16) == render_pgm(1, 0)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_failed_render_names_only_its_target(capsys, tmp_path):
    # the temporary file's name holds the pid, so the error line leaves it out
    missing = str(tmp_path / "missing" / "x.pgm")
    first = run(capsys, "render", "2", "5", "--out", missing)
    assert first == (1, "", f"error: cannot write {missing}: {os.strerror(errno.ENOENT)}\n")
    assert run(capsys, "render", "2", "5", "--out", missing) == first
    # a directory as the target is not a regular file, so it is opened in
    # place, which fails, and no temporary file is made
    target = tmp_path / "dir"
    target.mkdir()
    code, out, err = run(capsys, "render", "2", "5", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {target}: {os.strerror(errno.EISDIR)}\n"
    assert ".tmp" not in first[2] + err
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_census_check_past_its_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "16")
    monkeypatch.setattr("nimtriples._kernel.count", lambda k: pytest.fail("the sweep ran"))
    refused = "error: census check k=11 exceeds cap 10\n"
    assert run(capsys, "census", "11", "--check-closed-form") == (3, "", refused)
    counted = "k=11 flat=4194304 tight=2146435072 loose=6439305216\n"
    assert run(capsys, "census", "11") == (0, counted, "")


def _readme_examples():
    readme = (ROOT / "README.md").read_text()
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
