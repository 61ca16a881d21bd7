"""What the golden battery of ``tools/golden.py`` cannot pin about the command line.

The battery records each argv's exit code, stdout, stderr and files, run in
process.  The tests here need more.  One table, ``STREAMS``, holds every case
of a child process whose stdout or stderr fails or is closed, and reads the
bytes it expects from the battery wherever the argv is an entry; the other
tests make a check fail, trace memory, replace a file, or interrupt a render
part way.
"""

import contextlib
import errno
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import nimtriples
from conftest import GOLDEN_ENTRIES, child_env, golden
from nimtriples import render
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


def test_interrupt_exits_130_and_leaves_no_file(capsys, monkeypatch, tmp_path):
    # Ctrl-C between two pieces: no line, the scratch file goes, the target stays as it was
    def pieces(*args):
        yield b"P5\n"
        raise KeyboardInterrupt

    monkeypatch.setattr(render, "_pgm_chunks", pieces)
    target = tmp_path / "grid.pgm"
    target.write_bytes(b"previous render")
    assert run(capsys, "render", "2", "5", "--out", str(target)) == (130, "", "")
    assert target.read_bytes() == b"previous render"
    assert list(tmp_path.iterdir()) == [target]


# A render whose pieces send the process SIGTERM after the first, so nothing depends on timing,
# under the SIGTERM handler of argv[1]; last, the handler in place once main has returned.
_TERMINATED_WRITE = """
import signal, sys
from nimtriples import render
from nimtriples.cli import main
def pieces(*args):
    header, *rest = real(*args)
    yield header
    signal.raise_signal(signal.SIGTERM)
    yield from rest
real, render._pgm_chunks = render._pgm_chunks, pieces
signal.signal(signal.SIGTERM, getattr(signal, sys.argv[1]))
code = main(sys.argv[2:])
print(signal.getsignal(signal.SIGTERM).name)
sys.exit(code)
"""


@pytest.mark.parametrize("handler", ["SIG_DFL", "SIG_IGN"])
def test_sigterm_mid_render_exits_143_where_nothing_else_handles_it(tmp_path, handler):
    target = tmp_path / "grid.pgm"
    target.write_bytes(b"previous render")
    argv = [handler, "render", "6", "5", "--out", str(target)]
    proc = subprocess.run(
        [sys.executable, "-c", _TERMINATED_WRITE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    if handler == "SIG_DFL":  # no scratch file left, and the target as it was
        assert (proc.returncode, proc.stdout, proc.stderr) == (143, "SIG_DFL\n", "")
        assert target.read_bytes() == b"previous render"
    else:  # a handler the caller set is left in place, and here ignores the signal
        out = f"out={target} width=64 height=64\nSIG_IGN\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
        assert target.read_bytes() == render_pgm(6, 5)
    assert list(tmp_path.iterdir()) == [target]


def test_render_in_another_thread_writes_without_a_handler(capsys, tmp_path):
    # only the main thread can set a signal handler, so another thread's render sets none
    target = tmp_path / "grid.pgm"
    codes = []
    argv = ["render", "2", "5", "--out", str(target)]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    assert (codes, capsys.readouterr().err) == ([0], "")
    assert target.read_bytes() == render_pgm(2, 5)


# the battery's entries with NIM_TRIPLE_MAX_K unset, by argv
_BATTERY = {tuple(e["argv"]): e for e in GOLDEN_ENTRIES if e[golden.MAX_K_ENV] is None}
_HELP, _SUM_HELP = _BATTERY["-h",]["stdout"], _BATTERY["sum", "-h"]["stdout"]
_FROG = _BATTERY["sum", "1", "frog"]
_EBADF, _ENOSPC = (
    f"error: cannot write stdout: [Errno {number}] {os.strerror(number)}\n"
    for number in (errno.EBADF, errno.ENOSPC)
)


def _row(argv, fd1, fd2, code, out, err):
    # an id holds no "/", so no part of it reads as a path
    name = "_".join(argv).replace("/", "_")
    return pytest.param(argv, fd1, fd2, code, out, err, id=f"{name}-1={fd1}-2={fd2}")


# Every stream case: the argv; how the child gets fd 1 (a pipe, a pipe whose reader closes it
# after 10 bytes, a read-only file, /dev/full, or closed at start) and fd 2 (a pipe, a
# read-only file, or closed); its exit code; and the exact bytes read from fd 1 and fd 2 after
# any bytes the reader took, None where that fd is no pipe.  Where the argv is a battery
# entry, its bytes are read from it, so a failing stream changes only where they go.
STREAMS = [
    # a stdout that fails: exit 1 with one error line, or none for a reader that closed the
    # pipe; a usage error never writes to stdout, and a render has written its file whole
    _row(("table", "1024"), "pipe-10", "pipe", 1, "", ""),
    *(
        _row(argv, "read-only", "pipe", 1, None, _EBADF)
        for argv in [
            ("sum", "5", "3"),
            ("table", "64"),  # past the 8 KiB buffer, so a buffered write fails before exit
            ("-h",),
            ("sum", "-h"),
            ("render", "1", "0", "--out", "grid.pgm"),
        ]
    ),
    _row(("sum", "1", "frog"), "read-only", "pipe", 2, None, _FROG["stderr"]),
    _row(("sum", "5", "3"), "full", "pipe", 1, None, _ENOSPC),
    _row(("-h",), "full", "pipe", 1, None, _ENOSPC),
    # fd 1 closed at start: sys.stdout is None, print drops its line, and help goes to stderr
    _row(("sum", "5", "3"), "closed", "pipe", 0, None, ""),
    _row(("table", "1025"), "closed", "pipe", 3, None, _BATTERY["table", "1025"]["stderr"]),
    _row(("-h",), "closed", "pipe", 0, None, _HELP),
    _row(("sum", "-h"), "closed", "pipe", 0, None, _SUM_HELP),
    # a stderr that fails, read-only or closed at start: the battery's stdout and exit code,
    # and neither an error line nor a usage line falls back to stdout
    *(
        _row(argv, "pipe", fd2, _BATTERY[argv]["exit"], _BATTERY[argv]["stdout"], None)
        for argv in [
            ("table", "1025"),
            ("mex", "0x100000", "1"),
            ("census", "0"),
            ("render", "2", "5", "--out", "missing/x.pgm"),
            ("sum", "5", "3"),
            ("sum", "1", "frog"),
        ]
        for fd2 in ("read-only", "closed")
    ),
    _row(("-h",), "pipe", "closed", 0, _HELP, None),
    _row(("sum", "-h"), "pipe", "closed", 0, _SUM_HELP, None),
]


def _child(*argv, stdout, stderr, unbuffered, closed, cwd):
    # a buffered stdout keeps the bytes a failed flush could not write and
    # flushes them again at exit; an unbuffered one fails at the first write
    def close_at_start():
        for fd in closed:
            os.close(fd)

    return subprocess.Popen(
        [sys.executable, "-m", "nimtriples", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=child_env(PYTHONUNBUFFERED="1" if unbuffered else None),
        preexec_fn=close_at_start,
        cwd=cwd,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,fd1,fd2,code,out,err", STREAMS)
def test_failing_stream(tmp_path, argv, fd1, fd2, code, out, err, unbuffered):
    if fd1 == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    read_only = [name for name, how in (("out", fd1), ("err", fd2)) if how == "read-only"]
    with contextlib.ExitStack() as opened:

        def stream(how, name):
            if how == "read-only":  # every write to a file opened for reading fails with EBADF
                (tmp_path / name).write_text("")
                return opened.enter_context(open(tmp_path / name))
            if how == "full":  # every write fails with ENOSPC
                return opened.enter_context(open("/dev/full", "w"))
            return None if how == "closed" else subprocess.PIPE

        closed = [fd for fd, how in ((1, fd1), (2, fd2)) if how == "closed"]
        streams = dict(stdout=stream(fd1, "out"), stderr=stream(fd2, "err"))
        proc = opened.enter_context(
            _child(*argv, **streams, unbuffered=unbuffered, closed=closed, cwd=tmp_path)
        )
        if fd1 == "pipe-10":  # about 4 MB of table against a reader that stops after 10 bytes
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
        assert (proc.communicate(timeout=60), proc.returncode) == ((out, err), code)
    # the read-only files stay empty, and the working directory holds what the battery's run
    # wrote, or nothing where the argv has no entry
    written = _BATTERY[argv]["files"] if argv in _BATTERY else {}
    left = {path.name: golden._digest(path.read_bytes()) for path in tmp_path.iterdir()}
    assert left == {**dict.fromkeys(read_only, golden._digest(b"")), **written}


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
    # an earlier process with this pid, killed mid-write in this very ns, left its
    # scratch file behind: the write refuses to open it, and makes no x.pgm
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(time, "time_ns", lambda: 7)
    stale = tmp_path / f".{os.getpid()}.7.tmp"
    stale.write_bytes(b"half a render")
    code, out, err = run(capsys, "render", "2", "5", "--out", "x.pgm")
    assert (code, out, err) == (1, "", f"error: cannot write x.pgm: {os.strerror(errno.EEXIST)}\n")
    assert stale.read_bytes() == b"half a render"
    assert list(tmp_path.iterdir()) == [stale]


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
