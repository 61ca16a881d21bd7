"""What the golden battery of ``tools/golden.py`` cannot pin about the command line.

The battery records each argv's exit code, stdout, stderr and files, run in
process in an empty directory.  Two tables hold what that cannot show, and
``_child`` runs every row of both.  ``STREAMS`` holds every case of a child
whose stdout or stderr fails or is closed, and reads the bytes it expects
from the battery wherever the argv is an entry.  ``TARGETS`` holds every way
``render --out`` can end: each row is a sentence of the README's render
contract, the paragraph on how the PGM is written and the sentences on exit
codes 130 and 143, and gives what ``--out`` names before the run, one
disturbance, the exit code, stdout and stderr, and the whole directory after
the run.  The other tests make a check fail, trace a render's memory, or
interrupt ``python -m nimtriples`` while it imports the command line.
"""

import contextlib
import errno
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

import nimtriples
from conftest import GOLDEN_BY_ARGV, child_env, golden, run_child
from nimtriples.cli import main
from nimtriples.render import render_pgm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert peak < 4**12 // 8
    assert target.read_bytes() == render_pgm(12, 5)


# python -m nimtriples, interrupted while __main__ imports the command line
_INTERRUPTED_IMPORT = """
import runpy, sys
class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == "nimtriples.cli":
            raise KeyboardInterrupt
sys.meta_path.insert(0, Interrupt())
runpy.run_module("nimtriples", run_name="__main__", alter_sys=True)
"""


def test_interrupt_while_the_command_line_imports_exits_130():
    proc = run_child("-c", _INTERRUPTED_IMPORT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "")


_HELP, _SUM_HELP = GOLDEN_BY_ARGV["-h",]["stdout"], GOLDEN_BY_ARGV["sum", "-h"]["stdout"]
_FROG = GOLDEN_BY_ARGV["sum", "1", "frog"]
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
    _row(("table", "1025"), "closed", "pipe", 3, None, GOLDEN_BY_ARGV["table", "1025"]["stderr"]),
    _row(("-h",), "closed", "pipe", 0, None, _HELP),
    _row(("sum", "-h"), "closed", "pipe", 0, None, _SUM_HELP),
    # a stderr that fails, read-only or closed at start: the battery's stdout and exit code,
    # and neither an error line nor a usage line falls back to stdout
    *(
        _row(argv, "pipe", fd2, GOLDEN_BY_ARGV[argv]["exit"], GOLDEN_BY_ARGV[argv]["stdout"], None)
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


def _child(*args, cwd, before, env=None, **streams):
    """The running child ``sys.executable args`` in ``cwd``, in ``child_env`` with ``env``'s
    changes; ``before()`` runs in the child ahead of its exec, so it may close an fd or name
    a file by the child's pid."""
    return subprocess.Popen(
        [sys.executable, *args],
        text=True,
        env=child_env(**(env or {})),
        preexec_fn=before,
        cwd=cwd,
        **streams,
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

        def close_at_start():
            for fd, how in ((1, fd1), (2, fd2)):
                if how == "closed":
                    os.close(fd)

        # a buffered stdout keeps the bytes a failed flush could not write and
        # flushes them again at exit; an unbuffered one fails at the first write
        proc = opened.enter_context(
            _child(
                "-m",
                "nimtriples",
                *argv,
                stdout=stream(fd1, "out"),
                stderr=stream(fd2, "err"),
                env={"PYTHONUNBUFFERED": "1" if unbuffered else None},
                before=close_at_start,
                cwd=tmp_path,
            )
        )
        if fd1 == "pipe-10":  # about 4 MB of table against a reader that stops after 10 bytes
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
        assert (proc.communicate(timeout=60), proc.returncode) == ((out, err), code)
    # the read-only files stay empty, and the working directory holds what the battery's run
    # wrote, or nothing where the argv has no entry
    written = GOLDEN_BY_ARGV[argv]["files"] if argv in GOLDEN_BY_ARGV else {}
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


# The child of every TARGETS row: argv[1] names its one disturbance, and main gets the rest.  An
# interrupt or a SIGTERM comes right after the header, so nothing depends on timing, and the
# SIGTERM handler in place before main runs must be the one in place after it returns.
_LAUNCHER = """
import glob, os, signal, sys, threading, time
from nimtriples import render
from nimtriples.cli import main
how, argv, codes = sys.argv[1], sys.argv[2:], []
if how == "fsize":  # no file may grow past 1000 bytes, and a write past them fails with EFBIG
    import resource
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
elif how == "ns7":
    time.time_ns = lambda: 7
elif how in ("interrupt", "vanish", "SIG_DFL", "SIG_IGN"):
    def pieces(*args):
        header, *rest = real(*args)
        yield header
        if how == "vanish":  # the scratch file is gone before the cleanup would remove it
            for name in glob.glob(f".{os.getpid()}.*.tmp"):
                os.unlink(name)
        if how in ("interrupt", "vanish"):
            raise KeyboardInterrupt
        signal.raise_signal(signal.SIGTERM)
        yield from rest
    real, render._pgm_chunks = render._pgm_chunks, pieces
    if how not in ("interrupt", "vanish"):
        signal.signal(signal.SIGTERM, getattr(signal, how))
handler = signal.getsignal(signal.SIGTERM)
run = lambda: codes.append(main(argv))
if how == "thread":
    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
else:
    run()
if signal.getsignal(signal.SIGTERM) is not handler:
    sys.exit("the SIGTERM handler changed")
sys.exit(codes[0])
"""

_OLD = {"x.pgm": ("file", 0o644, b"previous render")}
_LINKED = {"old.pgm": ("file", 0o640, b"previous render")}


def _written(k, c, mode=0o644):
    return {"x.pgm": ("file", mode, render_pgm(k, c))}


def _said(k):
    return f"out=x.pgm width={1 << k} height={1 << k}\n"


def _refused(number):
    return f"error: cannot write x.pgm: {os.strerror(number)}\n"


def _target(name, before, how, k, c, code, out, err, after=None):
    """A row: the directory before the run, the disturbance, ``render k c --out x.pgm``, its exit
    code, stdout and stderr, and the directory after the run, None where it is as before."""
    after = before if after is None else after
    return pytest.param(before, how, k, c, code, out, err, after, id=name)


# Every way `render --out x.pgm` can end, each row a sentence of the README's render contract;
# the two tests after test_render_target add a regular file replaced, its bytes and bits.  A
# directory maps each name to ("file", mode, bytes), ("link", target), ("fifo", bytes read from
# it) or ("dir", names), and a name may hold the child's {pid}.  The child runs under umask 022,
# so the default mode of a new file is 0o644.
TARGETS = [
    # a failed write leaves any existing file untouched: the 4107-byte PGM passes 1000 bytes
    _target("fsize", _OLD, "fsize", 6, 0, 1, "", _refused(errno.EFBIG)),
    # a scratch file left by an earlier process of the same pid, in the same ns, is never reused
    _target("stale", {".{pid}.7.tmp": ("file", 0o644, b"half a render")}, "ns7", 2, 5, 1, "",
            _refused(errno.EEXIST)),
    # a symlink is replaced by a regular file with the bits of the file it named, left as it was
    _target("symlink", {**_LINKED, "x.pgm": ("link", "old.pgm")}, "none", 2, 5, 0, _said(2), "",
            {**_LINKED, **_written(2, 5, 0o640)}),
    # a dangling symlink is replaced by a file of the default mode, and nothing it names is made
    _target("dangling", {"x.pgm": ("link", "nowhere/t.pgm")}, "none", 1, 0, 0, _said(1), "",
            _written(1, 0)),
    # something that exists and is not a regular file is written into in place, with no scratch
    # file: a FIFO whose reader is open takes the PGM, and a directory refuses it
    _target("fifo", {"x.pgm": ("fifo", b"")}, "none", 1, 0, 0, _said(1), "",
            {"x.pgm": ("fifo", render_pgm(1, 0))}),
    _target("directory", {"x.pgm": ("dir", [])}, "none", 2, 5, 1, "", _refused(errno.EISDIR)),
    # 130 interrupted and 143 terminated while the file is written: no line, no scratch file,
    # and --out as it was
    _target("interrupt", _OLD, "interrupt", 2, 5, 130, "", ""),
    # the same where the scratch file is already gone when the cleanup would remove it
    _target("vanish", _OLD, "vanish", 2, 5, 130, "", ""),
    _target("SIG_DFL", _OLD, "SIG_DFL", 6, 5, 143, "", ""),
    # a SIGTERM handler set before the run stays, here one that ignores the signal
    _target("SIG_IGN", _OLD, "SIG_IGN", 6, 5, 0, _said(6), "", _written(6, 5)),
    # outside the main thread no handler can be set, and the render writes without one
    _target("thread", {}, "thread", 2, 5, 0, _said(2), "", _written(2, 5)),
]


def _listing(directory, readers):
    """Each entry of ``directory`` as a row of TARGETS gives it, a FIFO read from ``readers``."""

    def entry(path):
        mode = path.lstat().st_mode
        if stat.S_ISLNK(mode):
            return "link", os.readlink(path)
        if stat.S_ISFIFO(mode):
            return "fifo", os.read(readers[path.name], 1 << 16)
        if stat.S_ISDIR(mode):
            return "dir", sorted(os.listdir(path))
        return "file", stat.S_IMODE(mode), path.read_bytes()

    return {path.name: entry(path) for path in directory.iterdir()}


def _render_ends(tmp_path, before, how, k, c, code, out, err, after):
    """Run ``render k c --out x.pgm`` in a child as a row of TARGETS gives it, and check the row."""
    def make():  # in the child, so that a name can hold its pid
        os.umask(0o022)
        for name, (kind, *rest) in before.items():
            path = tmp_path / name.format(pid=os.getpid())
            if kind == "file":
                path.write_bytes(rest[1])
                path.chmod(rest[0])
            elif kind == "link":
                path.symlink_to(rest[0])
            elif kind == "fifo":
                os.mkfifo(path)
            else:
                path.mkdir()

    argv = ["-c", _LAUNCHER, how, "render", str(k), str(c), "--out", "x.pgm"]
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with contextlib.ExitStack() as opened:
        proc = opened.enter_context(_child(*argv, before=make, cwd=tmp_path, **pipes))
        # opened without blocking, a FIFO's reader lets the child's open for writing go on
        readers = {}
        for name, (kind, *_) in before.items():
            if kind == "fifo":
                readers[name] = os.open(tmp_path / name, os.O_RDONLY | os.O_NONBLOCK)
                opened.callback(os.close, readers[name])
        assert (proc.communicate(timeout=60), proc.returncode) == ((out, err), code)
        named = {name.format(pid=proc.pid): entry for name, entry in after.items()}
        assert _listing(tmp_path, readers) == named


@pytest.mark.parametrize("before,how,k,c,code,out,err,after", TARGETS)
def test_render_target(tmp_path, before, how, k, c, code, out, err, after):
    _render_ends(tmp_path, before, how, k, c, code, out, err, after)


def test_render_replaces_existing_file(tmp_path):
    pgm = b"P5\n2 2\n255\n" + bytes([255, 85, 85, 255])
    _render_ends(tmp_path, _OLD, "none", 1, 0, 0, _said(1), "", {"x.pgm": ("file", 0o644, pgm)})


@pytest.mark.parametrize("mode", [0o600, 0o444, 0o751], ids=oct)
def test_render_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, mode):
    before = {"x.pgm": ("file", mode, b"previous render")}
    _render_ends(tmp_path, before, "none", 2, 5, 0, _said(2), "", _written(2, 5, mode))
