"""Command-line front end with stable single-line outputs.

Numbers are accepted in decimal, 0x hex, or 0b binary.  ``NIM_TRIPLE_MAX_K``
is the one environment variable the package reads, only here, and only for
``census`` and ``render``, which read it as an operand and pass it down as
``max_k``.  On every supported Python the bytes written depend on argv and
that variable alone: help is 78 columns wide on any terminal, decimals
convert up to ``limits.DECIMAL_DIGITS`` digits whatever the interpreter's
own limit, and the CLI writes only ASCII of its own.
``--json`` emits the same fields as the text, as one JSON object.
Exit codes: 0 success, 1 failed verification or write error, 2 usage error,
3 cap exceeded: an enumeration cap, or an integer too long to print in decimal;
130 interrupted, and 143 a render terminated while it writes its file.
Each command returns its payload, text and exit code; ``main`` parses,
computes, formats and writes, and returns every exit code.  A run ends
early only in a ``_Stop(code, text)``, or in a library refusal that ``main``
reads as one: a cap (3) or a bad value (2), or in a KeyboardInterrupt (130).
``main`` writes every early end in one place, help on stdout and the rest on
stderr.  A stderr that fails changes no exit code.
"""

import errno
import os
import re
import stat
import sys
import time
from collections.abc import Callable, Iterator
from types import SimpleNamespace

# Every parse needs these two; each command imports the rest of the library
# in its own body, so a process loads only the modules its command runs.
from .limits import DECIMAL_DIGITS, MAX_K_CEILING, CapExceeded
from .natural import _token, nim_sum, parse_natural

__all__ = ["main"]

MAX_K_ENV = "NIM_TRIPLE_MAX_K"


def _to_devnull(stream) -> None:
    """Point ``stream``'s fd at devnull, where the flush at exit puts what a failed write kept."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _to_stderr(text: str) -> None:
    """Write ``text`` to stderr, or nowhere if it fails: the exit code must not change."""
    if sys.stderr is None:  # fd 2 closed at start-up; never fall back to stdout
        return
    try:
        sys.stderr.write(text)  # stderr is line-buffered, so a failed write raises here
    except OSError:
        _to_devnull(sys.stderr)


def _integers(value) -> Iterator[int]:
    """Every int in a payload of dicts, lists and scalars."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _integers(item)
    elif type(value) is int:
        yield value


# A command's JSON payload, its text (built only in ``_format``, whose wide-output
# check catches a failed decimal conversion) and its exit code.
_Result = tuple[dict, Callable[[], str], int]


class _Stop(Exception):
    """The run ends early with ``(exit code, text)``: help (0), a failed write (1), misuse (2),
    or a SIGTERM while render writes (143)."""


def _terminated(signum, frame):
    raise _Stop(143, "")


def _max_k() -> int | None:
    """``NIM_TRIPLE_MAX_K`` read as an operand is, up to MAX_K_CEILING, or None where unset."""
    raw = os.environ.get(MAX_K_ENV)
    if raw is None:
        return None
    try:
        max_k = parse_natural(raw)
    except ValueError:
        max_k = None
    if max_k is None or max_k > MAX_K_CEILING:
        refused = f"{MAX_K_ENV} must be an integer in 0..{MAX_K_CEILING}, got {_token(raw)}"
        raise _Stop(2, f"error: {refused}\n")
    return max_k


def _run_sum(args: SimpleNamespace) -> _Result:
    value = nim_sum(args.a, args.b)
    return {"value": value}, lambda: str(value), 0


def _run_classify(args: SimpleNamespace) -> _Result:
    from .triangles import classify_triangle

    result = classify_triangle(args.a, args.b, args.c)
    parts = [result.kind.value]
    payload: dict = {"class": result.kind.value}
    if result.discriminant is not None:
        parts.append(f"j={result.discriminant}")
        payload["j"] = result.discriminant
    for name, status in zip("abc", result.statuses):
        parts.append(f"{name}:{status.value}")
        payload[name] = status.value
    return payload, lambda: " ".join(parts), 0


def _run_reorder(args: SimpleNamespace) -> _Result:
    from .triangles import reorder_dominant

    triple, perm = reorder_dominant(args.a, args.b, args.c)
    payload = {"triple": list(triple), "perm": list(perm)}
    return payload, lambda: "{} {} {} perm={},{},{}".format(*triple, *perm), 0


def _run_mex(args: SimpleNamespace) -> _Result:
    from .mex import mex_oracle

    value = mex_oracle(args.a, args.b)
    return {"value": value}, lambda: str(value), 0


def _run_table(args: SimpleNamespace) -> _Result:
    from .mex import greedy_minimal_table, table_to_text, verify_table_equals_xor

    rows = greedy_minimal_table(args.n)
    if not args.verify:
        return {"n": args.n, "rows": rows}, lambda: table_to_text(rows), 0
    ok, mismatch = verify_table_equals_xor(rows)
    payload = {"n": args.n, "xor": "ok" if ok else "mismatch"}
    text = f"n={args.n} xor={payload['xor']}"
    if not ok:
        payload["at"] = list(mismatch)
        text += " at={},{}".format(*mismatch)
    return payload, lambda: text, int(not ok)


def _run_move(args: SimpleNamespace) -> _Result:
    from .advisor import advise_move, winning_moves

    if args.all:
        moves = winning_moves(args.piles)
        payload = {"moves": [{"pile": m.pile, "new": m.new_size} for m in moves]}
    else:
        advice = advise_move(args.piles)
        moves = [] if advice is None else [advice]
        payload = {"winning": bool(moves)}
        if moves:
            payload.update(pile=advice.pile, new=advice.new_size)
    line = "winning pile={} new={}".format
    return payload, lambda: "\n".join(line(*m) for m in moves) or "no-winning-move", 0


def _run_census(args: SimpleNamespace) -> _Result:
    from ._census import census, census_closed_form_check

    report = census(args.k, max_k=_max_k())
    text = report.to_line()
    payload = report._asdict()
    code = 0
    if args.check_closed_form:
        verdict = "ok" if census_closed_form_check(args.k) else "mismatch"
        text += f" closed-form={verdict}"
        payload["closed_form"] = verdict
        code = int(verdict != "ok")
    return payload, lambda: text, code


def _write_replacing(path: str, chunks: list[bytes]) -> None:
    """Write ``chunks`` end to end to a new file beside ``path``, then rename it over ``path``.

    A write that fails part way removes the new file, so ``path`` is either
    left as it was or holds all of the chunks, never a truncated copy.  The
    new file's name does not grow with ``path``'s, so any legal name works,
    and it holds the pid and the time in ns, so no earlier process can have
    left a file of that name.  Where ``path`` exists, the new file takes its
    permission bits before the first chunk; a new ``path`` keeps the default.
    Where ``path`` names, through any links, something other than a regular
    file, such as a FIFO or a device, the chunks are written into it in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            handle.writelines(chunks)
        return
    scratch = os.path.join(os.path.dirname(path), f".{os.getpid()}.{time.time_ns()}.tmp")
    handle = open(scratch, "xb")
    try:
        with handle:
            if mode is not None:
                os.chmod(scratch, mode & 0o777)
            handle.writelines(chunks)
        os.replace(scratch, path)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


def _run_render(args: SimpleNamespace) -> _Result:
    import signal  # only render leaves a file behind when SIGTERM ends the process

    from .render import _pgm_chunks

    # written piece by piece: joined, a k=12 PGM would be one more 16 MiB object
    chunks = _pgm_chunks(args.k, args.c, _max_k())
    # the default SIGTERM ends the process where it stands, so no cleanup runs; raised as a
    # _Stop instead, it lets _write_replacing remove its scratch file.  A handler the caller
    # set stays, and only the main thread can set one.
    ours = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    if ours:
        try:
            signal.signal(signal.SIGTERM, _terminated)
        except ValueError:  # not the main thread
            ours = False
    try:
        _write_replacing(args.out, chunks)
    except OSError as exc:
        # strerror alone, as the OSError may name the pid's temporary file; a name too long is cut
        out = _token(args.out, str) if exc.errno == errno.ENAMETOOLONG else args.out
        raise _Stop(1, f"error: cannot write {out}: {exc.strerror}\n") from None
    finally:
        if ours:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    n = 1 << args.k
    payload = {"out": args.out, "width": n, "height": n}
    return payload, lambda: f"out={args.out} width={n} height={n}", 0


# The command table: each command's run, help and operands, and its one option as usage shows
# it, with that option's help.  A "+" operand takes one value or more.  "--out OUT" takes a
# value and is required.  The program itself is the entry "", whose one operand is the command.
_COMMANDS = {
    "": (None, "Nim addition, triangle classification, mex oracles, and greedy tables.",
         "command", "[--json]", "emit one JSON object instead of text"),
    "sum": (_run_sum, "Nim sum of two naturals", "a b", "", ""),
    "classify": (_run_classify, "class, statuses, and discriminant of a triangle", "a b c", "", ""),
    "reorder": (_run_reorder, "permute a triple so the first entry dominates", "a b c", "", ""),
    "mex": (_run_mex, "Nim sum recomputed via the exclusion-set mex oracle", "a b", "", ""),
    "table": (_run_table, "greedy minimal operation table",
              "n", "[--verify]", "check the table against XOR instead of printing it"),
    "move": (_run_move, "winning-move advice for a Nim position",
             "piles+", "[--all]", "list every winning move (3 piles only)"),
    "census": (_run_census, "class tallies over [0, 2**k)^3, counted per discriminant",
               "k", "[--check-closed-form]", "compare tallies with the closed forms"),
    "render": (_run_render, "write the classification bitmap as binary PGM",
               "k c", "--out OUT", "output file path"),
}
_CHOICES = "{" + ",".join(list(_COMMANDS)[1:]) + "}"
# argparse's test for a negative number, compiled by re's own cache when a token first needs it
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _dest(option: str) -> str:
    return option.strip("[]").split()[0][2:].replace("-", "_")


def _usage(level: str) -> str:
    """The usage line of ``level``; past 78 columns its operands go on a line of their own."""
    prog = f"nimtriples {level}".rstrip()
    line = f"usage: {prog} [-h] {_COMMANDS[level][3]}".rstrip()
    shown = {"command": _CHOICES + " ...", "piles+": "piles [piles ...]"}
    tail = " ".join(shown.get(name, name) for name in _COMMANDS[level][2].split())
    gap = " " if len(line) + len(tail) < 78 else "\n" + " " * (len(prog) + 8)
    return f"{line}{gap}{tail}\n"


def _help(level: str) -> str:
    """The help of ``level``, laid out as argparse lays it out at 78 columns."""
    _, about, operands, option, option_help = _COMMANDS[level]
    named = [({"command": _CHOICES}.get(name, name.rstrip("+")), "") for name in operands.split()]
    flags = [("-h, --help", "show this help message and exit")]
    flags += [(option.strip("[]"), option_help)] * bool(option)
    column = min(24, 4 + max(len(text) for text, _ in named + flags))
    commands = [(f"  {name}", _COMMANDS[name][1]) for name in _COMMANDS if name and not level]

    def rows(entries):  # each help wrapped greedily at 78 columns, as textwrap wraps these
        for text, words in entries:
            first, *rest = re.findall(rf"\S.{{0,{77 - column}}}(?=\s|$)", words) or [""]
            yield f"  {text:{column - 2}}{first}".rstrip()
            yield from (" " * column + line for line in rest)

    top = [_usage(level), *[about, ""] * (not level), "positional arguments:"]
    return "\n".join([*top, *rows(named + commands), "", "options:", *rows(flags), ""])


def _fail(level: str, message: str):
    raise _Stop(2, f"{_usage(level)}{f'nimtriples {level}'.rstrip()}: error: {message}\n")


def _option(token: str, level: str) -> tuple[str, str | None] | None:
    """The option ``token`` names at ``level`` ("" if unknown), and its text after "=", or None."""
    if token.startswith("-h"):  # as 3.10 to 3.12 read them: "-hhx" and "-h=hx" give "x", "-hh" none
        rest = token[2:].removeprefix("=").lstrip("h")
        return "-h/--help", "" if token == "-h=" else rest or None
    if token[:1] != "-" or token == "-":
        return None
    name, equals, explicit = token.partition("=")
    known = ["--help", *_COMMANDS[level][3].strip("[]").split()[:1]]
    matches = [option for option in known if token[1] == "-" and option.startswith(name)]
    if matches:
        return matches[0].replace("--help", "-h/--help"), explicit if equals else None
    return None if re.match(_NEGATIVE, token) or " " in token else ("", None)


def _parse(argv: list[str]) -> SimpleNamespace:
    """``argv`` read by ``_COMMANDS`` as argparse 3.10 reads it; help and usage errors raise _Stop.

    One walk reads the program's options, its command, then the command's operands and options.
    An option ends a run of operands, and a "+" operand takes the rest of its run.  Options end
    at the first "--", which goes with an operand next to it, or else is left over.  A later "--"
    is an operand like any other, refused as a number where 3.10 would strip it to [].
    """
    head = argv.index("--") if "--" in argv else len(argv)
    for token in argv[:head]:  # refused before any token is consumed
        if token.startswith("--="):
            _fail("", f"ambiguous option: {_token(token, str)} could match --help, --json")
    args = SimpleNamespace(**{_dest(entry[3]): False for entry in _COMMANDS.values() if entry[3]})
    level, operands, extras, more, taken = "", ["command"], [], None, None
    tokens = enumerate(argv)  # more: the "+" operand of this run; taken: who took its last token
    for i, token in tokens:
        option = _option(token, level) if i < head else None
        if i == head and (level or i + 1 == len(argv)):  # the first "--"
            extras += [] if taken or operands else [token]  # a missing operand is refused first
        elif option is None and not level:
            if not token or token not in _COMMANDS:
                choices = f"(choose from {', '.join(map(repr, list(_COMMANDS)[1:]))})"
                _fail("", f"argument command: invalid choice: {_token(token)} {choices}")
            args.command = level = token
            operands = _COMMANDS[level][2].split()
        elif option is None and (more or operands):  # an operand, for the next operand name
            name = taken = more or operands.pop(0)
            more, dest = name if name.endswith("+") else None, name.rstrip("+")
            try:
                value = parse_natural(token)
            except ValueError:
                _fail(level, f"argument {dest}: invalid parse_natural value: {_token(token)}")
            setattr(args, dest, [*getattr(args, dest, []), value] if more else value)
        elif option is None or not option[0]:  # left over: an operand, or an unknown option
            extras.append(token)
            more = taken = None
        else:
            (name, explicit), more, taken = option, None, None
            takes = " " in _COMMANDS[level][3] and name != "-h/--help"
            if explicit is not None and not takes:
                _fail(level, f"argument {name}: ignored explicit argument {_token(explicit)}")
            if name == "-h/--help":
                raise _Stop(0, _help(level))
            if takes and explicit is None:
                if i + 1 >= head or _option(argv[i + 1], level) is not None:
                    _fail(level, f"argument {name}: expected one argument")
                explicit = next(tokens)[1]
            setattr(args, _dest(name), True if explicit is None else explicit)
    if not level:
        _fail("", "the following arguments are required: command")
    option = _COMMANDS[level][3]
    missing = [name.rstrip("+") for name in operands]
    missing += option.split()[:1] if " " in option and getattr(args, _dest(option)) is False else []
    if missing:
        _fail(level, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail("", "unrecognized arguments: " + " ".join(_token(token, str) for token in extras))
    return args


def _format(payload: dict, text: Callable[[], str], as_json: bool) -> str:
    """``payload`` as JSON under ``--json``, else the line ``text()``.

    Either raises ValueError only for an integer past ``DECIMAL_DIGITS``
    decimal digits, the limit ``main`` sets: payloads hold no floats, texts
    convert only ints, and every integer ``text()`` prints is also in
    ``payload``.  Such a result is refused as a cap, exit 3, before anything
    is printed.
    """
    try:
        if as_json:
            import json  # only --json needs it

            return json.dumps(payload)
        return text()
    except ValueError:
        widest = max(_integers(payload), default=0)
        raise CapExceeded(
            f"result of {widest.bit_length()} bits exceeds"
            f" the {DECIMAL_DIGITS}-digit decimal output limit"
        ) from None


def main(argv: list[str] | None = None) -> int:
    # parse and format convert DECIMAL_DIGITS digits, whatever PYTHONINTMAXSTRDIGITS says
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DECIMAL_DIGITS)
    try:
        try:
            try:
                args = _parse(list(sys.argv[1:] if argv is None else argv))
                payload, text, code = _COMMANDS[args.command][0](args)
                print(_format(payload, text, args.json))
                return code
            except _Stop as stop:
                code, text = stop.args
            except CapExceeded as exc:  # a library refusal: a cap, or a value out of range
                code, text = 3, f"error: {exc}\n"
            except ValueError as exc:
                code, text = 2, f"error: {exc}\n"
            except KeyboardInterrupt:  # as a shell reads SIGINT, 128 + 2, and with no line
                code, text = 130, ""
            if code == 0 and sys.stdout is not None:  # help, to stderr with fd 1 closed
                sys.stdout.write(text)
            else:
                _to_stderr(text)
            return code
        finally:
            if sys.stdout is not None:  # None when the process started with fd 1 closed
                sys.stdout.flush()
    except OSError as exc:
        # a failed write to stdout; a reader that closed the pipe early gets no line
        if not isinstance(exc, BrokenPipeError):
            _to_stderr(f"error: cannot write stdout: {exc}\n")
        _to_devnull(sys.stdout)
        return 1
    finally:
        sys.set_int_max_str_digits(saved)
