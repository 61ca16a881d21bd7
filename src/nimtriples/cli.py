"""Command-line front end with stable single-line outputs.

Numbers are accepted in decimal, 0x hex, or 0b binary.  On every supported
Python the bytes written depend on argv and ``NIM_TRIPLE_MAX_K`` alone:
help is 78 columns wide on any terminal, decimals convert up to
``limits.DECIMAL_DIGITS`` digits whatever the interpreter's own limit, and
the CLI writes only ASCII of its own.
``--json`` emits the same fields as the text, as one JSON object.
Exit codes: 0 success, 1 failed verification or write error, 2 usage error,
3 cap exceeded: an enumeration cap, or an integer too long to print in decimal.
Each command returns its payload, text and exit code; ``main`` parses,
computes, formats and writes, and returns every exit code: it turns
argparse's SystemExit for help (0) and usage errors (2) into its return
value.  A stderr that fails changes no exit code.
"""

import argparse
import functools
import os
import re
import sys
from collections.abc import Callable, Iterator

# Every parse needs these two; each command imports the rest of the library
# in its own body, so a process loads only the modules its command runs.
from .limits import DECIMAL_DIGITS, CapExceeded
from .natural import _token, nim_sum, parse_natural

__all__ = ["build_parser", "main"]


def _natural(text: str) -> int:
    """``parse_natural`` for argparse, naming a rejected token in at most ``_token`` length."""
    try:
        return parse_natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid parse_natural value: {_token(text)}") from None


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


def _error(message: str) -> None:
    _to_stderr(f"error: {message}\n")


# argparse's width where there is no terminal, fixed so that neither a terminal
# nor COLUMNS changes a help or usage line
_HELP_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


class _Parser(argparse.ArgumentParser):
    """argparse of fixed help width, whose usage errors go through ``_token``, and help can fail.

    argparse drops an OSError from writing help to stdout, so help to an
    unbuffered stdout that fails would exit 0 with nothing written; here
    it reaches ``main``, which reports it with exit 1.  Usage errors go
    through ``_to_stderr``: argparse would leave a failed write's bytes for
    the flush at exit (exit 120), and print its usage line to stdout when
    ``sys.stderr`` is None.  Subparsers are ``_Parser`` too.  argparse's
    grammar changed at its corners within 3.13; with ``parse_args`` and the
    overrides below every version reads an argv as 3.10 to 3.12 do, but for
    a lone ``"--"`` operand, which each converts as 3.13.13 does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HELP_FORMATTER, **kwargs)

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        elif message:
            _to_stderr(message)

    def error(self, message):
        # argparse quotes a value given to a flag whole; echo it by _token's rule
        ignored = re.fullmatch(r"(argument \S+: ignored explicit argument )(.*)", message)
        if ignored:
            import ast

            message = ignored[1] + _token(ast.literal_eval(ignored[2]))
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_token(value)} (choose from {choices})"
            )

    def _get_option_tuples(self, option_string):
        # 3.13.13 matches "-=x" with every option by its "-", and refuses an ambiguous
        # option only once it is consumed; earlier versions refuse it here, at once
        if option_string.startswith("-="):
            return []
        matches = super()._get_option_tuples(option_string)
        if len(matches) > 1:
            options = ", ".join(match[1] for match in matches)
            self.error(f"ambiguous option: {_token(option_string, str)} could match {options}")
        return matches

    def _get_values(self, action, arg_strings):
        # up to 3.13.0 argparse strips a lone "--" to [], where 3.13.13 converts it
        if arg_strings == ["--"] and action.nargs is None:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def parse_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        head = args.index("--") if "--" in args else len(args)  # options end at the first "--"
        for i, token in enumerate(args[:head]):
            # 3.10 to 3.12 read "-hx", "-hhx" and "-h=hhx" as "-h=x", and "-hh" and "-h=h"
            # as "-h"; 3.13 prints help for "-hx" and refuses "-h=h"
            rest = token[2:].removeprefix("=").lstrip("h")
            if token.startswith("-h") and token != "-h=":
                args[i] = f"-h={rest}" if rest else "-h"
        if head + 1 < len(args) and None not in map(self._parse_optional, args[:head]):
            args.insert(head, "--")  # 3.13.13 skips one "--" where the command should be
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(_token(t, str) for t in extras))
        return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nimtriples",
        description="Nim addition, triangle classification, mex oracles, and greedy tables.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="Nim sum of two naturals")
    p.set_defaults(run=_run_sum)
    p.add_argument("a", type=_natural)
    p.add_argument("b", type=_natural)

    p = sub.add_parser("classify", help="class, statuses, and discriminant of a triangle")
    p.set_defaults(run=_run_classify)
    p.add_argument("a", type=_natural)
    p.add_argument("b", type=_natural)
    p.add_argument("c", type=_natural)

    p = sub.add_parser("reorder", help="permute a triple so the first entry dominates")
    p.set_defaults(run=_run_reorder)
    p.add_argument("a", type=_natural)
    p.add_argument("b", type=_natural)
    p.add_argument("c", type=_natural)

    p = sub.add_parser("mex", help="Nim sum recomputed via the exclusion-set mex oracle")
    p.set_defaults(run=_run_mex)
    p.add_argument("a", type=_natural)
    p.add_argument("b", type=_natural)

    p = sub.add_parser("table", help="greedy minimal operation table")
    p.set_defaults(run=_run_table)
    p.add_argument("n", type=_natural)
    p.add_argument(
        "--verify", action="store_true", help="check the table against XOR instead of printing it"
    )

    p = sub.add_parser("move", help="winning-move advice for a Nim position")
    p.set_defaults(run=_run_move)
    p.add_argument("piles", type=_natural, nargs="+")
    p.add_argument("--all", action="store_true", help="list every winning move (3 piles only)")

    p = sub.add_parser("census", help="class tallies over [0, 2**k)^3, counted per discriminant")
    p.set_defaults(run=_run_census)
    p.add_argument("k", type=_natural)
    p.add_argument(
        "--check-closed-form", action="store_true", help="compare tallies with the closed forms"
    )

    p = sub.add_parser("render", help="write the classification bitmap as binary PGM")
    p.set_defaults(run=_run_render)
    p.add_argument("k", type=_natural)
    p.add_argument("c", type=_natural)
    p.add_argument("--out", required=True, help="output file path")

    return parser


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


class _FileUnwritable(Exception):
    """``render`` could not write its output file; ``main`` reports it with exit 1."""


def _run_sum(args: argparse.Namespace) -> _Result:
    value = nim_sum(args.a, args.b)
    return {"value": value}, lambda: str(value), 0


def _run_classify(args: argparse.Namespace) -> _Result:
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


def _run_reorder(args: argparse.Namespace) -> _Result:
    from .triangles import reorder_dominant

    triple, perm = reorder_dominant(args.a, args.b, args.c)
    payload = {"triple": list(triple), "perm": list(perm)}
    return payload, lambda: "{} {} {} perm={},{},{}".format(*triple, *perm), 0


def _run_mex(args: argparse.Namespace) -> _Result:
    from .mex import mex_oracle

    value = mex_oracle(args.a, args.b)
    return {"value": value}, lambda: str(value), 0


def _run_table(args: argparse.Namespace) -> _Result:
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


def _run_move(args: argparse.Namespace) -> _Result:
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


def _run_census(args: argparse.Namespace) -> _Result:
    from ._census import census, census_closed_form_check

    report = census(args.k)
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
    new file's name does not grow with ``path``'s, so any legal name works.
    """
    scratch = os.path.join(os.path.dirname(path), f".{os.getpid()}.tmp")
    handle = open(scratch, "xb")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(scratch, path)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


def _run_render(args: argparse.Namespace) -> _Result:
    from .render import _pgm_chunks

    # written piece by piece: joined, a k=12 PGM would be one more 16 MiB object
    chunks = _pgm_chunks(args.k, args.c)
    try:
        _write_replacing(args.out, chunks)
    except OSError as exc:
        # strerror alone: the OSError may name the temporary file, whose name holds the pid
        raise _FileUnwritable(f"cannot write {args.out}: {exc.strerror}") from None
    n = 1 << args.k
    payload = {"out": args.out, "width": n, "height": n}
    return payload, lambda: f"out={args.out} width={n} height={n}", 0


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
    parser = build_parser()
    # parse and format convert DECIMAL_DIGITS digits, whatever PYTHONINTMAXSTRDIGITS says
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DECIMAL_DIGITS)
    try:
        try:
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # help and usage errors
                return exc.code
            payload, text, code = args.run(args)
            print(_format(payload, text, args.json))
            return code
        finally:
            if sys.stdout is not None:  # None when the process started with fd 1 closed
                sys.stdout.flush()
    except _FileUnwritable as exc:
        _error(str(exc))
        return 1
    except OSError as exc:
        # a failed write to stdout; a reader that closed the pipe early gets no line
        if not isinstance(exc, BrokenPipeError):
            _error(f"cannot write stdout: {exc}")
        _to_devnull(sys.stdout)
        return 1
    except CapExceeded as exc:
        _error(str(exc))
        return 3
    except ValueError as exc:
        _error(str(exc))
        return 2
    finally:
        sys.set_int_max_str_digits(saved)
