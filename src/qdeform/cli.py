"""Command-line front end.

Subcommands: gauss, qnumber, classify, ham, verify, polychronakos.
Exit codes: 0 success, 1 failed verification check, 2 usage error,
3 internal-consistency fault (a ham self-check exceeded tolerance),
74 the report could not be written to stdout (EX_IOERR; one stderr line
says why), 141 stdout closed before the report was written.
Reports go to stdout as JSON (default) or a flat table; diagnostics to stderr.

One table, COMMANDS, gives each subcommand its help, positionals, options and
handler module, and `parse_args` reads argv by it the way argparse would:
options anywhere after the subcommand, as ``--opt value`` or ``--opt=value``
or by a unique prefix, the last of a repeated option winning, negative
numbers read as values and every token after ``--`` as a positional.
``-h``/``--help`` prints the usage to stdout.  Every usage error, whether the
grammar or a handler finds it, is one stderr line ``qdeform: error: ...`` and
exit 2, with nothing on stdout even where stderr is closed, has no reader or
cannot be written.

A command compiles only the code on its path.  This module and
`qdeform.commands` (UsageError, the caps and the handlers' shared helpers)
load with it; `main` imports the command's handler module from
`qdeform.commands` once argv is read, and that handler imports the layers it
calls when it runs, so a command loads the layers it executes and no other.
The renderers (`report`) load only for a run that prints a report.  No
command loads argparse, gettext, locale or json.

A run as a process, ``python -m qdeform.cli`` or the ``qdeform`` script, is
`run`: `main`, then a flush of stdout and stderr, then ``os._exit`` with its
code, so the interpreter's teardown is skipped and atexit handlers and
finalizers do not run.  An exception that escapes `main` ends the normal way,
with a traceback and exit 1.  `main` is the in-process call and returns its
code.
"""

from __future__ import annotations

import errno
import math
import os
import sys

from . import __version__
# defined with the handlers, which never import this module; cli.UsageError
# and cli.MAX_* are the same objects
from .commands import MAX_BLOCKS, MAX_GAUSS_N, MAX_SWEEP_ORDER, MAX_VECTOR_DIM, UsageError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .roots import RealQ, RootOfUnity

DEFAULT_TOLERANCE = 1e-10


def __getattr__(name: str) -> Any:
    """A public name of the package read through this module, such as
    ``cli.verify_relations``, is the layer's own object.  The handlers never
    read these names here, so a fault is patched where its layer defines it."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Args:
    """A parsed argv: its subcommand and one attribute per positional and option."""

    def __init__(self, subcommand: str, values: dict[str, Any]) -> None:
        self.__dict__.update(values, subcommand=subcommand)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _root_spec(text: str) -> RootOfUnity:
    from .roots import RootOfUnity

    try:
        order_text, index_text = text.split(":")
        order, index = int(order_text), int(index_text)
    except ValueError:
        raise ValueError(f"expected m:j with integers, got {text!r}") from None
    return RootOfUnity(order, index)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _real_spec(text: str) -> RealQ:
    value = _finite_float(text)  # a non-finite q is refused before any layer loads
    from .roots import RealQ

    return RealQ(value)


# Options per command: name -> (metavar, converter or choices, default).
PARAM_OPTIONS = {"--root": ("m:j", _root_spec, None), "--real": ("q", _real_spec, None)}
DIM_OPTION = {"--dim": ("n", _integer, None)}
COMMON_OPTIONS = {
    "--format": ("{json,table}", ("json", "table"), "json"),
    "--tolerance": ("x", _finite_float, DEFAULT_TOLERANCE),
}
HELP_FLAGS = ("-h", "--help")

# subcommand -> (help, positionals as (name, converter or choices), options,
# the module whose handle(args) runs it)
COMMANDS = {
    "gauss": (
        "q-binomial coefficients",
        (("n", _integer), ("m", _integer)),
        COMMON_OPTIONS,
        "qdeform.commands.gauss",
    ),
    "qnumber": (
        "deformed integer {n}_q",
        (("n", _integer),),
        {**PARAM_OPTIONS, **COMMON_OPTIONS},
        "qdeform.commands.qnumber",
    ),
    "classify": (
        "representation class of a root of unity",
        (("m", _integer), ("j", _integer)),
        COMMON_OPTIONS,
        "qdeform.commands.classify",
    ),
    "ham": (
        "deformed oscillator Hamiltonian and its blocks",
        (),
        {**PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        "qdeform.commands.ham",
    ),
    "verify": (
        "run identity/algebra verification sweeps",
        (("scope", ("algebra", "brackets", "polychronakos", "all")),),
        {"--max-m": ("m", _integer, 20), **PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        "qdeform.commands.verify",
    ),
    "polychronakos": (
        "scaling-function realization checks",
        (),
        {**PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        "qdeform.commands.polychronakos",
    ),
}


def _convert(name: str, kind: Any, text: str) -> Any:
    """A token as the value of argument `name`: one of `kind`'s choices, or
    what its converter makes of it."""
    if isinstance(kind, tuple):
        if text not in kind:
            shown = ", ".join(map(repr, kind))
            raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {shown})")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"argument {name}: {exc}") from None


def _looks_negative(token: str) -> bool:
    """Whether argparse's ``^-\\d+$|^-\\d*\\.\\d+$`` matches, so the token is a value."""
    body = token[1:-1] if token.endswith("\n") else token[1:]  # $ matches before a last newline
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (whole == "" or whole.isdecimal())


def _option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How a token before ``--`` reads among the option `names`: None for a
    value, else the option it names (None for an unknown one) and the value
    attached to it with ``=`` (or, for ``-h``, run on, as in ``-hh``)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, attached = token.partition("=")
    if eq and head in names:
        return head, attached
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {head} could match {', '.join(matches)}")
        if matches:
            return matches[0], attached if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    if _looks_negative(token) or " " in token:
        return None
    return None, None


def _check_help(flag: str, attached: str | None) -> None:
    """A help flag takes no value; -h may only run on into more h's, as -hh."""
    if attached is None:
        return
    rest = attached.lstrip("h") if flag == "-h" else attached
    if rest or not attached:
        raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")


def _top_help() -> str:
    rows = [f"  {name:<15}{spec[0]}" for name, spec in COMMANDS.items()]
    return "\n".join([
        "usage: qdeform <command> [options]",
        "Gauss-polynomial calculus and the q-deformed oscillator it generates.",
        "",
        "commands:",
        *rows,
        "",
        "qdeform <command> --help lists the options of that command.",
    ])


def _command_help(command: str) -> str:
    summary, positionals, options, _ = COMMANDS[command]
    shown = ["{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name for name, kind in positionals]
    rows = [
        (f"{name} {metavar}", "" if default is None else f"default {default}")
        for name, (metavar, _, default) in options.items()
    ]
    rows.append((", ".join(HELP_FLAGS), "print this help"))
    width = max(len(flags) for flags, _ in rows) + 2
    return "\n".join([
        " ".join(["usage: qdeform", command, *shown, "[options]"]),
        summary,
        "",
        "options:",
        *(f"  {flags:<{width}}{note}".rstrip() for flags, note in rows),
    ])


def parse_args(argv: list[str]) -> Args | str:
    """argv read by the COMMANDS table, or the help text when it asks for help.

    It accepts and rejects what argparse did, and raises UsageError for every
    argv argparse rejected.  Where argparse turned a literal ``--`` after
    the first into an empty list, this reads it as the value ``--``.
    """
    unrecognized: list[str] = []
    for start, token in enumerate(argv):
        option = None if token == "--" else _option(token, HELP_FLAGS)
        if option is None:
            break
        flag, attached = option
        if flag is None:
            unrecognized.append(token)
        else:
            _check_help(flag, attached)
            return _top_help()
    else:
        raise UsageError("the following arguments are required: command")
    command, tokens = argv[start], argv[start + 1 :]
    if command not in COMMANDS:
        shown = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {shown})")
    _, pending, options, _ = COMMANDS[command]
    names = (*HELP_FLAGS, *options)
    marker = tokens.index("--") if "--" in tokens else len(tokens)
    # every token is read before any runs, so an ambiguous prefix is an error first
    kinds = [_option(token, names) for token in tokens[:marker]]
    kinds += [None] * (len(tokens) - marker)
    values = {flag: default for flag, (_, _, default) in options.items()}
    i = 0
    while i < len(tokens):
        if kinds[i] is None:  # a run of values up to the next option: the positionals
            end = next((k for k in range(i, len(tokens)) if kinds[k] is not None), len(tokens))
            taken = [k for k in range(i, end) if k != marker][: len(pending)]
            for (name, kind), k in zip(pending, taken):
                values[name] = _convert(name, kind, tokens[k])
            pending = pending[len(taken) :]
            # a "--" next to a positional's value goes with it; any other is left over
            kept = {*taken, marker} if taken and i <= marker <= taken[-1] + 1 else set(taken)
            unrecognized += [tokens[k] for k in range(i, end) if k not in kept]
            i = end
            continue
        flag, attached = kinds[i]
        i += 1
        if flag is None:
            unrecognized.append(tokens[i - 1])
        elif flag in HELP_FLAGS:
            _check_help(flag, attached)
            return _command_help(command)
        else:
            if attached is None:
                if i == len(tokens) or i == marker or kinds[i] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                attached = tokens[i]
                i += 1
            values[flag] = _convert(flag, options[flag][1], attached)
    if pending:
        missing = ", ".join(name for name, _ in pending)
        raise UsageError(f"the following arguments are required: {missing}")
    if unrecognized:
        raise UsageError(f"unrecognized arguments: {' '.join(map(repr, unrecognized))}")
    return Args(command, {name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text
            text, code = args, 0
        else:
            # the import statement's own call, so `-X importtime` lists the handler
            handler = __import__(COMMANDS[args.subcommand][3], fromlist=["handle"]).handle
            inputs, results, checks = handler(args)
            env = {"command": args.subcommand, "inputs": inputs, "results": results,
                   "checks": checks, "version": __version__}
            from .report import render_json, render_table

            text = render_json(env) if args.format == "json" else render_table(env)
            code = 0 if all(c["passed"] for c in checks) else 3 if args.subcommand == "ham" else 1
    except UsageError as exc:
        _write(sys.stderr, f"qdeform: error: {exc}")  # exit 2 whether or not stderr can take it
        return 2
    error = _write(sys.stdout, text)
    if error is None:
        return code
    # no reader, or stdout closed at start: by the shell, or, where a wrapper
    # script's ``>&-`` leaves fd 1 open for reading only, a write refused with EBADF
    if isinstance(error, BrokenPipeError) or error.errno == errno.EBADF:
        return 141  # what a shell reports after SIGPIPE
    _write(sys.stderr, f"qdeform: error: cannot write the report to stdout: {error}")
    return 74  # EX_IOERR


def _write(stream, text: str) -> OSError | None:
    """Print text to stream (stdout or stderr) and flush it; None once written,
    else why not: a BrokenPipeError where the stream was closed when the
    interpreter started or its reader has gone, else the OSError the write
    raised, such as ENOSPC on /dev/full or EBADF on an fd open for reading.
    A stream that fails is pointed at devnull, so what it still buffers cannot
    fail again at the flush in `run`."""
    if stream is None:  # its fd was closed at start: print(file=None) would go to stdout
        return BrokenPipeError("closed at start")
    try:
        print(text, file=stream)
        stream.flush()  # a closed reader or a full device shows here, not at exit
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def run() -> None:
    """Run argv as a process: `main`, flush both streams, then exit at once."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
