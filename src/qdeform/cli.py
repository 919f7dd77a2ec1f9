"""Command-line front end.

Subcommands: gauss, qnumber, classify, ham, verify, polychronakos.
Exit codes: 0 success, 1 failed verification check, 2 usage error,
3 internal-consistency fault (a ham self-check exceeded tolerance),
141 stdout closed before the report was written.
Reports go to stdout as JSON (default) or a flat table; diagnostics to stderr.

One table, COMMANDS, gives each subcommand its help, positionals, options and
handler, and `parse_args` reads argv by it the way argparse would: options
anywhere after the subcommand, as ``--opt value`` or ``--opt=value`` or by a
unique prefix, the last of a repeated option winning, negative numbers read
as values and every token after ``--`` as a positional.  ``-h``/``--help``
prints the usage to stdout.  Every usage error, whether the grammar or a
handler finds it, is one stderr line ``qdeform: error: ...`` and exit 2,
with nothing on stdout even where stderr is closed or has no reader.

Each check family hands its handler one {check: residual} dict, and one
builder, `_checks`, makes every report entry: a check passes when its residual
is at most --tolerance, or at most its own fixed bound where it has one
(block_pattern_repeats and unitary_for_real_q at 1e-12, blocks_are_invariant,
a misplaced-transition count, inf at a non-finite amplitude, at 0).  An inf
residual fails; it and any non-finite ham energy print as null (`_json_float`).

Only `report` is imported with this module, and no command loads argparse,
gettext, locale or json.  Each handler imports the layers it calls when it
runs, so a command loads the layers it executes and no other.

A run as a process, ``python -m qdeform.cli`` or the ``qdeform`` script, is
`run`: `main`, then a flush of stdout and stderr, then ``os._exit`` with its
code, so the interpreter's teardown is skipped and atexit handlers and
finalizers do not run.  An exception that escapes `main` ends the normal way,
with a traceback and exit 1.  `main` is the in-process call and returns its
code.
"""

from __future__ import annotations

import math
import os
import sys

from . import __version__
from .report import render_json, render_table

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .ladder import QNumbers
    from .roots import DeformParam, RealQ, RootOfUnity

    # a handler's report: inputs, results and checks
    Checks = list[dict[str, Any]]
    Report = tuple[dict[str, Any], dict[str, Any], Checks]

DEFAULT_TOLERANCE = 1e-10

# Dimension cap, checked before any vector of that length exists: every check is
# O(dim); at this cap ham writes 11 to 26 MB of JSON and verify all takes about 6 s.
MAX_VECTOR_DIM = 1_000_000
# gauss n m renders about n**2 / 4 big-int coefficients: about 2 s and 7 MB
# of JSON at this cap.  qnumber n renders n ones, so it shares the vector cap.
MAX_GAUSS_N = 500
# classify and ham list one entry per block, gcd(m, j) of them: about 7.6 MB
# of JSON at this cap, checked before the decomposition is built.
MAX_BLOCKS = 100_000
# verify --max-m: the sweeps cost O(max_m**3) entries; at this cap, as
# subprocesses on a 2-vCPU Intel Xeon VM with Python 3.11.7, verify brackets
# takes about 0.35 s, verify algebra about 2.2 s and verify all about 2.5 s,
# and the algebra sweep writes about 5 MB of JSON.
MAX_SWEEP_ORDER = 300
# Per check family: the --dim a real q gets by default, then the least dimension.
DIM_RULES: dict[str, tuple[int | None, int]] = {
    "ham": (None, 1),
    "algebra": (20, 2),
    "realization": (50, 2),
}


def __getattr__(name: str) -> Any:
    """A public name of the package read through this module, such as
    ``cli.verify_relations``, is the layer's own object.  The handlers never
    read these names here, so a fault is patched where its layer defines it."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Argument problem, in the grammar or in a handler; mapped to exit code 2."""


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
    from .roots import RealQ

    return RealQ(_finite_float(text))


def _label(param: DeformParam) -> str:
    from .roots import RootOfUnity

    if isinstance(param, RootOfUnity):
        return f"{param.order}:{param.index}"
    return f"q={param.value}"


def _param_inputs(args: Args, **after: Any) -> dict[str, Any]:
    """--root, --real and --dim as given, followed by `after`."""
    inputs: dict[str, Any] = {}
    if args.root is not None:
        inputs["root"] = _label(args.root)
    if args.real is not None:
        inputs["real"] = args.real.value
    if getattr(args, "dim", None) is not None:
        inputs["dim"] = args.dim
    return {**inputs, **after}


def _resolve_param(
    args: Args, family: str, built: QNumbers | None = None
) -> QNumbers:
    """The q-numbers of the one parameter at the dimension the checks of
    `family` run at; `built` is reused when it has both, so each is built once."""
    from .ladder import q_numbers

    default_real_dim, min_dim = DIM_RULES[family]
    root, real = args.root, args.real
    if (root is None) == (real is None):
        raise UsageError("exactly one of --root m:j or --real q is required")
    dim = args.dim
    if dim is None:
        dim = root.order if root is not None else default_real_dim
        if dim is None:
            raise UsageError("--real requires --dim")
    if dim < 1:
        raise UsageError(f"--dim must be positive, got {dim}")
    if dim < min_dim:
        raise UsageError(f"{family} checks need --dim of at least {min_dim}")
    if dim > MAX_VECTOR_DIM:
        raise UsageError(
            f"{family} checks allow a dimension of at most {MAX_VECTOR_DIM}, got {dim}"
        )
    if root is not None and family == "ham":
        _check_block_count(root)  # ham lists every block
    param = root if root is not None else real
    if built is not None and (built.param, built.dim) == (param, dim):
        return built
    try:
        return q_numbers(param, dim)
    except OverflowError as exc:  # a real q's {dim+1}_q, refused before any check runs
        raise UsageError(f"--real {real.value} with --dim {dim} overflows float64: {exc}")


def _json_float(value: float) -> float | None:
    """value as a float JSON can carry: None (null) where it is not finite."""
    return float(value) if math.isfinite(value) else None


def _checks(residuals: dict[str, float], tolerance: float, name: str = "{}",
            bounds: dict[str, float] | None = None) -> Checks:
    """One entry per check of a {check: residual} dict, named name.format(check),
    in the dict's order, passed when the residual is at most its fixed bound in
    `bounds`, else at most `tolerance`; an inf one fails, written None (null)."""
    bounds = bounds or {}
    return [
        {"name": name.format(check), "passed": value <= bounds.get(check, tolerance),
         "max_residual": _json_float(value)}
        for check, value in residuals.items()
    ]


def _realization_checks(numbers: QNumbers, tolerance: float) -> tuple[Checks, bool]:
    """The realization checks of `numbers`, named with its label, and whether
    it is unitary; unitarity, judged by its own fixed bound, is listed for real
    q only."""
    from .realization import UNITARITY_TOL, verify_realization
    from .roots import RealQ

    residuals = verify_realization(numbers)  # unitary_for_real_q comes last
    name = f"{{}}[{_label(numbers.param)}]"
    *checks, unitary = _checks(residuals, tolerance, name, {"unitary_for_real_q": UNITARITY_TOL})
    if isinstance(numbers.param, RealQ):
        checks.append(unitary)
    return checks, unitary["passed"]


def _block_results(decomposition) -> dict[str, Any]:
    return {
        "block_count": decomposition.block_count,
        "block_dim": decomposition.block_dim,
        "blocks": [{"first_state": b[0], "last_state": b[-1]} for b in decomposition.blocks],
    }


def _polynomial_results(poly) -> dict[str, Any]:
    return {"coefficients": poly.coeffs, "degree": poly.degree, "value_at_one": poly(1)}


def _check_n(n: int, cap: int) -> None:
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise UsageError(f"n must be at most {cap}, got {n}")


def _check_block_count(root: RootOfUnity) -> None:
    blocks = math.gcd(root.order, root.index)
    if blocks > MAX_BLOCKS:
        raise UsageError(
            f"at most {MAX_BLOCKS} blocks are listed, but root {_label(root)} has {blocks}"
        )


def _cmd_gauss(args: Args) -> Report:
    from .gauss import gauss_binomial

    _check_n(args.n, MAX_GAUSS_N)
    return {"n": args.n, "m": args.m}, _polynomial_results(gauss_binomial(args.n, args.m)), []


def _cmd_qnumber(args: Args) -> Report:
    from .gauss import q_number

    _check_n(args.n, MAX_VECTOR_DIM)
    results = _polynomial_results(q_number(args.n))
    if args.root is not None:
        from .roots import q_number_is_zero, q_number_value

        value = q_number_value(args.n, args.root)
        results["value_at_root"] = {"re": value.real, "im": value.imag}
        results["vanishes_exactly"] = q_number_is_zero(args.n, args.root)
    if args.real is not None:
        from .roots import q_number_value

        value = q_number_value(args.n, args.real)
        if not math.isfinite(value):
            raise UsageError(f"{{{args.n}}}_q at --real {args.real.value} overflows float64")
        results["value_at_real"] = value
    return {"n": args.n, **_param_inputs(args)}, results, []


def _cmd_classify(args: Args) -> Report:
    from .reducibility import classify, decompose
    from .roots import RootOfUnity

    try:
        root = RootOfUnity(args.m, args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_block_count(root)
    reduced_order, reduced_index = root.canonical_reduce()
    results = {
        "primitive": root.is_primitive,
        "classification": classify(root),
        "reduced_order": reduced_order,
        "reduced_index": reduced_index,
        **_block_results(decompose(root)),
    }
    return {"m": args.m, "j": args.j}, results, []


def _cmd_ham(args: Args) -> Report:
    from .hamiltonian import BLOCK_PATTERN_TOL, ENERGY_UNIT, hamiltonian_diagonal, verify_hamiltonian

    numbers = _resolve_param(args, "ham")
    diagonal = hamiltonian_diagonal(numbers)
    results: dict[str, Any] = {"energy_unit": ENERGY_UNIT, "dim": numbers.dim, "diagonal": diagonal}
    residuals = verify_hamiltonian(numbers, diagonal)
    if residuals["three_constructions_agree"] == math.inf:  # as it is where an energy is not finite
        results["diagonal"] = list(map(_json_float, diagonal))
    # the block checks, present at a root only, are judged by their own fixed bounds
    bounds = {"block_pattern_repeats": BLOCK_PATTERN_TOL}
    if args.root is not None:  # only a root loads the blocks' layer
        from .reducibility import INVARIANT_BLOCKS_TOL, decompose, verify_invariant_subspaces

        blocks = decompose(args.root)
        results.update(primitive=args.root.is_primitive, **_block_results(blocks))
        if numbers.dim == args.root.order:
            residuals.update(verify_invariant_subspaces(numbers, blocks))
            bounds["blocks_are_invariant"] = INVARIANT_BLOCKS_TOL
    checks = _checks(residuals, args.tolerance, bounds=bounds)
    return _param_inputs(args, tolerance=args.tolerance), results, checks


def _cmd_polychronakos(args: Args) -> Report:
    numbers = _resolve_param(args, "realization")
    checks, unitary = _realization_checks(numbers, args.tolerance)
    results = {"unitary": unitary, "dim": numbers.dim}
    return _param_inputs(args, tolerance=args.tolerance), results, checks


def _cmd_verify(args: Args) -> Report:
    from .roots import verify_bracket_relations

    if args.max_m < 2:
        raise UsageError(f"--max-m must be at least 2, got {args.max_m}")
    if args.max_m > MAX_SWEEP_ORDER:
        raise UsageError(f"--max-m must be at most {MAX_SWEEP_ORDER}, got {args.max_m}")
    scopes = ("brackets", "algebra", "polychronakos") if args.scope == "all" else (args.scope,)
    given = args.root is not None or args.real is not None
    if args.scope == "brackets" and (given or args.dim is not None):
        raise UsageError("verify brackets reads none of --root, --real or --dim")
    if args.dim is not None and not given:
        raise UsageError("--dim needs --root m:j or --real q")
    # every parameter is resolved before the first sweep, so a usage error comes at once
    algebra = _resolve_param(args, "algebra") if given and "algebra" in scopes else None
    if given and "polychronakos" in scopes:
        realization = _resolve_param(args, "realization", built=algebra)
    results: dict[str, Any] = {}
    checks: Checks = []
    if "brackets" in scopes:
        brackets = _checks(verify_bracket_relations(args.max_m), args.tolerance)
        results["bracket_residuals"] = {c["name"]: c["max_residual"] for c in brackets}  # null where inf
        checks += ({**c, "name": f"brackets_{c['name']}"} for c in brackets)
    if "algebra" in scopes:
        from .ladder import verify_relations, verify_root_relations

        if algebra is not None:
            results["algebra_dim"] = algebra.dim
            checks += _checks(verify_relations(algebra), args.tolerance, "algebra_{}")
        else:
            # the worst relation residual at each root up to order max_m, at dim = order
            # listed in (m, j) order; a root the sweep missed would stay None and raise
            worst = dict.fromkeys(f"{m}:{j}" for m in range(2, args.max_m + 1) for j in range(1, m))
            for (m, j), row in verify_root_relations(args.max_m):
                worst[f"{m}:{j}"] = max(row.values())
            results["algebra_cases"] = len(worst)
            checks += _checks(worst, args.tolerance, "algebra_root_{}")
    if "polychronakos" in scopes:
        if given:
            results["realization_dim"] = realization.dim
            suite = [realization]
        else:
            from .ladder import q_numbers
            from .roots import RealQ, RootOfUnity

            suite = [q_numbers(RealQ(0.5), 40), q_numbers(RealQ(2.0), 40),
                     q_numbers(RootOfUnity(6, 1), 6)]
        for numbers in suite:
            checks += _realization_checks(numbers, args.tolerance)[0]
    inputs = _param_inputs(args, tolerance=args.tolerance, scope=args.scope)
    if "brackets" in scopes or ("algebra" in scopes and not given):
        inputs["max_m"] = args.max_m  # echoed only where a sweep reads it
    return inputs, results, checks


# Options per command: name -> (metavar, converter or choices, default).
PARAM_OPTIONS = {"--root": ("m:j", _root_spec, None), "--real": ("q", _real_spec, None)}
DIM_OPTION = {"--dim": ("n", _integer, None)}
COMMON_OPTIONS = {
    "--format": ("{json,table}", ("json", "table"), "json"),
    "--tolerance": ("x", _finite_float, DEFAULT_TOLERANCE),
}
HELP_FLAGS = ("-h", "--help")

# subcommand -> (help, positionals as (name, converter or choices), options, handler)
COMMANDS = {
    "gauss": (
        "q-binomial coefficients",
        (("n", _integer), ("m", _integer)),
        COMMON_OPTIONS,
        _cmd_gauss,
    ),
    "qnumber": (
        "deformed integer {n}_q",
        (("n", _integer),),
        {**PARAM_OPTIONS, **COMMON_OPTIONS},
        _cmd_qnumber,
    ),
    "classify": (
        "representation class of a root of unity",
        (("m", _integer), ("j", _integer)),
        COMMON_OPTIONS,
        _cmd_classify,
    ),
    "ham": (
        "deformed oscillator Hamiltonian and its blocks",
        (),
        {**PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        _cmd_ham,
    ),
    "verify": (
        "run identity/algebra verification sweeps",
        (("scope", ("algebra", "brackets", "polychronakos", "all")),),
        {"--max-m": ("m", _integer, 20), **PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        _cmd_verify,
    ),
    "polychronakos": (
        "scaling-function realization checks",
        (),
        {**PARAM_OPTIONS, **DIM_OPTION, **COMMON_OPTIONS},
        _cmd_polychronakos,
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
            inputs, results, checks = COMMANDS[args.subcommand][3](args)
            env = {"command": args.subcommand, "inputs": inputs, "results": results,
                   "checks": checks, "version": __version__}
            text = render_json(env) if args.format == "json" else render_table(env)
            code = 0 if all(c["passed"] for c in checks) else 3 if args.subcommand == "ham" else 1
    except UsageError as exc:
        _write(sys.stderr, f"qdeform: error: {exc}")  # exit 2 whether or not stderr can take it
        return 2
    return code if _write(sys.stdout, text) else 141  # what a shell reports after SIGPIPE


def _write(stream, text: str) -> bool:
    """Print text to stream (stdout or stderr) and flush it; False if the stream
    was closed when the interpreter started or its reader has gone."""
    if stream is None:  # its fd was closed at start: print(file=None) would go to stdout
        return False
    try:
        print(text, file=stream)
        stream.flush()  # a closed reader shows here, not at interpreter exit
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return False
    return True


def run() -> None:
    """Run argv as a process: `main`, flush both streams, then exit at once."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
