"""Command line front end.

Exit codes: 0 every check passed, 1 at least one check failed,
2 nothing failed but some check lacked data, 3 the input itself was
unusable (malformed file, unknown example, bad arguments, or a fibre
whose sign identities fail, named as in "rho.rho != 0 at level 1,
codim 0, j 0"), 120 the report could not be written to stdout.

``main(argv)`` runs one command and returns its exit code; it has no
process-level effect, so tests and profilers call it in-process.
``run()`` is the process entry of ``degen`` and ``python -m degen``.

The arguments are read against one table, ``_COMMANDS``, by a short
loop rather than argparse, whose import and parser build every job
would pay for.  The grammar and the usage errors are those of the
argparse parser it replaced, which ``tests/oracles.py`` keeps as the
reference.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys

from .bundle import MAX_TWIST, load, save
from .workbench import (
    CONJECTURES,
    CheckReport,
    ReportLine,
    build_example,
    render_text,
    render_tsv,
    run_complex,
    run_conjecture,
    run_dim_theorem,
    run_quasi_iso,
    run_validate,
)


class _UsageError(Exception):
    """A command line the grammar does not accept; the message names the
    argument, and ``prog`` is ``degen`` or, for an error in a command's
    own arguments, ``degen COMMAND``, as argparse named them."""

    def __init__(self, message: str, prog: str = "degen"):
        super().__init__(message)
        self.prog = prog


class _HelpRequested(Exception):
    """``-h`` or ``--help`` was read before any usage error."""


USAGE = """\
usage: degen [-h] [--tsv] [--strict | --no-strict] COMMAND ...

Exact checks for semistable degenerations: fibre identities, monodromy
complexes, and L-function leading values.

commands:
  validate FILE                      check the sign identities of every fibre
  dim-theorem FILE [--q N] [--a N]   compare group dimensions with local
                                     L-factor vanishing orders
  check {A1,A2,B1FF,B2FF,CFF} FILE   run one of the conjecture checks
  complex FILE [--q N] [--star N]    build the small complex and report its
                                     cohomology
  quasi-iso FILE [--star N]          compare Cone(N) cohomology with the small
                                     complex (default: sweep 0..dim+2)
  example NAME [key=value ...] [-o FILE]
                                     write a built-in example bundle

options (before COMMAND):
  -h, --help                show this help and exit (also after COMMAND)
  --tsv                     machine-readable output: check, place, verdict,
                            value
  --strict, --no-strict     reject unknown keys in bundle files (default: on)

A long option may be shortened to any unique prefix (--st for --star) and
take its value as --q=3; -o takes it as -oFILE too.  Every argument after
-- is positional.
"""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _twist(text: str) -> int:
    """An integer no larger than MAX_TWIST in magnitude, as params.a/q_coh."""
    value = _int(text)
    if abs(value) > MAX_TWIST:
        raise ValueError(f"exceeds {MAX_TWIST} in magnitude")
    return value


def _conjecture(text: str) -> str:
    if text not in CONJECTURES:
        choices = ", ".join(map(repr, CONJECTURES))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return text


# An option maps its spelling to (destination, converter); a flag, which
# takes no value, has the value it stores in place of a converter, and
# help has None.  Each command lists its positionals as (destination,
# converter), where a None converter collects every further positional.
_HELP = {"-h": ("help", None), "--help": ("help", None)}
_GLOBAL = {**_HELP, "--tsv": ("tsv", True), "--strict": ("strict", True),
           "--no-strict": ("strict", False)}
_COMMANDS = {
    "validate": ((("file", str),), _HELP),
    "dim-theorem": ((("file", str),), {**_HELP, "--q": ("q", _twist), "--a": ("a", _twist)}),
    "check": ((("conjecture", _conjecture), ("file", str)), _HELP),
    "complex": ((("file", str),), {**_HELP, "--q": ("q", _int), "--star": ("star", _int)}),
    "quasi-iso": ((("file", str),), {**_HELP, "--star": ("star", _int)}),
    "example": ((("name", str), ("params", None)),
                {**_HELP, "-o": ("output", str), "--output": ("output", str)}),
}

# How usage errors name a positional whose destination differs.
_METAVARS = {"params": "key=value"}

# A token argparse reads as a negative number, so as a positional; matched
# only against an unknown dash token whose second character is a digit or
# a point, so re is imported, and compiles it, only then.
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _classify(token: str, options: dict) -> tuple[str | None, str | None] | None:
    """None if ``token`` (not ``--``) is a positional, else the option
    spelling it names, or None for an unknown option, and the value
    written into the token (``--q=3``, ``-oFILE``) or None."""
    if token in options:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    head, eq, tail = token.partition("=")
    if eq and head in options:
        return head, tail
    if token[1] == "-":
        hits = [s for s in options if s.startswith(head)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], tail if eq else None
    elif token[:2] in options:
        return token[:2], token[2:]
    if " " in token:
        return None
    if token[1].isdigit() or token[1] == ".":  # else _NEGATIVE cannot match
        import re

        if re.match(_NEGATIVE, token):
            return None
    return None, None


def _name(spelling: str, options: dict) -> str:
    """Every spelling of the option, as usage errors name it."""
    dest = options[spelling][0]
    return "/".join(s for s, (d, _) in options.items() if d == dest)


def _convert(name: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None


def _option(argv: list[str], i: int, found: tuple, options: dict, args: dict,
            extras: list[str]) -> int:
    """Act on the option ``argv[i]``, read as ``found``, and return the
    index past it, and past the next token if that held its value.  A
    short flag runs on into the short options after it in the token
    (``-hh``, ``-hoFILE``); every one is checked before any acts."""
    spelling, given = found
    if spelling is None:
        extras.append(argv[i])
        return i + 1
    i += 1
    run = []
    while not callable(options[spelling][1]):
        run.append((spelling, None))
        if given is None:
            break
        following = "-" + given[:1]
        if spelling[1] == "-" or following not in options:
            raise _UsageError(
                f"argument {_name(spelling, options)}: ignored explicit argument {given!r}"
            )
        spelling, given = following, given[1:] or None
    else:
        if given is None:
            if i == len(argv) or argv[i] == "--" or _classify(argv[i], options) is not None:
                raise _UsageError(f"argument {_name(spelling, options)}: expected one argument")
            given, i = argv[i], i + 1
        run.append((spelling, given))
    for spelling, given in run:
        dest, convert = options[spelling]
        if convert is None:
            raise _HelpRequested
        if callable(convert):
            args[dest] = _convert(_name(spelling, options), convert, given)
        else:
            args[dest] = convert
    return i


def _parse(argv: list[str]) -> dict:
    """The arguments of ``argv`` by destination; raises _UsageError or
    _HelpRequested.  Global flags come before the command, the command's
    options and positionals in any order, and every token after ``--``
    is positional.  This is the grammar of the argparse parser this
    replaced, except that ``example`` takes key=value pairs anywhere
    after NAME, also past an option.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    for token in argv[:end]:  # an ambiguous prefix fails before any flag acts
        _classify(token, _GLOBAL)
    args: dict = {"tsv": False, "strict": True}
    extras: list[str] = []
    i = 0
    while i < len(argv) and argv[i] != "--" and (found := _classify(argv[i], _GLOBAL)) is not None:
        i = _option(argv, i, found, _GLOBAL, args, extras)
    if argv[i:] in ([], ["--"]):
        raise _UsageError("the following arguments are required: command")
    command = args["command"] = argv[i]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    try:
        _parse_command(argv, i + 1, _COMMANDS[command], args, extras)
    except _UsageError as exc:
        raise _UsageError(str(exc), f"degen {command}") from None
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _parse_command(argv: list[str], i: int, command: tuple, args: dict,
                   extras: list[str]) -> None:
    """Read ``argv[i:]`` against one command's ``(positionals, options)``
    into ``args``, and what the command does not take into ``extras``."""
    positionals, options = command
    args.update((dest, None) for dest, convert in options.values() if callable(convert))
    args.update((dest, []) for dest, convert in positionals if convert is None)
    waiting = list(positionals)
    literal = False
    filled = -1  # index past the last token that filled a positional
    while i < len(argv):
        token = argv[i]
        found = None if literal or token == "--" else _classify(token, options)
        if found is not None:
            i = _option(argv, i, found, options, args, extras)
            continue
        i += 1
        if token == "--" and not literal:
            literal = True
            # argparse counts a separator that no positional next to it takes
            if not waiting and filled != i - 1:
                extras.append(token)
        elif not waiting:
            extras.append(token)
        elif waiting[0][1] is None:
            args[waiting[0][0]].append(token)
        else:
            dest, convert = waiting.pop(0)
            args[dest] = _convert(dest, convert, token)
            filled = i
    if waiting and waiting[0][1] is not None:
        missing = ", ".join(_METAVARS.get(dest, dest) for dest, _ in waiting)
        raise _UsageError(f"the following arguments are required: {missing}")


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value, got {pair!r}")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"parameter {key!r} needs an integer, got {value!r}") from exc
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _HelpRequested:
        return _write(USAGE, 0)
    except _UsageError as exc:
        return _complain(f"{exc.prog}: error: {exc}", 3)

    command = args["command"]
    try:
        if command == "example":
            name = args["name"]
            bundle = build_example(name, _parse_overrides(args["params"]))
            path = args["output"] if args["output"] is not None else f"{name}.json"
            save(bundle, path)
            report = CheckReport((ReportLine("example", name, "PASS", path),))
        else:
            bundle = load(args["file"], strict=args["strict"])
            if command == "validate":
                report = run_validate(bundle)
            elif command == "dim-theorem":
                report = run_dim_theorem(bundle, args["q"], args["a"])
            elif command == "check":
                report = run_conjecture(bundle, args["conjecture"])
            elif command == "complex":
                report = run_complex(bundle, args["q"], args["star"])
            elif command == "quasi-iso":
                report = run_quasi_iso(bundle, args["star"])
            else:
                raise AssertionError(command)
    except (ValueError, OSError) as exc:  # BundleError and DescriptorError among them
        return _complain(f"degen: error: {exc}", 3)

    return _write(render_tsv(report) if args["tsv"] else render_text(report), report.exit_code)


def _write(text: str, code: int, stream: str = "stdout") -> int:
    """Write ``text`` to ``sys.stdout`` (or ``sys.stderr``) and return
    ``code``.  When the stream is closed or the write fails (a full disk, a
    closed pipe), return 120 instead, the code the interpreter exits with
    when its last flush of a standard stream fails; a failed report says
    so on stderr first."""
    try:
        out = getattr(sys, stream)
        if out is None:
            raise OSError(f"{stream} is closed")
        out.write(text)
    except OSError as exc:
        if stream == "stdout":
            _complain(f"degen: error: cannot write to stdout: {exc}", 120)
        return 120
    return code


def _complain(message: str, code: int) -> int:
    """Say ``message`` on stderr and return ``code``, or 120 when stderr
    cannot be written."""
    return _write(message + "\n", code, "stderr")


def run() -> None:
    """Run ``main()`` on the command line and end the process with its code.

    The cyclic garbage collector is off for the whole job: a command makes
    next to no reference cycles, and the collector's passes over the
    objects it builds find nothing to free.  Once ``main()`` returns, the
    process does what interpreter finalisation would do that can be seen
    from outside, in its order: the atexit handlers run, then stdout and
    stderr are flushed, and ``os._exit`` ends the process without tearing
    down the modules and objects it built.  If a flush fails (a full disk,
    a closed pipe), the interpreter exits as usual instead, reporting the
    failure the way it always has (exit code 120).  ``main()`` itself
    stays safe to call in-process: it neither touches the collector nor
    exits.
    """
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # whatever it was, finalisation meets and reports it again
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
