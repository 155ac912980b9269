"""Command-line front end: decompose systems, compute co-information,
run gate censuses, and construct witness distributions.

Systems are described either by a JSON file (keys: "outcomes", optional
"p", "variables" mapping names to block indices per outcome) or inline
via --gate "xor:2x2" / --table "0,1,1,0" --nx 2 --ny 2 shortcuts.
Reports go to stdout as aligned text or, with --json, as a JSON document
with numbers at 12 significant digits; diagnostics go to stderr.

USAGE, which `logdec --help` prints, states the grammar.  Beyond it: a
token that reads as a negative number (`-1`, `-.5`), a lone `-` and a
token with a space that names no option are values, not options; `--`
and every token after it are stray; and an unknown option or a stray
value is refused once the rest has parsed, so a later `--help` still
prints the usage.

Exit codes: 0 success, 2 invalid input (any ValueError: an argument the
parser refuses, such as no or an unknown command, an unknown or
ambiguous option, a missing or non-integer value, a value given to a
flag or a census without --nx and --ny; a malformed system file; or a
value that OutcomeSpace, Distribution or Partition rejects), 3 capacity, 4
failed precondition (for example witness construction on a non-mixed
system), 5 internal error (a violated internal invariant, reported on
one line), 141 stdout closed before the report was written (as a shell
reports a process ended by SIGPIPE; nothing is printed).  An argument
error is one `error: ...` line on stderr, with nothing on stdout.
"""

import os
import sys
from types import SimpleNamespace

from . import __version__

# The commands live in `commands` and load only once the arguments parse,
# so that `--version`, `--help` and argument errors compile this module
# alone.

# Each command's options and the type of their value: str and int take
# one value, list one or more (`-v` is `--variables`), bool none (a
# flag).  A flag defaults to False, --samples to 1000, the rest to None.
_SYSTEM = {"file": str, "gate": str, "table": str, "nx": int, "ny": int}
COMMANDS = {
    "decompose": {**_SYSTEM, "variable": str, "json": bool},
    "coinfo": {**_SYSTEM, "variables": list, "structure": bool, "json": bool},
    "census": {"nx": int, "ny": int, "samples": int, "seed": int, "json": bool},
    "witness": {**_SYSTEM, "variables": list, "json": bool},
}
_DEFAULTS = {"samples": 1000}
_HELP = {"-h": "help", "--help": "help"}
_TOP = {**_HELP, "--version": "version"}

USAGE = """\
usage: logdec [--version | -h | --help]
       logdec COMMAND [OPTION ...]

Signed-measure entropy decomposition and co-information structure.

commands:
  decompose  list atom measures and per-variable totals
  coinfo     numeric co-information, optionally with structure
  census     classify every gate of a given shape
  witness    distributions giving both co-information signs

system options of decompose, coinfo and witness (one of --file, --gate, --table):
  --file PATH              JSON system description
  --gate NAME              named gate, like "xor:2x2" or "or"
  --table CELLS            gate output table, like "0,1,1,0"
  --nx N, --ny N           gate rows and columns (with --table)

decompose:
  --variable NAME          restrict the listing to one variable's content
coinfo:
  -v, --variables NAME...  variable names (default: all)
  --structure              also report the ideal
census:
  --nx N, --ny N           gate rows and columns (required)
  --samples N              sign-survey samples per class (default 1000)
  --seed N                 survey seed (default: generated, on stderr)
witness:
  -v, --variables NAME...  variable names (default: all)
every command:
  --json                   the report as JSON
  -h, --help               this text

Write an option and its value as two arguments or as --opt=value; a long
option may be shortened to any unambiguous prefix (--struct); a repeated
option keeps its last value."""


def _negative_number(token: str) -> bool:
    """A value that starts with '-', not an option: -5, -0.5 or -.5."""
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _option(token: str, flags: dict) -> tuple[str, str | None] | None:
    """The flag a token names and the value it carries after '=' (None
    without one), or None when the token is a value.  A long option may be
    any prefix of one flag (an ambiguous prefix is a ValueError).  An
    unknown option, a value glued to `-v` (`-vNAME`) among them, comes back
    as itself."""
    if token[:1] != "-" or token == "-" or _negative_number(token):
        return None
    flag, eq, value = token.partition("=")
    if flag not in flags and flag.startswith("--") and len(flag) > 2:
        matches = [f for f in flags if f.startswith(flag)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option {flag}: could be {', '.join(matches)}")
        flag = matches[0] if matches else flag
    if flag in flags:
        return flag, value if eq else None
    return None if " " in token and token[:2] not in flags else (token, None)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the `cmd_*` functions read: `command` and each of its
    options.  None once `--help` or `--version` has printed; a refused
    argument list is a ValueError."""
    # Before the command the flags are _TOP's; from it on, the command's.
    command, options, flags, args = None, {}, _TOP, {}
    hits = [_option(token, flags) for token in argv]
    stray = []  # unknown options and stray values, refused at the end
    i = 0
    while i < len(argv):
        token, hit = argv[i], hits[i]
        i += 1
        if token == "--":
            stray += argv[i - 1:]
            break
        if hit is None and command is None:
            command, options = token, COMMANDS.get(token)
            if options is None:
                raise ValueError(f"unknown command {token!r}; choose one of {', '.join(COMMANDS)}")
            flags = {"--" + name: name for name in options} | _HELP
            if "variables" in options:
                flags["-v"] = "variables"
            hits[i:] = [_option(t, flags) for t in argv[i:]]  # an ambiguous prefix fails first
            args = {name: False if kind is bool else _DEFAULTS.get(name) for name, kind in options.items()}
            continue
        if hit is None or hit[0] not in flags:
            stray.append(token)
            continue
        flag, value = hit
        name = flags[flag]
        kind = options.get(name, bool)  # help and version belong to no command
        if kind is bool:
            if value is not None:
                raise ValueError(f"{flag} takes no value")
            if name in ("help", "version"):
                print(USAGE if name == "help" else f"logdec {__version__}")
                return None
            args[name] = True
            continue
        if value is None:
            values = []
            while i < len(argv) and hits[i] is None and (kind is list or not values):
                values.append(argv[i])
                i += 1
        else:
            values = [value]
        if not values:
            raise ValueError(f"{flag} needs a value")
        if kind is int:
            try:
                values = [int(values[0])]
            except ValueError:
                raise ValueError(f"{flag} takes an integer, got {values[0]!r}") from None
        args[name] = values if kind is list else values[0]
    if command is None:
        raise ValueError(f"no command given; choose one of {', '.join(COMMANDS)}")
    if command == "census" and None in (args["nx"], args["ny"]):
        raise ValueError("census needs --nx and --ny")
    if stray:
        raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=command, **args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        code = 0 if args is None else _run(args, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (`| head`); devnull takes the last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _run(args: SimpleNamespace, argv: list[str]) -> int:
    """Run the command and map each exception past ValueError and a closed
    stdout, which `main` handles, to its exit code."""
    from . import commands
    from .core import CapacityError

    try:
        getattr(commands, "cmd_" + args.command)(args, argv)
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except commands.PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 4
    except (RuntimeError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    return 0


def run() -> None:
    """The process entry of `python -m logdec.cli` and the `logdec` script:
    once stdout and stderr are flushed (a failed flush is ignored), `main`'s
    code ends the process through `os._exit`, which skips the interpreter's
    teardown, its atexit handlers and finalizers included."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
