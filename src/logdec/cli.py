"""Command-line front end: decompose systems, compute co-information,
run gate censuses, and construct witness distributions.

Systems are described either by a JSON file (keys: "outcomes", optional
"p", "variables" mapping names to block indices per outcome) or inline
via --gate "xor:2x2" / --table "0,1,1,0" --nx 2 --ny 2 shortcuts.
Reports go to stdout as aligned text or, with --json, as a JSON document
with numbers at 12 significant digits; diagnostics go to stderr.

Exit codes: 0 success, 2 invalid input (any ValueError: a malformed
system file or argument, or a value that OutcomeSpace, Distribution or
Partition rejects), 3 capacity, 4 failed precondition (for example
witness construction on a non-mixed system), 5 internal error (a
violated internal invariant, reported on one line), 141 stdout closed
before the report was written (as a shell reports a process ended by
SIGPIPE; nothing is printed).
"""

import argparse
import os
import sys

from . import __version__

# The commands live in `commands` and load only once the arguments parse,
# so that `--version`, `--help` and argument errors compile this module
# alone.


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", help="JSON system description")
    parser.add_argument("--gate", help='named gate, like "xor:2x2" or "or"')
    parser.add_argument("--table", help='gate output table, like "0,1,1,0"')
    parser.add_argument("--nx", type=int, help="gate rows (with --table)")
    parser.add_argument("--ny", type=int, help="gate columns (with --table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdec",
        description="Signed-measure entropy decomposition and co-information structure",
    )
    parser.add_argument("--version", action="version", version=f"logdec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="list atom measures and per-variable totals")
    _add_system_arguments(p)
    p.add_argument("--variable", help="restrict the listing to one variable's content")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("coinfo", help="numeric co-information, optionally with structure")
    _add_system_arguments(p)
    p.add_argument("-v", "--variables", nargs="+", help="variable names (default: all)")
    p.add_argument("--structure", action="store_true", help="also report the ideal")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("census", help="classify every gate of a given shape")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witness", help="distributions giving both co-information signs")
    _add_system_arguments(p)
    p.add_argument("-v", "--variables", nargs="+", help="variable names (default: all)")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from . import commands
    from .core import CapacityError

    try:
        getattr(commands, "cmd_" + args.command)(args, argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`| head`); devnull takes the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except commands.PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
