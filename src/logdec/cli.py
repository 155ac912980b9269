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

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import __version__

# Library modules are imported where a command uses them, so that each
# process compiles only what it runs: `--version`, `--help` and argument
# errors load none, and only the census and `--gate`/`--table` systems
# load `gates`.
if TYPE_CHECKING:
    from .core import Distribution, OutcomeSpace, Partition
    from .ideals import Ideal

DECOMPOSE_MAX_N = 16
SYSTEM_KEYS = {"outcomes", "p", "variables"}


class PreconditionError(Exception):
    """Structurally valid input that the command cannot act on (exit code 4)."""


class System(NamedTuple):
    space: OutcomeSpace
    dist: Distribution | None
    variables: dict[str, Partition]


def _list_of(value, kind) -> bool:
    """A JSON array of `kind` values; true and false are not numbers."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    )


def parse_system(text: str) -> System:
    """System from its JSON description.

    Only the JSON shape is checked here; OutcomeSpace, Distribution and
    Partition check the values, and a partition's errors name its variable.
    """
    from .core import Distribution, OutcomeSpace, Partition

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ValueError("system file must be a JSON object")
    unknown = set(data) - SYSTEM_KEYS
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(sorted(unknown))}")
    outcomes = data.get("outcomes")
    if not _list_of(outcomes, str) or not outcomes:
        raise ValueError('"outcomes" must be a nonempty array of strings')
    p = data.get("p")
    if p is not None and not _list_of(p, (int, float)):
        raise ValueError('"p" must be an array of numbers')
    variables = data.get("variables")
    if not isinstance(variables, dict) or not variables:
        raise ValueError('"variables" must be a nonempty object')
    for name, blocks in variables.items():
        if not _list_of(blocks, int):
            raise ValueError(f'variable "{name}" must be an array of block indices')
    space = OutcomeSpace(len(outcomes), labels=tuple(outcomes))
    dist = Distribution(space, p) if p is not None else None
    parts = {}
    for name, blocks in variables.items():
        try:
            parts[name] = Partition(space, blocks)
        except ValueError as e:
            raise ValueError(f'variable "{name}": {e}') from None
    return System(space=space, dist=dist, variables=parts)


def _load_system(args) -> System:
    sources = [s for s in (args.file, args.gate, args.table) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --file, --gate, --table")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read {args.file}: {e.strerror}") from None
        return parse_system(text)
    from .core import Distribution
    from .gates import build_gate, named_gate

    if args.gate is not None:
        gate = named_gate(args.gate)
    elif args.nx is None or args.ny is None:
        raise ValueError("--table needs --nx and --ny")
    else:
        gate = build_gate(args.nx, args.ny, [c.strip() for c in args.table.split(",")])
    variables = {"X": gate.x, "Y": gate.y, "Z": gate.z}
    return System(gate.space, Distribution.uniform(gate.space), variables)


def _pick_variables(system: System, names: list[str] | None) -> list[tuple[str, Partition]]:
    if names is None:
        return list(system.variables.items())
    out = []
    for name in names:
        if name not in system.variables:
            raise ValueError(f"unknown variable name {name!r}")
        out.append((name, system.variables[name]))
    return out


def _require_distribution(system: System) -> Distribution:
    if system.dist is None:
        raise PreconditionError(
            "this command needs a distribution: add a \"p\" array to the system file"
        )
    if not system.dist.normalized:
        raise ValueError("entropy requires a normalized distribution")
    return system.dist


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, argv: list[str], results, text_lines, seed: int | None = None) -> None:
    """Print the report: with --json the whole document, numbers at 12
    significant digits; otherwise the text lines."""
    if args.json:
        report = {
            "command": args.command,
            "argv": argv,
            "version": __version__,
            "seed": seed,
            "results": _round_floats(results),
        }
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def _format_generators(ideal: Ideal) -> list[str]:
    return [ideal.space.format_atom(g) for g in ideal.sorted_generators()]


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_decompose(args, argv) -> None:
    from .contents import content
    from .core import CapacityError, degree, enumerate_complex
    from .measure import entropy, mu_atom, mu_ideal

    system = _load_system(args)
    dist = _require_distribution(system)
    space = system.space
    if space.n > DECOMPOSE_MAX_N:
        raise CapacityError(
            f"decompose listing is capped at {DECOMPOSE_MAX_N} outcomes"
        )
    if args.variable is not None:
        chosen = _pick_variables(system, [args.variable])
        atoms = content(chosen[0][1]).enumerate()
    else:
        atoms = enumerate_complex(space)
    atom_rows = [
        {"atom": space.format_atom(a), "degree": degree(a), "mu": mu_atom(dist, a)}
        for a in atoms
    ]
    totals = {}
    for name, part in system.variables.items():
        totals[name] = {
            "mu_content": mu_ideal(dist, content(part)),
            "entropy": entropy(dist, part),
        }
    results = {"atoms": atom_rows, "totals": totals}
    rows = [[r["atom"], str(r["degree"]), f"{r['mu']:+.6f}"] for r in atom_rows]
    lines = _table(rows, ["atom", "degree", "mu"])
    lines.append("")
    for name, tot in results["totals"].items():
        lines.append(
            f"{name}: mu(content) = {tot['mu_content']:+.6f}   H = {tot['entropy']:.6f}"
        )
    _emit(args, argv, results, lines)


def cmd_coinfo(args, argv) -> None:
    from .contents import coinformation_content, coinformation_numeric
    from .measure import mu_ideal

    system = _load_system(args)
    dist = _require_distribution(system)
    chosen = _pick_variables(system, args.variables)
    if len(chosen) < 2:
        raise ValueError("co-information needs at least two variable names")
    parts = [p for _, p in chosen]
    value = coinformation_numeric(dist, parts)
    results: dict = {
        "variables": [name for name, _ in chosen],
        "coinformation": value,
    }
    lines = [f"co-information({', '.join(results['variables'])}) = {value:+.6f} bits"]
    if args.structure:
        from .parity import classify_parity

        ideal = coinformation_content(parts)
        parity = None if ideal.is_empty else classify_parity(ideal)
        results["structure"] = {
            "generators": _format_generators(ideal),
            "degrees": list(ideal.degree_profile()),
            "parity": parity.tag if parity else None,
            "mu": mu_ideal(dist, ideal),
        }
        lines.append(f"generators: [{', '.join(results['structure']['generators'])}]")
        lines.append(f"degrees: {results['structure']['degrees']}")
        lines.append(f"parity: {results['structure']['parity']}")
        lines.append(f"mu(ideal) = {results['structure']['mu']:+.6f} bits")
    _emit(args, argv, results, lines)


def _survey_dict(survey) -> dict:
    return {
        "samples": survey.samples,
        "positive": survey.positive,
        "negative": survey.negative,
        "zero": survey.zero,
        "min": survey.min_value,
        "max": survey.max_value,
    }


def cmd_census(args, argv) -> None:
    from .gates import census, check_census_arguments

    check_census_arguments(args.nx, args.ny, args.samples, args.seed)
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
        print(f"generated seed: {seed}", file=sys.stderr)
    classifications = census(args.nx, args.ny, samples=args.samples, seed=seed)
    rows = []
    for c in classifications:
        row = {
            "table": list(c.table),
            "orbit_size": c.orbit_size,
            "generators": _format_generators(c.ideal),
            "degrees": list(c.degree_profile),
            "parity": c.parity.tag if c.parity else None,
            "survey": _survey_dict(c.survey),
            "verdict": c.verdict,
            "seed": c.seed,
        }
        for side, w in (("witness_positive", c.witness_positive),
                        ("witness_negative", c.witness_negative)):
            if w is not None:
                row[side] = {"p": list(w.dist.weights), "mu": w.mu}
        rows.append(row)
    negatives = sum(1 for c in classifications if c.verdict == "AlwaysNegative")
    results = {
        "nx": args.nx,
        "ny": args.ny,
        "samples": args.samples,
        "classes": rows,
        "always_negative_classes": negatives,
    }
    text_rows = [
        [
            ",".join(str(t) for t in r["table"]),
            ",".join(str(d) for d in r["degrees"]) or "-",
            str(r["parity"]),
            f"+{r['survey']['positive']}/-{r['survey']['negative']}/0:{r['survey']['zero']}",
            r["verdict"],
        ]
        for r in rows
    ]
    lines = _table(text_rows, ["table", "degrees", "parity", "survey", "verdict"])
    lines.append("")
    lines.append(f"AlwaysNegative classes: {negatives}")
    _emit(args, argv, results, lines, seed)


def cmd_witness(args, argv) -> None:
    from .contents import check_variable_capacity, coinformation_content, coinformation_numeric
    from .parity import witness_distributions

    system = _load_system(args)
    chosen = _pick_variables(system, args.variables)
    if len(chosen) < 2:
        raise ValueError("witness construction needs at least two variable names")
    check_variable_capacity(len(chosen))
    parts = [p for _, p in chosen]
    ideal = coinformation_content(parts)
    if ideal.is_empty:
        raise PreconditionError("the co-information ideal is empty; measure is 0")
    parities = ideal.generator_parities()
    if len(parities) != 2:
        kind = "even" if parities == {0} else "odd"
        raise PreconditionError(
            f"co-information ideal is not strongly mixed (pure {kind} generators); "
            "no two-sided witness exists"
        )
    results = {
        "variables": [name for name, _ in chosen],
        "generators": _format_generators(ideal),
    }
    lines = []
    for side, w in zip(("positive", "negative"), witness_distributions(ideal)):
        results[side] = {
            "p": list(w.dist.weights),
            "mu": w.mu,
            "coinformation": coinformation_numeric(w.dist, parts),
        }
        ps = ", ".join(f"{x:.6g}" for x in w.dist.weights)
        lines.append(f"{side} witness: p = [{ps}]   mu = {w.mu:+.6f} bits")
    _emit(args, argv, results, lines)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


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
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("coinfo", help="numeric co-information, optionally with structure")
    _add_system_arguments(p)
    p.add_argument("-v", "--variables", nargs="+", help="variable names (default: all)")
    p.add_argument("--structure", action="store_true", help="also report the ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coinfo)

    p = sub.add_parser("census", help="classify every gate of a given shape")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("witness", help="distributions giving both co-information signs")
    _add_system_arguments(p)
    p.add_argument("-v", "--variables", nargs="+", help="variable names (default: all)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from .core import CapacityError

    try:
        args.func(args, argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`| head`); devnull takes the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
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
