"""The commands behind the `logdec` front end: system loading, report
building and one `cmd_*` function per subcommand.

`cli.main` imports this module only once the arguments parse, so that
`--version`, `--help` and argument errors compile none of it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from . import __version__

# Library modules are imported where a command uses them, so that each
# process compiles only what it runs: only the census and `--gate`/`--table`
# systems load `gates`.
if TYPE_CHECKING:
    from .core import Distribution, Partition
    from .ideals import Ideal

DECOMPOSE_MAX_N = 16
SYSTEM_KEYS = {"outcomes", "p", "variables"}


class PreconditionError(Exception):
    """Structurally valid input that the command cannot act on (exit code 4)."""


class System(NamedTuple):
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
    except RecursionError:  # a RuntimeError, which would exit 5 as an internal error
        raise ValueError("the JSON nests too deeply") from None
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
    return System(dist=dist, variables=parts)


def _load_system(args) -> System:
    sources = [s for s in (args.file, args.gate, args.table) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --file, --gate, --table")
    if args.table is None and (args.nx, args.ny) != (None, None):
        raise ValueError("--nx and --ny go with --table")
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
        cells = [c.strip() for c in args.table.split(",")]
        if "" in cells:
            raise ValueError("--table has an empty cell")
        gate = build_gate(args.nx, args.ny, cells)
    variables = {"X": gate.x, "Y": gate.y, "Z": gate.z}
    return System(Distribution.uniform(gate.space), variables)


def _pick_variables(system: System, names: list[str] | None) -> tuple[list[str], list[Partition]]:
    """The named variables, or all of them when none are named: (names, partitions)."""
    names = list(system.variables) if names is None else names
    for name in names:
        if name not in system.variables:
            raise ValueError(f"unknown variable name {name!r}")
    return names, [system.variables[name] for name in names]


def _coinfo_variables(system: System, names: list[str] | None) -> tuple[list[str], list[Partition]]:
    """_pick_variables for a co-information: at least two, at most MAX_VARIABLES."""
    from .contents import check_variable_capacity

    names, parts = _pick_variables(system, names)
    if len(parts) < 2:
        raise ValueError("co-information needs at least two variable names")
    check_variable_capacity(len(parts))
    return names, parts


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
    space = dist.space
    if space.n > DECOMPOSE_MAX_N:
        raise CapacityError(
            f"decompose listing is capped at {DECOMPOSE_MAX_N} outcomes"
        )
    if args.variable is not None:
        _, [part] = _pick_variables(system, [args.variable])
        atoms = content(part).enumerate()
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
    names, parts = _coinfo_variables(system, args.variables)
    value = coinformation_numeric(dist, parts)
    results: dict = {"variables": names, "coinformation": value}
    lines = [f"co-information({', '.join(names)}) = {value:+.6f} bits"]
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


def _witness_measure(ideal: Ideal, weights: tuple[int, ...]) -> tuple[Distribution, float]:
    """A witness's integer weights over their total, and the ideal's measure there."""
    from .core import Distribution
    from .measure import mu_ideal

    total = sum(weights)
    dist = Distribution(ideal.space, tuple(k / total for k in weights))
    return dist, mu_ideal(dist, ideal)


def cmd_census(args, argv) -> None:
    from .gates import ALWAYS_NEGATIVE, census

    # Rows are built as classes arrive: mu_ideal reuses each class's cached expansion.
    rows = [
        {
            "table": list(c.table),
            "orbit_size": c.orbit_size,
            "generators": _format_generators(c.ideal),
            "degrees": list(c.ideal.degree_profile()),
            "parity": c.parity.tag if c.parity else None,
            "survey": {
                "samples": c.survey.samples,
                "positive": c.survey.positive,
                "negative": c.survey.negative,
                "zero": c.survey.zero,
                "min": c.survey.min_value,
                "max": c.survey.max_value,
            },
            "verdict": c.verdict,
            "seed": c.survey.seed,
            **{
                side: {"p": list(dist.weights), "mu": mu}
                for side, w in (("witness_positive", c.witness_positive),
                                ("witness_negative", c.witness_negative))
                if w is not None
                for dist, mu in [_witness_measure(c.ideal, w)]
            },
        }
        for c in census(args.nx, args.ny, samples=args.samples, seed=args.seed)
    ]
    negatives = sum(1 for r in rows if r["verdict"] == ALWAYS_NEGATIVE)
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
    lines.append(f"{ALWAYS_NEGATIVE} classes: {negatives}")
    _emit(args, argv, results, lines, args.seed)


def cmd_witness(args, argv) -> None:
    from .contents import coinformation_content, coinformation_numeric
    from .parity import witness_distributions

    system = _load_system(args)
    names, parts = _coinfo_variables(system, args.variables)
    ideal = coinformation_content(parts)
    if ideal.is_empty:
        raise PreconditionError("the co-information ideal is empty; measure is 0")
    parities = ideal.generator_parities()
    if len(parities) != 2:
        kind = "even" if parities == {0} else "odd"
        raise PreconditionError(
            f"co-information ideal is not strongly mixed (pure {kind} generators); "
            "the witness construction needs generators of both parities"
        )
    results = {"variables": names, "generators": _format_generators(ideal)}
    lines = []
    for side, w in zip(("positive", "negative"), witness_distributions(ideal)):
        dist, mu = _witness_measure(ideal, w)
        coinfo = coinformation_numeric(dist, parts)
        results[side] = {"p": list(dist.weights), "mu": mu, "coinformation": coinfo}
        ps = ", ".join(f"{x:.6g}" for x in dist.weights)
        lines.append(f"{side} witness: p = [{ps}]   mu = {mu:+.6f} bits")
    _emit(args, argv, results, lines)
