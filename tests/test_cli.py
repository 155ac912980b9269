import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import logdec
import logdec.cli
from logdec.cli import COMMANDS, USAGE, main, parse_args
from logdec.commands import parse_system

SRC = str(Path(logdec.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"

FIG_SYSTEM = {
    "outcomes": ["1", "2", "3"],
    "p": [1 / 3, 1 / 3, 1 / 3],
    "variables": {"X": [0, 1, 1], "Y": [0, 1, 0]},
}


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(FIG_SYSTEM))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv, **kwargs) -> subprocess.Popen:
    """Start `python -m logdec.cli argv` on this source tree, with piped
    output unless `kwargs` say otherwise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "logdec.cli", *argv], env=env,
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs},
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line had before it parsed from its
    own option table: the reference for every argument list below."""
    def add_system_arguments(parser):
        parser.add_argument("--file", help="JSON system description")
        parser.add_argument("--gate", help='named gate, like "xor:2x2" or "or"')
        parser.add_argument("--table", help='gate output table, like "0,1,1,0"')
        parser.add_argument("--nx", type=int, help="gate rows (with --table)")
        parser.add_argument("--ny", type=int, help="gate columns (with --table)")

    parser = argparse.ArgumentParser(
        prog="logdec",
        description="Signed-measure entropy decomposition and co-information structure",
    )
    parser.add_argument("--version", action="version", version=f"logdec {logdec.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="list atom measures and per-variable totals")
    add_system_arguments(p)
    p.add_argument("--variable", help="restrict the listing to one variable's content")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("coinfo", help="numeric co-information, optionally with structure")
    add_system_arguments(p)
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
    add_system_arguments(p)
    p.add_argument("-v", "--variables", nargs="+", help="variable names (default: all)")
    p.add_argument("--json", action="store_true")

    return parser


ORACLE = build_parser()
# Values for each option type, as written after the option: option-like
# words, negative numbers, spaces and empty strings included.
STR_VALUES = ["x", "", "-", "-1", "-.5", "a b", "-x y", "-vX y", "-x", "--bogus", "--json", "-h"]
INT_VALUES = ["2", "0", "-1", " 3 ", "+4", "1_0", "٣", "x", "1.5", "", "-.5", "--json"]
LIST_VALUES = [["X"], ["X", "Y"], ["X", "-1"], ["-", "a b"], [], ["-x"], ["--json"]]
# argparse forms the table parser refuses on purpose: a value glued to -v.
DROPPED = [["coinfo", "-vX"], ["coinfo", "--gate", "x", "-vab"], ["witness", "-vX=Y"]]
# Argument lists that straddle the command, where the parser switches from
# the top-level flags to the command's.
BOUNDARY = [
    ["--bogus"], ["--bogus", "--help"], ["--help", "--bogus"], ["--bogus", "--version"],
    ["-h", "foo"], ["--version", "coinfo"], ["--vers", "--bogus"], ["--version=", "coinfo"],
    ["coinfo", "--help", "--version"], ["coinfo", "census"], ["-1", "coinfo"], ["a b", "coinfo"],
    ["--he", "coinfo", "--n"], ["coinfo", "--n", "--help"], ["--bogus", "census", "--nx", "2"],
]
# `--` ends the options: what follows it is no option, and no command takes a
# positional argument.
END_OF_OPTIONS = [
    ["--", "--help"], ["--", "-h"], ["--", "--version"], ["coinfo", "--", "--help"],
    ["census", "--nx", "2", "--ny", "2", "--", "--help"], ["--", "coinfo"],
    ["coinfo", "-v", "--", "X"], ["coinfo", "-v", "X", "--", "Y"], ["--help", "--"],
    ["coinfo", "--help", "--"],
]
NOT_AN_OPTION_OF = {
    "decompose": ["--variables", "-v", "--structure", "--samples", "--seed", "--version"],
    "coinfo": ["--variable", "--samples", "--seed", "--version"],
    "census": ["--file", "--gate", "--table", "--variable", "-v", "--structure", "--version"],
    "witness": ["--variable", "--structure", "--samples", "--seed", "--version"],
}


def _prefixes(flag: str) -> list[str]:
    return [flag[:k] for k in range(3, len(flag))]


def _option_forms(name: str, kind) -> list[list[str]]:
    """Argument fragments that give one option: every value of its type in
    the separate and the '=' form, and each shorter prefix of the name."""
    flag = "--" + name
    if kind is bool:
        return [[f] for f in [flag, *_prefixes(flag)]] + [[flag + "=1"], [flag + "="]]
    forms = []
    values = {str: STR_VALUES, int: INT_VALUES, list: LIST_VALUES}[kind]
    for value in values:
        words = value if kind is list else [value]
        forms.append([flag, *words])
        if words:
            forms.append([f"{flag}={words[0]}", *words[1:]])
    forms += [[p, "7"] for p in _prefixes(flag)]
    if kind is list:
        forms += [["-v", *words] for words in LIST_VALUES] + [["-v=X"], ["-v=X", "Y"]]
    return forms


def _corpus() -> list[list[str]]:
    corpus = [
        [], ["foo"], ["coinf"], ["COINFO"], ["-1"], ["--"], ["--", "coinfo"], ["--json", "coinfo"],
        ["--bogus", "coinfo"], ["--version=1"], ["--help=1"], ["-v", "coinfo"], *DROPPED,
        *BOUNDARY, *END_OF_OPTIONS,
    ]
    for command, options in COMMANDS.items():
        base = [command] + (["--nx", "2", "--ny", "2"] if command == "census" else [])
        for name, kind in options.items():
            for form in _option_forms(name, kind):
                corpus += [base + form, base + form + ["--json"], base + form + ["extra"]]
            flag = "--" + name
            corpus.append(base + ([flag, flag] if kind is bool else [flag, "1", flag, "2"]))
            corpus.append(base + [flag])  # no value, or a flag alone
        plain = {name: ["--" + name] + ([] if kind is bool else ["5"]) for name, kind in options.items()}
        for pair in itertools.permutations(plain, 2):
            corpus.append([command, *plain[pair[0]], *plain[pair[1]]])
        corpus.append([command, *itertools.chain(*plain.values())])
        corpus += [[*base, flag, "1"] for flag in NOT_AN_OPTION_OF[command]]
        corpus += [base + ["--bogus"], base + ["stray"], base + ["--bogus", "-h"], base + ["-h"],
                   base + ["--help"], base + ["--he"], base + ["-h=1"], base + ["--gate", "-h"],
                   base + ["--"], base + ["--", "--json"], base + ["--=x"], [command, command]]
    return corpus


def _argparse_verdict(argv):
    """('ok', vars of the namespace) or ('exit', code), from the reference."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", vars(ORACLE.parse_args(argv))
        except SystemExit as e:
            return "exit", e.code


class TestParser:
    def test_corpus_parses_as_argparse_did(self, capsys):
        corpus = _corpus()
        assert len(corpus) > 1500
        seen = set()
        for argv in corpus:
            verdict, value = _argparse_verdict(argv)
            seen.add((verdict, value if verdict == "exit" else None))
            if argv in DROPPED:
                assert verdict == "ok", argv
                verdict, value = "exit", 2
            if verdict == "ok":
                assert vars(parse_args(argv)) == value, argv
                assert capsys.readouterr().out == "", argv
            elif value == 0:
                code, out, _ = run(capsys, *argv)
                assert code == 0 and out.startswith(("usage: logdec", "logdec ")), argv
            else:
                with pytest.raises(ValueError):
                    parse_args(argv)
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv
        # the corpus reaches every verdict
        assert seen == {("ok", None), ("exit", 0), ("exit", 2)}

    def test_dropped_forms_are_named_in_the_error(self, capsys):
        code, out, err = run(capsys, "coinfo", "--gate", "or:2x2", "-vX")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: -vX\n")

    def test_version_before_the_command_only(self, capsys):
        assert run(capsys, "--version") == (0, f"logdec {logdec.__version__}\n", "")
        assert run(capsys, "--vers") == (0, f"logdec {logdec.__version__}\n", "")
        code, out, err = run(capsys, "coinfo", "--gate", "or:2x2", "--version")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --version\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["census", "--help"], ["coinfo", "--nx", "2", "-h"]])
    def test_help_prints_one_usage_text(self, capsys, argv):
        assert run(capsys, *argv) == (0, USAGE + "\n", "")

    def test_usage_lists_every_command_and_option(self):
        for command, options in COMMANDS.items():
            assert f"\n  {command} " in USAGE
            for name in options:
                assert f"--{name} " in USAGE or f"--{name}\n" in USAGE
        assert "-v, --variables" in USAGE and "-h, --help" in USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "no command given"),
            (["foo"], "unknown command 'foo'"),
            (["coinfo", "--n", "2"], "ambiguous option --n: could be --nx, --ny"),
            (["census", "--s", "2", "--nx", "2", "--ny", "2"], "ambiguous option --s"),
            (["coinfo", "--bogus"], "unrecognized arguments: --bogus"),
            (["census", "--gate", "or", "--nx", "2", "--ny", "2"], "unrecognized arguments: --gate or"),
            (["coinfo", "--gate"], "--gate needs a value"),
            (["coinfo", "-v", "--json"], "-v needs a value"),
            (["census", "--nx", "two", "--ny", "2"], "--nx takes an integer, got 'two'"),
            (["coinfo", "--json=1"], "--json takes no value"),
            (["census", "--nx", "2"], "census needs --nx and --ny"),
        ],
    )
    def test_argument_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
    def test_closed_stdout_exits_quietly(self, argv):
        # as a report does: exit 141 and nothing on stderr
        read, write = os.pipe()
        os.close(read)
        try:
            proc = cli_process(*argv, stdout=write)
        finally:
            os.close(write)
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""

    def test_argument_error_process_prints_no_traceback(self):
        proc = cli_process("coinfo", "--bogus")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")
        assert err == b"error: unrecognized arguments: --bogus\n"


class TestProcessEntry:
    """A `python -m logdec.cli` process ends through `cli.run`: the report
    is flushed, then `os._exit` ends the process with `main`'s code."""

    def test_report_beyond_a_pipe_buffer_arrives_whole(self, capsys):
        argv = ["decompose", "--file", str(GOLDEN / "system-12x2.json"), "--json"]
        proc = cli_process(*argv)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert len(out) > 1 << 18
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and out == expected.encode()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["census", "--nx", "4", "--ny", "4"], 3),
            (["witness", "--file", str(GOLDEN / "system-dyadic.json")], 4),
        ],
    )
    def test_failure_codes_and_their_one_line(self, capsys, argv, code):
        proc = cli_process(*argv)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (code, b"")
        assert err.count(b"\n") == 1 and err.endswith(b"\n")
        assert run(capsys, *argv) == (code, "", err.decode())

    def test_failed_flush_keeps_the_code(self, monkeypatch):
        class Closed:
            def flush(self):
                raise BrokenPipeError

        exits = []
        monkeypatch.setattr(logdec.cli, "main", lambda: 3)
        monkeypatch.setattr(sys, "stdout", Closed())
        monkeypatch.setattr(sys, "stderr", Closed())
        monkeypatch.setattr(os, "_exit", exits.append)
        logdec.cli.run()
        assert exits == [3]

    def test_escaping_exception_ends_as_python_ends_it(self):
        program = "import logdec.cli as cli\ncli.main = lambda: 1 / 0\ncli.run()\n"
        proc = subprocess.run(
            [sys.executable, "-c", program], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"Traceback") and b"ZeroDivisionError" in proc.stderr


class TestSystemFile:
    def test_round_trips_bit_exactly(self):
        system = parse_system(json.dumps(FIG_SYSTEM))
        assert system.dist.weights == tuple(FIG_SYSTEM["p"])
        text = json.dumps(
            {
                "outcomes": list(system.dist.space.labels),
                "p": list(system.dist.weights),
                "variables": {name: list(part.block_of) for name, part in system.variables.items()},
            }
        )
        assert parse_system(text) == system

    def test_unknown_keys_rejected(self):
        bad = dict(FIG_SYSTEM, extra=1)
        with pytest.raises(Exception, match="unknown keys"):
            parse_system(json.dumps(bad))

    def test_weight_count_checked(self):
        bad = dict(FIG_SYSTEM, p=[0.5, 0.5])
        with pytest.raises(Exception, match="one weight per outcome"):
            parse_system(json.dumps(bad))

    def test_partition_errors_name_the_variable(self):
        bad = dict(FIG_SYSTEM, variables={"X": [0, 1, 1], "Y": [0, 2, 2]})
        with pytest.raises(ValueError, match='^variable "Y": block indices must be dense'):
            parse_system(json.dumps(bad))

    def test_json_errors_carry_line_and_column(self):
        with pytest.raises(Exception, match=r"line 1, column"):
            parse_system("{nope}")

    def test_deep_nesting_is_a_value_error(self):
        depth = 100_000
        with pytest.raises(ValueError, match="nests too deeply"):
            parse_system('{"outcomes": ' + "[" * depth + "]" * depth + "}")

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_weights_rejected(self, weight):
        text = '{"outcomes": ["a", "b"], "p": [%s, 0.5], "variables": {"X": [0, 1]}}' % weight
        with pytest.raises(Exception, match="finite"):
            parse_system(text)


class TestDecompose:
    def test_totals_match_entropies(self, capsys, fig_file):
        code, out, _ = run(capsys, "decompose", "--file", fig_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] is None
        totals = report["results"]["totals"]
        expected = math.log2(3.0) - 2.0 / 3.0
        for name in ("X", "Y"):
            assert totals[name]["entropy"] == pytest.approx(expected, abs=1e-9)
            assert totals[name]["mu_content"] == pytest.approx(expected, abs=1e-9)

    def test_two_outcome_uniform_single_atom(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps({"outcomes": ["a", "b"], "p": [0.5, 0.5], "variables": {"X": [0, 1]}})
        )
        code, out, _ = run(capsys, "decompose", "--file", str(path), "--json")
        assert code == 0
        atoms = json.loads(out)["results"]["atoms"]
        assert len(atoms) == 1
        assert atoms[0]["mu"] == pytest.approx(1.0)

    def test_variable_restriction(self, capsys, fig_file):
        code, out, _ = run(capsys, "decompose", "--file", fig_file, "--variable", "X", "--json")
        assert code == 0
        atoms = {row["atom"] for row in json.loads(out)["results"]["atoms"]}
        assert atoms == {"12", "13", "123"}

    def test_or_gate_region_sums_to_the_coinformation(self, capsys):
        code, out, _ = run(capsys, "decompose", "--gate", "or:2x2", "--json")
        assert code == 0
        rows = {r["atom"]: r["mu"] for r in json.loads(out)["results"]["atoms"]}
        region = ["14", "123", "124", "134", "1234"]
        assert sum(rows[a] for a in region) == pytest.approx(-0.188722, abs=5e-7)

    def test_missing_distribution_is_a_precondition(self, capsys, tmp_path):
        path = tmp_path / "nop.json"
        path.write_text(json.dumps({"outcomes": ["a", "b"], "variables": {"X": [0, 1]}}))
        code, _, err = run(capsys, "decompose", "--file", str(path))
        assert code == 4
        assert "distribution" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "decompose", "--file", str(path))
        assert code == 2
        assert "line" in err

    def test_deeply_nested_file_exits_2(self, capsys, tmp_path):
        # json's RecursionError is a RuntimeError, which would exit 5
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"outcomes": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(capsys, "decompose", "--file", str(path))
        assert (code, out, err) == (2, "", "error: the JSON nests too deeply\n")

    def test_huge_block_index_exits_2_at_once(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"outcomes": ["a", "b"], "variables": {"X": [0, 1000000000000]}}')
        code, out, err = run(capsys, "decompose", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith('error: variable "X": ')

    def test_unknown_variable(self, capsys, fig_file):
        code, _, err = run(capsys, "decompose", "--file", fig_file, "--variable", "Q")
        assert code == 2
        assert "unknown variable" in err

    def test_unnormalized_weights_fail_before_the_listing(self, capsys, tmp_path):
        n = 16
        path = tmp_path / "twice.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [f"o{i}" for i in range(n)],
                    "p": [2.0 / n] * n,
                    "variables": {"X": [i % 2 for i in range(n)], "Y": [i % 3 for i in range(n)]},
                }
            )
        )
        for command in ("decompose", "coinfo"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--file", str(path))
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err == "error: entropy requires a normalized distribution\n"

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weights_exit_2_without_warnings(self, tmp_path, weight):
        path = tmp_path / "bad.json"
        path.write_text('{"outcomes": ["a", "b"], "p": [%s, 0.5], "variables": {"X": [0, 1]}}' % weight)
        for command in ("decompose", "coinfo"):
            proc = cli_process(command, "--file", str(path), text=True)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 2 and out == ""
            assert err == "error: weights must be finite numbers\n"

    def test_closed_stdout_exits_quietly(self):
        # The 412 KB report outgrows the pipe buffer, so the writer is
        # still writing when the reader goes away.
        proc = cli_process(
            "decompose", "--table", "0,1,2,0,1,2,0,1,2,0,1,1", "--nx", "3", "--ny", "4", "--json"
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_capacity_exit_code(self, capsys, tmp_path):
        n = 17
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [f"o{i}" for i in range(n)],
                    "p": [1.0 / n] * n,
                    "variables": {"X": [i % 2 for i in range(n)]},
                }
            )
        )
        code, _, err = run(capsys, "decompose", "--file", str(path))
        assert code == 3
        assert "capacity" in err


class TestCoinfo:
    def test_or_gate_with_structure(self, capsys):
        code, out, _ = run(
            capsys, "coinfo", "--gate", "or:2x2", "-v", "X", "Y", "Z", "--structure", "--json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["coinformation"] == pytest.approx(-0.19, abs=0.005)
        assert results["structure"]["generators"] == ["14", "123"]
        assert results["structure"]["parity"] == "StronglyMixed"

    def test_xor_gate_structure(self, capsys):
        code, out, _ = run(capsys, "coinfo", "--gate", "xor:2x2", "--structure", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["coinformation"] == pytest.approx(-1.0, abs=1e-9)
        assert results["structure"]["degrees"] == [3, 3, 3, 3]
        assert results["structure"]["parity"] == "CertifiedOdd"

    def test_independent_grid_variables_have_empty_ideal(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": ["1", "2", "3", "4"],
                    "p": [0.25, 0.25, 0.25, 0.25],
                    "variables": {"X": [0, 0, 1, 1], "Y": [0, 1, 0, 1]},
                }
            )
        )
        code, out, _ = run(
            capsys, "coinfo", "--file", str(path), "-v", "X", "Y", "--structure", "--json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["coinformation"] == pytest.approx(0.0, abs=1e-12)
        # the diagonal pairs still generate the ideal; independence only
        # drives its measure to zero under the product-uniform weights
        assert results["structure"]["generators"] == ["23", "14"]
        assert results["structure"]["mu"] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_variables(self, capsys):
        # coinfo and witness pick their variables through one check
        for command in ("coinfo", "witness"):
            code, out, err = run(capsys, command, "--gate", "or:2x2", "-v", "X")
            assert code == 2 and out == ""
            assert err == "error: co-information needs at least two variable names\n"

    def test_gate_sides_go_with_table_only(self, capsys, fig_file):
        # --gate xor --nx 3 --ny 3 once answered for the 2x2 XOR
        for source in (["--gate", "xor"], ["--file", fig_file]):
            code, out, err = run(capsys, "coinfo", *source, "--nx", "3", "--ny", "3")
            assert (code, out, err) == (2, "", "error: --nx and --ny go with --table\n")
        code, out, _ = run(capsys, "coinfo", "--table", "0,1,1,0", "--nx", "2", "--ny", "2")
        assert code == 0 and "= -1.000000 bits" in out

    def test_unknown_variable_name(self, capsys):
        code, _, err = run(capsys, "coinfo", "--gate", "or:2x2", "-v", "X", "W")
        assert code == 2
        assert "unknown variable" in err

    @pytest.mark.parametrize(
        "shape, code, message",
        [
            ("30000x30000", 3, "cap of 24"),
            ("99999999999999999999x1", 3, "cap of 24"),
            ("-5x-5", 2, "at least one symbol"),
        ],
    )
    def test_gate_shape_is_checked_before_its_cells_are_built(self, capsys, shape, code, message):
        start = time.perf_counter()
        got, _, err = run(capsys, "coinfo", "--gate", f"xor:{shape}")
        assert got == code
        assert message in err
        assert time.perf_counter() - start < 1.0

    def test_structure_answers_up_to_the_space_cap(self, capsys, tmp_path):
        # The expansion needs no 2**n table, so `coinfo --structure` and
        # `witness` take as many outcomes as a space holds.
        n = 24
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [f"o{i}" for i in range(n)],
                    "p": [1.0 / n] * n,
                    "variables": {
                        "X": [i % 2 for i in range(n)],
                        "Y": [i // 2 % 3 for i in range(n)],
                        "Z": [i * 5 % 4 % 3 for i in range(n)],
                    },
                }
            )
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "coinfo", "--file", str(path), "--structure", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["structure"]["parity"] == "StronglyMixed"
        assert results["structure"]["mu"] == pytest.approx(results["coinformation"], abs=1e-12)
        code, out, _ = run(capsys, "witness", "--file", str(path), "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["positive"]["mu"] > 0 > results["negative"]["mu"]
        for side in ("positive", "negative"):
            assert results[side]["mu"] == pytest.approx(results[side]["coinformation"], abs=1e-9)
        assert time.perf_counter() - start < 2.0

    def test_a_4374_generator_content_answers(self, capsys, tmp_path):
        # 8 triple splitters and a splitter of {0, 1} on 24 outcomes: the
        # content's generators pick one outcome per triple, 0 or 1 from
        # the first.
        n = 24
        variables = {f"T{j}": [int(i // 3 != j) for i in range(n)] for j in range(8)}
        variables["P"] = [int(i > 1) for i in range(n)]
        path = tmp_path / "triples.json"
        path.write_text(
            json.dumps(
                {"outcomes": [f"o{i}" for i in range(n)], "p": [1.0 / n] * n, "variables": variables}
            )
        )
        code, out, _ = run(capsys, "coinfo", "--file", str(path), "--structure", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results["structure"]["generators"]) == 4374
        assert set(results["structure"]["degrees"]) == {8}
        assert results["structure"]["mu"] == pytest.approx(results["coinformation"], abs=1e-12)
        code, out, err = run(capsys, "witness", "--file", str(path), "--json")
        assert code == 4 and out == ""
        assert "pure even generators" in err

    @staticmethod
    def _many_variables(tmp_path, k):
        n = 6
        path = tmp_path / f"vars-{k}.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [f"o{i}" for i in range(n)],
                    "p": [1.0 / n] * n,
                    "variables": {f"V{i}": [(j + i) % 3 for j in range(n)] for i in range(k)},
                }
            )
        )
        return str(path)

    def test_too_many_variables_fail_fast(self, capsys, tmp_path):
        path = self._many_variables(tmp_path, 22)
        for argv in (["coinfo"], ["coinfo", "--structure"], ["witness"]):
            start = time.perf_counter()
            code, _, err = run(capsys, *argv, "--file", path)
            assert time.perf_counter() - start < 2.0
            assert code == 3
            assert err.startswith("capacity error:") and err.count("\n") == 1

    def test_variable_cap_still_answers(self, capsys, tmp_path):
        from logdec.contents import MAX_VARIABLES

        code, out, _ = run(capsys, "coinfo", "--file", self._many_variables(tmp_path, MAX_VARIABLES), "--json")
        assert code == 0
        assert len(json.loads(out)["results"]["variables"]) == MAX_VARIABLES

    # system-20x4.json and system-12x2.json were drawn with
    # numpy.random.default_rng(1) and (2): Dirichlet(1) weights and 2 to 4
    # blocks per variable.  The report echoes argv, so the file is named
    # relative to the golden directory.
    @pytest.mark.parametrize(
        "command, shape",
        [("coinfo", "20x4"), ("coinfo", "12x2"), ("witness", "20x4")],
    )
    def test_structure_report_matches_the_golden_payload(self, capsys, monkeypatch, command, shape):
        monkeypatch.chdir(GOLDEN)
        argv = [command, "--file", f"system-{shape}.json", "--json"]
        if command == "coinfo":
            argv.insert(3, "--structure")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / f"{command}-{shape}.json").read_bytes()

    def test_two_variable_golden_system_has_no_witness(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, err = run(capsys, "witness", "--file", "system-12x2.json", "--json")
        assert code == 4 and out == ""
        assert "pure even generators" in err


class TestInternalErrors:
    def test_exhausted_witness_schedule_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("logdec.parity.WITNESS_EPSILONS", ())
        code, out, err = run(capsys, "witness", "--gate", "or:2x2")
        assert code == 5 and out == ""
        assert err.startswith("internal error: witness search exhausted")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_violated_degree_bound_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("logdec.contents.degree", lambda mask: 99)
        code, out, err = run(capsys, "coinfo", "--gate", "or:2x2", "--structure")
        assert code == 5 and out == ""
        assert err.startswith("internal error: generator degree bound violated")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_survey_against_the_gate_structure_exits_5(self, capsys, monkeypatch):
        from logdec.parity import SignSurvey

        # every survey reads one negative sample: the pure even classes contradict it
        monkeypatch.setattr(
            "logdec.gates.sign_survey",
            lambda ideal, samples, seed: SignSurvey(samples, 0, 1, -1.0, 0.0, (), (), seed),
        )
        code, out, err = run(capsys, "census", "--nx", "2", "--ny", "2", "--seed", "1")
        assert code == 5 and out == ""
        assert err.startswith("internal error: gate ideal contradicts its sign structure")
        assert "parity Undetermined" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCensusCommand:
    def test_two_by_two_summary(self, capsys):
        code, out, _ = run(capsys, "census", "--nx", "2", "--ny", "2", "--samples", "200", "--seed", "7")
        assert code == 0
        assert "AlwaysNegative classes: 1" in out

    def test_json_report_reproducible_byte_for_byte(self, capsys):
        args = ("census", "--nx", "2", "--ny", "2", "--samples", "200", "--seed", "7", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["seed"] == 7
        assert report["results"]["always_negative_classes"] == 1

    @pytest.mark.parametrize("shape", ["2x2", "2x3"])
    def test_json_report_matches_the_golden_payload(self, capsys, shape):
        nx, ny = shape.split("x")
        code, out, _ = run(
            capsys, "census", "--nx", nx, "--ny", ny, "--samples", "1000", "--seed", "424242", "--json"
        )
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / f"census-{shape}.json").read_bytes()

    def test_three_by_three_payload_matches_the_golden_digest(self, capsys):
        # The 1.4 MB payload is pinned by its SHA-256 (`sha256sum` format).
        code, out, _ = run(
            capsys, "census", "--nx", "3", "--ny", "3", "--samples", "1000", "--seed", "424242", "--json"
        )
        assert code == 0
        expected = (GOLDEN / "census-3x3.sha256").read_text().split()[0]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected

    def test_generated_seed_is_reported(self, capsys):
        code, out, err = run(capsys, "census", "--nx", "2", "--ny", "2", "--samples", "50", "--json")
        assert code == 0
        assert "generated seed" in err
        assert isinstance(json.loads(out)["seed"], int)

    def test_capacity(self, capsys):
        code, _, err = run(capsys, "census", "--nx", "4", "--ny", "2")
        assert code == 3

    @staticmethod
    def _forbid_enumeration(monkeypatch):
        def enumerate_classes(nx, ny):
            raise AssertionError("classes were enumerated before validation")

        monkeypatch.setattr("logdec.gates.canonical_classes", enumerate_classes)

    @pytest.mark.parametrize("sides", [("0", "2"), ("2", "0"), ("-1", "3")])
    def test_sides_below_one_are_a_validation_error(self, capsys, monkeypatch, sides):
        self._forbid_enumeration(monkeypatch)
        code, _, err = run(capsys, "census", "--nx", sides[0], "--ny", sides[1])
        assert code == 2
        assert "at least one symbol" in err
        assert "generated seed" not in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_fail_before_any_work(self, capsys, monkeypatch, samples):
        self._forbid_enumeration(monkeypatch)
        code, _, err = run(capsys, "census", "--nx", "2", "--ny", "2", "--samples", samples)
        assert code == 2
        assert "at least one sample" in err
        assert "generated seed" not in err

    def test_negative_seed_fails_before_any_work(self, capsys, monkeypatch):
        self._forbid_enumeration(monkeypatch)
        code, _, err = run(capsys, "census", "--nx", "2", "--ny", "2", "--seed", "-1")
        assert code == 2
        assert err == "error: census seeds must be nonnegative\n"

    def test_sample_cap_fails_fast(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "census", "--nx", "2", "--ny", "2", "--samples", "1000000000")
        assert code == 3
        assert time.perf_counter() - start < 2.0
        assert "capped at 100000 samples" in err
        assert "generated seed" not in err

    def test_sample_cap_still_answers(self, capsys):
        code, out, _ = run(
            capsys, "census", "--nx", "1", "--ny", "2", "--samples", "100000", "--seed", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["results"]["samples"] == 100000


class TestWitnessCommand:
    def test_or_gate_gives_both_signs(self, capsys):
        code, out, _ = run(capsys, "witness", "--gate", "or:2x2", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["positive"]["mu"] > 1e-8
        assert results["negative"]["mu"] < -1e-8
        assert results["positive"]["coinformation"] > 0
        assert results["negative"]["coinformation"] < 0

    def test_xor_gate_refused(self, capsys):
        code, _, err = run(capsys, "witness", "--gate", "xor:2x2")
        assert code == 4
        assert "pure odd" in err

    def test_copy_gate_refused(self, capsys):
        code, _, err = run(capsys, "witness", "--gate", "copyx:2x2")
        assert code == 4
        assert "pure even" in err

    def test_table_shortcut(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--table", "0,0,0,1", "--nx", "2", "--ny", "2", "--json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["positive"]["mu"] > 1e-8

    @pytest.mark.parametrize("table", ["0,1,1,", "0,,1,1", "0, ,1,0"])
    def test_table_with_an_empty_cell_exits_2(self, capsys, table):
        # a stray comma must not read as one more output symbol
        code, out, err = run(
            capsys, "coinfo", "--table", table, "--nx", "2", "--ny", "2", "--structure"
        )
        assert code == 2 and out == ""
        assert err == "error: --table has an empty cell\n"


class TestReportFormat:
    def test_numbers_carry_twelve_significant_digits(self, capsys, fig_file):
        code, out, _ = run(capsys, "decompose", "--file", fig_file, "--json")
        assert code == 0
        report = json.loads(out)
        value = report["results"]["totals"]["X"]["entropy"]
        expected = math.log2(3.0) - 2.0 / 3.0
        assert value == float(f"{expected:.12g}")
        assert value != expected  # rounding actually applied

    def test_reports_echo_the_command(self, capsys):
        code, out, _ = run(capsys, "coinfo", "--gate", "xor:2x2", "--json")
        report = json.loads(out)
        assert report["command"] == "coinfo"
        assert report["argv"][0] == "coinfo"
        assert report["version"]

    def test_source_options_are_exclusive(self, capsys, fig_file):
        code, _, err = run(capsys, "decompose", "--file", fig_file, "--gate", "or:2x2")
        assert code == 2
