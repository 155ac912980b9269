import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import logdec
from logdec.cli import main, parse_system

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
    """Start `python -m logdec.cli argv` on this source tree, with piped output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "logdec.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs,
    )


class TestSystemFile:
    def test_round_trips_bit_exactly(self):
        system = parse_system(json.dumps(FIG_SYSTEM))
        assert system.dist.weights == tuple(FIG_SYSTEM["p"])
        text = json.dumps(
            {
                "outcomes": list(system.space.labels),
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
        code, _, err = run(capsys, "coinfo", "--gate", "or:2x2", "-v", "X")
        assert code == 2

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
