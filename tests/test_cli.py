import json
import math
import time

import pytest

from logdec.cli import main, parse_system

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


class TestSystemFile:
    def test_round_trips_bit_exactly(self):
        sf = parse_system(json.dumps(FIG_SYSTEM))
        assert sf.p == tuple(FIG_SYSTEM["p"])
        text = json.dumps(
            {"outcomes": list(sf.outcomes), "p": list(sf.p), "variables": sf.variables}
        )
        assert parse_system(text) == sf

    def test_unknown_keys_rejected(self):
        bad = dict(FIG_SYSTEM, extra=1)
        with pytest.raises(Exception, match="unknown keys"):
            parse_system(json.dumps(bad))

    def test_weight_count_checked(self):
        bad = dict(FIG_SYSTEM, p=[0.5, 0.5])
        with pytest.raises(Exception, match="one weight per outcome"):
            parse_system(json.dumps(bad))

    def test_json_errors_carry_line_and_column(self):
        with pytest.raises(Exception, match=r"line 1, column"):
            parse_system("{nope}")


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

    def test_unknown_variable(self, capsys, fig_file):
        code, _, err = run(capsys, "decompose", "--file", fig_file, "--variable", "Q")
        assert code == 2
        assert "unknown variable" in err

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

    def test_structure_fails_fast_above_the_table_cap(self, capsys, tmp_path):
        n = 21
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [f"o{i}" for i in range(n)],
                    "p": [1.0 / n] * n,
                    "variables": {
                        "X": [i % 2 for i in range(n)],
                        "Y": [i // 2 % 3 for i in range(n)],
                    },
                }
            )
        )
        code, out, _ = run(capsys, "coinfo", "--file", str(path), "--json")
        assert code == 0
        assert "coinformation" in json.loads(out)["results"]
        for argv in (["coinfo", "--structure"], ["witness"]):
            start = time.perf_counter()
            code, _, err = run(capsys, *argv, "--file", str(path))
            assert time.perf_counter() - start < 2.0
            assert code == 3
            assert err.startswith("capacity error:") and err.count("\n") == 1

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
