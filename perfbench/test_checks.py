"""Tests of the benchmark's output checks, on small real reports.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q

Each check must pass an unmodified report of the current program and
fail a report with one value changed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from logdec import cli  # noqa: E402


def report(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def census_report(nx: int, ny: int) -> dict:
    return report("census", "--nx", str(nx), "--ny", str(ny), "--samples", "200",
                  "--seed", "5", "--json")


@pytest.fixture(scope="module")
def census_2x2():
    return census_report(2, 2)


@pytest.fixture(scope="module")
def census_2x3():
    return census_report(2, 3)


def system_file(tmp_path, n: int, k: int, seed: int):
    system = workloads.random_system(np.random.default_rng(seed), n, k)
    path = tmp_path / f"system-{n}-{k}-{seed}.json"
    path.write_text(json.dumps(system))
    return system, str(path)


def test_bell_numbers():
    assert [checks.bell(m) for m in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_gate_class_counts():
    # 2x2: 9 classes, 2x3: 30 classes (up to row, column and output relabelling).
    assert len(checks.gate_classes(2, 2)) == 9
    assert sum(checks.gate_classes(2, 3).values()) == checks.bell(6)


def test_census_report_passes(census_2x2, census_2x3):
    assert checks.check_census(census_2x2, 2, 2, 200, 1) == []
    assert checks.check_census(census_2x3, 2, 3, 200, 1) == []
    assert checks.check_census_pass([census_2x2, census_2x3]) == []


def test_census_flipped_witness_sign_fails(census_2x2):
    bad = copy.deepcopy(census_2x2)
    row = next(r for r in bad["results"]["classes"] if "witness_positive" in r)
    row["witness_positive"]["mu"] = -row["witness_positive"]["mu"]
    assert checks.check_census(bad, 2, 2, 200, 1)


def test_census_changed_witness_mu_fails(census_2x2):
    bad = copy.deepcopy(census_2x2)
    row = next(r for r in bad["results"]["classes"] if "witness_negative" in r)
    row["witness_negative"]["mu"] *= 1.001
    assert checks.check_census(bad, 2, 2, 200, 1)


def test_census_second_always_negative_fails(census_2x2, census_2x3):
    bad = copy.deepcopy(census_2x3)
    row = next(r for r in bad["results"]["classes"] if r["verdict"] == "AlwaysNonnegativeOrZero")
    row["verdict"] = "AlwaysNegative"
    bad["results"]["always_negative_classes"] += 1
    assert checks.check_census_pass([census_2x2, bad])
    assert checks.check_census(bad, 2, 3, 200, 1)


def test_census_missing_xor_fails(census_2x2, census_2x3):
    bad = copy.deepcopy(census_2x2)
    for row in bad["results"]["classes"]:
        if row["verdict"] == "AlwaysNegative":
            row["verdict"] = "MixedSign"
    assert checks.check_census_pass([bad, census_2x3])


def test_census_survey_and_orbits_fail(census_2x2):
    bad = copy.deepcopy(census_2x2)
    bad["results"]["classes"][0]["survey"]["zero"] += 1
    assert checks.check_census(bad, 2, 2, 200, 1)
    bad = copy.deepcopy(census_2x2)
    bad["results"]["classes"][0]["orbit_size"] += 1
    assert checks.check_census(bad, 2, 2, 200, 1)
    bad = copy.deepcopy(census_2x2)
    del bad["results"]["classes"][-1]
    assert checks.check_census(bad, 2, 2, 200, 1)


@pytest.fixture(scope="module")
def decompose_case(tmp_path_factory):
    system, path = system_file(tmp_path_factory.mktemp("d"), 7, 3, 11)
    rows = (1 << 7) - 7 - 1
    return system, report("decompose", "--file", path, "--json"), [0, 40, rows - 1]


def test_decompose_report_passes(decompose_case):
    system, rep, sample = decompose_case
    assert checks.check_decompose(rep, system, None, sample) == []


def test_decompose_variable_listing_passes(tmp_path):
    system, path = system_file(tmp_path, 7, 2, 12)
    rep = report("decompose", "--file", path, "--variable", "Y", "--json")
    count = len(checks.crossing_atoms(7, system["variables"]["Y"]))
    assert len(rep["results"]["atoms"]) == count
    assert checks.check_decompose(rep, system, "Y", [0, count - 1]) == []


def test_decompose_flipped_sign_fails(decompose_case):
    system, rep, sample = decompose_case
    bad = copy.deepcopy(rep)
    bad["results"]["atoms"][5]["mu"] *= -1
    assert checks.check_decompose(bad, system, None, sample)


def test_decompose_changed_mu_fails_the_sum(decompose_case):
    system, rep, _ = decompose_case
    bad = copy.deepcopy(rep)
    bad["results"]["atoms"][5]["mu"] *= 1.0 + 1e-6
    assert checks.check_decompose(bad, system, None, [])


def test_decompose_changed_mu_fails_the_reference(decompose_case):
    system, rep, _ = decompose_case
    bad = copy.deepcopy(rep)
    bad["results"]["atoms"][40]["mu"] *= 1.0 + 1e-7
    errs = checks.check_decompose(bad, system, None, [40])
    assert any("60-digit" in e for e in errs)


def test_decompose_wrong_total_fails(decompose_case):
    system, rep, sample = decompose_case
    bad = copy.deepcopy(rep)
    bad["results"]["totals"]["X"]["mu_content"] += 1e-6
    assert checks.check_decompose(bad, system, None, sample)


@pytest.mark.parametrize("k, seed", [(2, 1), (3, 2), (4, 3)])
def test_reference_generators_match_the_program(tmp_path, k, seed):
    system, path = system_file(tmp_path, 9, k, seed)
    gens = checks.minimal_generators(9, list(system["variables"].values()), max(2, k))
    rep = report("coinfo", "--file", path, "--structure", "--json")
    assert checks.check_coinfo(rep, system, gens) == []


@pytest.fixture(scope="module")
def mixed_case(tmp_path_factory):
    system, path = system_file(tmp_path_factory.mktemp("s"), 9, 3, 2)
    gens = checks.minimal_generators(9, list(system["variables"].values()), 3)
    assert len({g.bit_count() % 2 for g in gens}) == 2
    coinfo = report("coinfo", "--file", path, "--structure", "--json")
    witness = report("witness", "--file", path, "--json")
    return system, gens, coinfo, witness


def test_coinfo_changed_mu_fails(mixed_case):
    system, gens, coinfo, _ = mixed_case
    bad = copy.deepcopy(coinfo)
    bad["results"]["structure"]["mu"] += 1e-6
    assert checks.check_coinfo(bad, system, gens)


def test_coinfo_wrong_tag_fails(mixed_case):
    system, gens, coinfo, _ = mixed_case
    bad = copy.deepcopy(coinfo)
    bad["results"]["structure"]["parity"] = "CertifiedEven"
    assert checks.check_coinfo(bad, system, gens)


def test_coinfo_missing_generator_fails(mixed_case):
    system, gens, coinfo, _ = mixed_case
    bad = copy.deepcopy(coinfo)
    bad["results"]["structure"]["generators"].pop()
    bad["results"]["structure"]["degrees"].pop()
    assert checks.check_coinfo(bad, system, gens)


def test_witness_report_passes_and_flipped_sign_fails(mixed_case):
    system, gens, _, witness = mixed_case
    assert checks.check_witness(witness, system, gens) == []
    bad = copy.deepcopy(witness)
    bad["results"]["negative"]["mu"] *= -1
    assert checks.check_witness(bad, system, gens)
