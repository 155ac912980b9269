import itertools
import math
import re

import numpy as np
import pytest

from logdec import (
    CapacityError,
    Ideal,
    Partition,
    atom_bits,
    build_gate,
    canonical_classes,
    census,
    classify_gate,
    classify_parity,
    coinformation_content,
    coinformation_numeric,
    exact_sign,
    mu_ideal,
    named_gate,
)
from logdec.gates import (
    ALWAYS_NEGATIVE,
    ALWAYS_NONNEGATIVE_OR_ZERO,
    MIXED_SIGN,
    ZERO_COINFORMATION,
)
from logdec.core import restricted_growth_strings
from logdec.parity import CERTIFIED_ODD, STRONGLY_MIXED, UNDETERMINED, SignSurvey

from conftest import A, bell_number, random_distribution


# Each named gate's output f(i, j) on an n-symbol input pair, as defined.
GATE_DEFINITIONS = {
    "or": lambda i, j, n: i | j,
    "and": lambda i, j, n: i & j,
    "nor": lambda i, j, n: 1 - (i | j),
    "nand": lambda i, j, n: 1 - (i & j),
    "xnor": lambda i, j, n: 1 - (i ^ j),
    "xor": lambda i, j, n: (i + j) % n,
    "copyx": lambda i, j, n: i,
    "copyy": lambda i, j, n: j,
    "const": lambda i, j, n: 0,
}


def restricted_growth(values) -> tuple[int, ...]:
    """Labels 0, 1, 2, ... in order of first occurrence."""
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def input_maps(nx: int, ny: int) -> list[list[int]]:
    """Every row and column permutation of an nx x ny table, as a cell map."""
    return [
        [rows[i] * ny + cols[j] for i in range(nx) for j in range(ny)]
        for rows in itertools.permutations(range(nx))
        for cols in itertools.permutations(range(ny))
    ]


def orbit(table, maps) -> set[tuple[int, ...]]:
    """A table's images under the input maps and output relabelling."""
    return {restricted_growth(table[p] for p in perm) for perm in maps}


def least_member(nx: int, ny: int, table) -> tuple[int, ...]:
    """The least member of a table's orbit, which is its class's canonical table."""
    return min(orbit(table, input_maps(nx, ny)))


class TestBuildGate:
    @pytest.mark.parametrize(
        "spec",
        ["or:2x2", "and:2x2", "nor:2x2", "nand:2x2", "xnor:2x2", "xor:2x2", "xor:3x3",
         "xor:4x4", "copyx:2x3", "copyy:2x3", "const:2x3"],
    )
    def test_named_gate_outputs_follow_the_definition(self, spec):
        name, shape = spec.split(":")
        nx, ny = (int(side) for side in shape.split("x"))
        g = named_gate(spec)
        assert (len(g.x.block_masks), len(g.y.block_masks)) == (nx, ny)
        table = [GATE_DEFINITIONS[name](i, j, nx) for i in range(nx) for j in range(ny)]
        assert g.z.block_of == restricted_growth(table)

    def test_two_by_two_names_refuse_other_shapes(self):
        with pytest.raises(ValueError, match="nand is a 2x2 gate"):
            named_gate("nand:2x3")

    def test_xor_output_partition(self):
        g = named_gate("xor:2x2")
        assert g.z == Partition.from_blocks(g.space, [[0, 3], [1, 2]])

    def test_or_output_partition(self):
        g = named_gate("or:2x2")
        assert g.z == Partition.from_blocks(g.space, [[0], [1, 2, 3]])

    def test_constant_gate_is_one_block(self):
        g = named_gate("const:2x2")
        assert g.z == Partition.single_block(g.space)

    def test_row_and_column_partitions(self):
        g = build_gate(3, 2, [0, 0, 1, 1, 2, 2])
        assert g.x == Partition.from_blocks(g.space, [[0, 1], [2, 3], [4, 5]])
        assert g.y == Partition.from_blocks(g.space, [[0, 2, 4], [1, 3, 5]])

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            build_gate(2, 2, [0, 1, 1])

    def test_arbitrary_output_symbols(self):
        g = build_gate(2, 2, ["lo", "hi", "hi", "lo"])
        assert g.z == named_gate("xor:2x2").z

    def test_unknown_gate_name(self):
        with pytest.raises(ValueError):
            named_gate("majority:2x2")

    @pytest.mark.parametrize("spec", [5, None, b"xor"])
    def test_a_spec_that_is_not_a_string_is_a_value_error(self, spec):
        with pytest.raises(ValueError, match=re.escape(f"a gate spec is a string like 'xor:2x2', got {spec!r}")):
            named_gate(spec)


class TestCanonicalize:
    # canonical_classes is the one canonical form; these pin gate tables
    # against the least member of their orbit

    def test_output_relabelling_merges_xor_and_xnor(self):
        for spec in ("xor", "xnor"):
            assert least_member(2, 2, named_gate(spec).z.block_of) == (0, 1, 1, 0)

    def test_input_and_output_flips_merge_or_and_and(self):
        for spec in ("or", "and", "nand", "nor"):
            assert least_member(2, 2, named_gate(spec).z.block_of) == (0, 0, 0, 1)

    def test_relabelled_table_canonicalizes_as_xor(self):
        gate = build_gate(2, 2, ["b", "a", "a", "b"])
        assert least_member(2, 2, gate.z.block_of) == (0, 1, 1, 0)

    def test_canonical_form_is_idempotent(self):
        tables = [table for table, _ in canonical_classes(2, 2)]
        assert {(0, 1, 1, 0), (0, 0, 0, 1)} <= set(tables)
        assert all(least_member(2, 2, table) == table for table in tables)

    @pytest.fixture
    def unbuilt_permutations(self, monkeypatch):
        # A refusal must come before the permutation list: 1x12 would list
        # 12! ~ 4.8e8 maps, and 4x4 has Bell(16) ~ 1e10 output structures.
        def listed(nx, ny):
            raise AssertionError(f"the {nx}x{ny} permutation list was built")

        monkeypatch.setattr("logdec.gates._input_permutations", listed)

    @pytest.mark.parametrize("nx, ny", [(1, 12), (4, 4), (4, 1)])
    def test_canonical_classes_applies_the_census_side_cap(self, unbuilt_permutations, nx, ny):
        with pytest.raises(CapacityError, match="census sides are capped"):
            canonical_classes(nx, ny)

    @pytest.mark.parametrize("nx", [1, 2, 3])
    @pytest.mark.parametrize("ny", [1, 2, 3])
    def test_canonical_classes_match_the_least_member_of_each_orbit(self, nx, ny):
        # reference: each output structure's orbit under row and column
        # permutations and relabelling, its least member and size, sorted
        maps = input_maps(nx, ny)
        seen, reference = set(), []
        for table in restricted_growth_strings(nx * ny):
            if table not in seen:
                members = orbit(table, maps)
                seen |= members
                reference.append((min(members), len(members)))
        assert canonical_classes(nx, ny) == sorted(reference)

    def test_orbit_sizes_divide_the_input_group(self):
        for nx, ny in [(2, 2), (3, 2)]:
            group = math.factorial(nx) * math.factorial(ny)
            classes = canonical_classes(nx, ny)
            assert sum(size for _, size in classes) == bell_number(nx * ny)
            assert all(group % size == 0 for _, size in classes)


class TestClassifyGate:
    def test_xor_is_always_negative(self):
        gc = classify_gate(named_gate("xor:2x2"), samples=500, seed=1)
        assert gc.verdict == ALWAYS_NEGATIVE
        assert gc.parity.tag == CERTIFIED_ODD
        assert gc.ideal == Ideal(
            gc.ideal.space, [A("123"), A("124"), A("134"), A("234")]
        )
        assert gc.survey.positive == 0 and gc.survey.negative == 500

    def test_or_is_mixed_with_witnesses(self):
        gc = classify_gate(named_gate("or:2x2"), samples=500, seed=1)
        assert gc.verdict == MIXED_SIGN
        assert gc.parity.tag == STRONGLY_MIXED
        assert gc.ideal == Ideal(gc.ideal.space, [A("14"), A("123")])
        assert (gc.witness_positive, gc.witness_negative) == ((4, 1, 1, 4), (2, 2, 2, 1))
        assert exact_sign(gc.ideal, gc.witness_positive) == 1
        assert exact_sign(gc.ideal, gc.witness_negative) == -1

    def test_copy_gate_is_nonnegative_mutual_information(self):
        gc = classify_gate(named_gate("copyx:2x2"), samples=500, seed=1)
        assert gc.verdict == ALWAYS_NONNEGATIVE_OR_ZERO
        assert gc.ideal == Ideal(gc.ideal.space, [A("14"), A("23")])
        assert gc.survey.negative == 0

    def test_constant_gate_has_zero_coinformation(self):
        gc = classify_gate(named_gate("const:2x2"), samples=500, seed=1)
        assert gc.verdict == ZERO_COINFORMATION
        assert gc.ideal.is_empty
        assert gc.survey.zero == 500

    def test_mod3_addition_is_mixed_with_a_pair_generator(self):
        gc = classify_gate(named_gate("xor:3x3"), samples=300, seed=1)
        assert gc.verdict == MIXED_SIGN
        pair = (1 << 0) | (1 << 4)  # cells (0,0) and (1,1)
        assert pair in gc.ideal.generators

    def test_cell_capacity(self):
        # the one cell cap a classification meets is the gate's own
        with pytest.raises(CapacityError, match="exceeds the cap of 24 outcomes"):
            classify_gate(build_gate(5, 5, [0] * 25))
        with pytest.raises(CapacityError, match="exceeds the cap of 24 outcomes"):
            named_gate("xor:1x25")

    def test_gates_up_to_the_space_cap_classify(self):
        assert classify_gate(named_gate("xor:4x4"), samples=200, seed=1).verdict == MIXED_SIGN
        gc = classify_gate(named_gate("copyx:4x6"), samples=200, seed=1)
        assert gc.verdict == ALWAYS_NONNEGATIVE_OR_ZERO and gc.survey.samples == 200
        table = [(7 * i + i // 5) % 3 for i in range(24)]
        gc = classify_gate(build_gate(2, 12, table), samples=200, seed=1)
        assert gc.verdict == MIXED_SIGN and exact_sign(gc.ideal, gc.witness_negative) == -1


class TestVerdictRule:
    @staticmethod
    def survey(positive, negative, samples=100):
        return SignSurvey(samples, positive, negative, -1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "spec, positive, negative, parities, tag",
        [
            # pure even pair generators, yet a negative sample
            ("copyx:2x2", 99, 1, [0], UNDETERMINED),
            # the odd certificate, yet no negative sample, or a positive one
            ("xor:2x2", 0, 0, [1], CERTIFIED_ODD),
            ("xor:2x2", 40, 60, [1], CERTIFIED_ODD),
        ],
    )
    def test_a_survey_against_the_structure_is_an_internal_error(
        self, monkeypatch, spec, positive, negative, parities, tag
    ):
        monkeypatch.setattr(
            "logdec.gates.sign_survey",
            lambda ideal, samples, seed: self.survey(positive, negative),
        )
        with pytest.raises(RuntimeError) as info:
            classify_gate(named_gate(spec))
        message = str(info.value)
        assert f"generator parities {parities}" in message
        assert f"parity {tag}" in message
        zero = 100 - positive - negative
        assert f"survey +{positive}/-{negative}/0:{zero}" in message


class TestCensus:
    def test_two_by_two_finds_exactly_xor(self):
        cls = list(census(2, 2, samples=400, seed=9))
        assert sum(c.orbit_size for c in cls) == bell_number(4) == 15
        negatives = [c for c in cls if c.verdict == ALWAYS_NEGATIVE]
        assert len(negatives) == 1
        assert negatives[0].table == (0, 1, 1, 0)

    def test_three_by_two_has_no_negative_class(self):
        cls = list(census(3, 2, samples=300, seed=9))
        assert sum(c.orbit_size for c in cls) == bell_number(6) == 203
        assert all(c.verdict != ALWAYS_NEGATIVE for c in cls)

    def test_verdicts_stable_across_seeds(self):
        a = list(census(2, 2, samples=400, seed=1))
        b = list(census(2, 2, samples=400, seed=2))
        assert [c.table for c in a] == [c.table for c in b]
        assert [c.verdict for c in a] == [c.verdict for c in b]

    def test_structural_measure_matches_numeric_per_gate(self, rng):
        for nx, ny, rounds in ((2, 2, 10), (3, 2, 5), (3, 3, 3)):
            for table, _ in canonical_classes(nx, ny):
                gate = build_gate(nx, ny, table)
                parts = [gate.x, gate.y, gate.z]
                ideal = coinformation_content(parts)
                for _ in range(rounds):
                    dist = random_distribution(rng, gate.space)
                    assert mu_ideal(dist, ideal) == pytest.approx(
                        coinformation_numeric(dist, parts), abs=1e-9
                    )

    def test_every_pure_even_class_has_a_wrongly_signed_leaf(self):
        # Each pure-even class holds two disjoint pair generators g, h with
        # no other generator inside U = g | h.  The members of the ideal
        # below U are the sets holding g or h, so the Moebius coefficient
        # of membership at U, sum over S <= U of (-1)**|U - S| [S in I],
        # is 0 + 0 - 1 = -1.  The degree-4 leaf <U> thus enters the one
        # leaf expansion with a negative sign: no even certificate exists.
        counts = {}
        for nx, ny in ((2, 2), (2, 3), (3, 3)):
            even = []
            for table, _ in canonical_classes(nx, ny):
                gate = build_gate(nx, ny, table)
                ideal = coinformation_content([gate.x, gate.y, gate.z])
                if ideal.generator_parities() == {0}:
                    even.append(ideal)
            counts[nx, ny] = len(even)
            for ideal in even:
                gens = ideal.generators
                pairs = sorted(g for g in gens if g.bit_count() == 2)
                unions = [
                    g | h
                    for g, h in itertools.combinations(pairs, 2)
                    if not g & h and all(k in (g, h) or k & (g | h) != k for k in gens)
                ]
                assert unions
                for union in unions:
                    bits = [1 << i for i in atom_bits(union)]
                    coeff = sum(
                        (-1) ** (4 - r) * ideal.contains(sum(s))
                        for r in range(5)
                        for s in itertools.combinations(bits, r)
                    )
                    assert coeff == -1
                # the search agrees; 3x3 is left out for time
                if nx * ny < 9:
                    assert classify_parity(ideal).tag == UNDETERMINED
        assert counts == {(2, 2): 5, (2, 3): 14, (3, 3): 69}

    def test_side_capacity(self):
        with pytest.raises(CapacityError):
            census(4, 2)

    def test_negative_seed_rejected_before_enumeration(self, monkeypatch):
        def enumerate_classes(nx, ny):
            raise AssertionError("classes were enumerated before validation")

        monkeypatch.setattr("logdec.gates.canonical_classes", enumerate_classes)
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            census(2, 2, seed=-1)

    @pytest.mark.parametrize(
        "call, rule",
        [
            (lambda: census(2, 2, seed=None), "the seed is an integer, got None"),
            (lambda: classify_gate(named_gate("or"), seed=-1), "seeds must be nonnegative"),
        ],
        ids=["census", "classify_gate"],
    )
    def test_every_census_needs_a_seed_of_zero_or_more(self, monkeypatch, call, rule):
        # a census on OS entropy would record no seed to repeat it from
        def enumerate_classes(nx, ny):
            raise AssertionError("classes were enumerated before validation")

        monkeypatch.setattr("logdec.gates.canonical_classes", enumerate_classes)
        with pytest.raises(ValueError, match=f"^{rule}$"):
            call()

    @pytest.mark.parametrize(
        "samples, seed, name",
        [(5.5, 1, "sample count"), ("5", 1, "sample count"), (5, 1.5, "seed"), (5, "1", "seed")],
    )
    def test_samples_and_seed_are_integers(self, monkeypatch, samples, seed, name):
        def enumerate_classes(nx, ny):
            raise AssertionError("classes were enumerated before validation")

        monkeypatch.setattr("logdec.gates.canonical_classes", enumerate_classes)
        with pytest.raises(ValueError, match=f"the {name} is an integer, got"):
            census(2, 2, samples=samples, seed=seed)
        with pytest.raises(ValueError, match=f"the {name} is an integer, got"):
            classify_gate(named_gate("or"), samples=samples, seed=seed)

    @pytest.mark.parametrize("bad", [2.0, "2", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda nx, ny: census(nx, ny, samples=5, seed=1),
            canonical_classes,
            lambda nx, ny: build_gate(nx, ny, [0, 1, 1, 0]),
        ],
        ids=["census", "canonical_classes", "build_gate"],
    )
    def test_sides_are_integers(self, monkeypatch, call, bad):
        # refused before the permutation list, as a side past a cap is
        def listed(nx, ny):
            raise AssertionError(f"the {nx}x{ny} permutation list was built")

        monkeypatch.setattr("logdec.gates._input_permutations", listed)
        for nx, ny in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match=re.escape(f"a gate side is an integer, got {bad!r}")):
                call(nx, ny)

    def test_numpy_and_bool_sides_classify(self):
        assert list(census(np.int64(2), True, samples=20, seed=1)) == list(census(2, 1, samples=20, seed=1))
        assert canonical_classes(True, np.int64(3)) == canonical_classes(1, 3)
        gate = build_gate(np.int64(2), np.int64(2), [0, 1, 1, 0])
        assert classify_gate(gate, samples=20) == classify_gate(named_gate("xor"), samples=20)
