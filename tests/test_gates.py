import itertools
import math

import pytest

from logdec import (
    CapacityError,
    Ideal,
    Partition,
    atom_bits,
    build_gate,
    canonical_classes,
    canonicalize,
    census,
    classify_gate,
    classify_parity,
    coinformation_content,
    coinformation_numeric,
    mu_ideal,
    named_gate,
)
from logdec.gates import (
    ALWAYS_NEGATIVE,
    ALWAYS_NONNEGATIVE_OR_ZERO,
    CANONICAL_MAX_MAPS,
    MIXED_SIGN,
    ZERO_COINFORMATION,
    expected_class_total,
)
from logdec.parity import CERTIFIED_ODD, STRONGLY_MIXED, UNDETERMINED, SignSurvey

from conftest import A, random_distribution


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
        assert (g.nx, g.ny) == (nx, ny)
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


class TestCanonicalize:
    def test_output_relabelling_merges_xor_and_xnor(self):
        assert canonicalize(named_gate("xor:2x2")) == canonicalize(named_gate("xnor:2x2"))

    def test_input_and_output_flips_merge_or_and_and(self):
        assert canonicalize(named_gate("or:2x2")) == canonicalize(named_gate("and:2x2"))

    def test_relabelled_table_canonicalizes_as_xor(self):
        gate = build_gate(2, 2, ["b", "a", "a", "b"])
        assert canonicalize(gate) == canonicalize(named_gate("xor")) == (0, 1, 1, 0)

    def test_canonical_form_is_idempotent(self):
        g = named_gate("or:2x2")
        canon = canonicalize(g)
        assert canonicalize(build_gate(2, 2, canon)) == canon

    @pytest.fixture
    def unbuilt_permutations(self, monkeypatch):
        # A refusal must come before the permutation list: 2x12 would list
        # about 9.6e8 maps, and 4x4 has Bell(16) ~ 1e10 output structures.
        def listed(nx, ny):
            raise AssertionError(f"the {nx}x{ny} permutation list was built")

        monkeypatch.setattr("logdec.gates._input_permutations", listed)

    @pytest.mark.parametrize("nx, ny", [(2, 12), (12, 2), (1, 9), (3, 8)])
    def test_canonicalize_refuses_a_large_input_group(self, unbuilt_permutations, nx, ny):
        with pytest.raises(CapacityError, match="capped at 100000 input maps"):
            canonicalize(build_gate(nx, ny, [0] * (nx * ny)))

    @pytest.mark.parametrize("nx, ny", [(1, 12), (4, 4), (4, 1)])
    def test_canonical_classes_applies_the_census_side_cap(self, unbuilt_permutations, nx, ny):
        with pytest.raises(CapacityError, match="census sides are capped"):
            canonical_classes(nx, ny)

    def test_canonicalize_up_to_the_group_cap(self):
        # 2x8 lists 2! * 8! = 80 640 maps, the largest group under the cap
        assert math.factorial(2) * math.factorial(8) <= CANONICAL_MAX_MAPS
        g = build_gate(2, 8, [0, 1, 0, 1, 2, 2, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        canon = canonicalize(g)
        assert canon == canonicalize(build_gate(2, 8, canon))
        assert canon[0] == 0 and sorted(set(canon)) == [0, 1, 2]

    def test_orbit_sizes_divide_the_input_group(self):
        for nx, ny in [(2, 2), (3, 2)]:
            group = math.factorial(nx) * math.factorial(ny)
            classes = canonical_classes(nx, ny)
            assert sum(size for _, size in classes) == expected_class_total(nx, ny)
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
        assert mu_ideal(gc.witness_positive.dist, gc.ideal) > 1e-8
        assert mu_ideal(gc.witness_negative.dist, gc.ideal) < -1e-8
        assert gc.witness_positive.mu == mu_ideal(gc.witness_positive.dist, gc.ideal)
        assert gc.witness_negative.mu == mu_ideal(gc.witness_negative.dist, gc.ideal)

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
        assert gc.verdict == MIXED_SIGN and gc.witness_negative.mu < 0


class TestVerdictRule:
    @staticmethod
    def survey(positive, negative, samples=100):
        return SignSurvey(samples, positive, negative, -1.0, 1.0, (), (), 0)

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
        cls = census(2, 2, samples=400, seed=9)
        assert sum(c.orbit_size for c in cls) == expected_class_total(2, 2) == 15
        negatives = [c for c in cls if c.verdict == ALWAYS_NEGATIVE]
        assert len(negatives) == 1
        assert negatives[0].table == (0, 1, 1, 0)

    def test_three_by_two_has_no_negative_class(self):
        cls = census(3, 2, samples=300, seed=9)
        assert sum(c.orbit_size for c in cls) == expected_class_total(3, 2) == 203
        assert all(c.verdict != ALWAYS_NEGATIVE for c in cls)

    def test_verdicts_stable_across_seeds(self):
        a = census(2, 2, samples=400, seed=1)
        b = census(2, 2, samples=400, seed=2)
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
