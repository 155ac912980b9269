import math

import pytest

from logdec import (
    CapacityError,
    Ideal,
    Partition,
    build_gate,
    canonical_classes,
    canonicalize,
    census,
    classify_gate,
    coinformation_content,
    coinformation_numeric,
    mu_ideal,
    named_gate,
)
from logdec.gates import (
    ALWAYS_NEGATIVE,
    ALWAYS_NONNEGATIVE_OR_ZERO,
    MIXED_SIGN,
    ZERO_COINFORMATION,
    expected_class_total,
)
from logdec.parity import CERTIFIED_ODD, STRONGLY_MIXED

from conftest import A, random_distribution


class TestBuildGate:
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

    def test_canonical_form_is_idempotent(self):
        g = named_gate("or:2x2")
        canon = canonicalize(g)
        assert canonicalize(build_gate(2, 2, canon)) == canon

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
        assert gc.ideal == Ideal.generated_by(
            gc.ideal.space, [A("123"), A("124"), A("134"), A("234")]
        )
        assert gc.survey.positive == 0 and gc.survey.negative == 500

    def test_or_is_mixed_with_witnesses(self):
        gc = classify_gate(named_gate("or:2x2"), samples=500, seed=1)
        assert gc.verdict == MIXED_SIGN
        assert gc.parity.tag == STRONGLY_MIXED
        assert gc.ideal == Ideal.generated_by(gc.ideal.space, [A("14"), A("123")])
        assert mu_ideal(gc.witness_positive.dist, gc.ideal) > 1e-8
        assert mu_ideal(gc.witness_negative.dist, gc.ideal) < -1e-8
        assert gc.witness_positive.mu == mu_ideal(gc.witness_positive.dist, gc.ideal)
        assert gc.witness_negative.mu == mu_ideal(gc.witness_negative.dist, gc.ideal)

    def test_copy_gate_is_nonnegative_mutual_information(self):
        gc = classify_gate(named_gate("copyx:2x2"), samples=500, seed=1)
        assert gc.verdict == ALWAYS_NONNEGATIVE_OR_ZERO
        assert gc.ideal == Ideal.generated_by(gc.ideal.space, [A("14"), A("23")])
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
        with pytest.raises(CapacityError):
            classify_gate(build_gate(4, 4, [0] * 16))


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

    def test_side_capacity(self):
        with pytest.raises(CapacityError):
            census(4, 2)

    def test_negative_seed_rejected_before_enumeration(self, monkeypatch):
        def enumerate_classes(nx, ny):
            raise AssertionError("classes were enumerated before validation")

        monkeypatch.setattr("logdec.gates.canonical_classes", enumerate_classes)
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            census(2, 2, seed=-1)
