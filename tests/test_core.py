import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdec import (
    CapacityError,
    Distribution,
    OutcomeSpace,
    Partition,
    all_partitions,
    common_coarsening,
    common_refinement,
    enumerate_complex,
)

from conftest import random_partition


class TestOutcomeSpace:
    def test_default_labels(self):
        sp = OutcomeSpace(3)
        assert sp.labels == ("1", "2", "3")
        assert sp.full_mask == 0b111

    def test_capacity_cap(self):
        OutcomeSpace(24)
        with pytest.raises(CapacityError):
            OutcomeSpace(25)

    def test_needs_an_outcome(self):
        with pytest.raises(ValueError):
            OutcomeSpace(0)

    def test_labels_unique_and_counted(self):
        with pytest.raises(ValueError):
            OutcomeSpace(2, labels=("a", "a"))
        with pytest.raises(ValueError):
            OutcomeSpace(2, labels=("a",))

    def test_atom_from_labels(self):
        sp = OutcomeSpace(4)
        assert sp.atom("1", "4") == 0b1001
        assert sp.format_atom(0b1011) == "124"

    def test_multichar_labels_join_with_commas(self):
        sp = OutcomeSpace(2, labels=("on", "off"))
        assert sp.format_atom(0b11) == "on,off"


class TestDistribution:
    def test_rejects_negatives(self):
        sp = OutcomeSpace(2)
        with pytest.raises(ValueError):
            Distribution(sp, (0.5, -0.1))

    def test_normalized_flag(self):
        sp = OutcomeSpace(2)
        assert Distribution(sp, (0.5, 0.5)).normalized
        assert not Distribution(sp, (0.5, 0.6)).normalized
        assert Distribution.uniform(OutcomeSpace(3)).normalized

    def test_unnormalized_is_legal(self):
        sp = OutcomeSpace(3)
        d = Distribution(sp, (2.0, 3.0, 1e6))
        assert d.mass(0b011) == 5.0


class TestEnumerateComplex:
    def test_four_outcomes_lists_all_eleven(self):
        sp = OutcomeSpace(4)
        got = {sp.format_atom(a) for a in enumerate_complex(sp)}
        assert got == {
            "12", "13", "14", "23", "24", "34",
            "123", "124", "134", "234", "1234",
        }

    def test_smallest_space(self):
        sp = OutcomeSpace(2)
        assert set(enumerate_complex(sp).atoms) == {0b11}

    def test_five_outcomes_count(self):
        assert len(enumerate_complex(OutcomeSpace(5))) == 26

    @pytest.mark.parametrize("n", range(2, 13))
    def test_counting_law(self, n):
        assert len(enumerate_complex(OutcomeSpace(n))) == 2**n - n - 1


class TestPartition:
    def test_blocks_must_be_dense(self):
        sp = OutcomeSpace(3)
        with pytest.raises(ValueError):
            Partition(sp, [0, 2, 2])
        with pytest.raises(ValueError):
            Partition(sp, [0, 1])

    def test_equality_ignores_block_numbering(self):
        sp = OutcomeSpace(3)
        assert Partition(sp, [1, 0, 0]) == Partition(sp, [0, 1, 1])
        assert Partition(sp, [0, 1, 1]) != Partition(sp, [0, 1, 0])

    def test_from_blocks_round_trip(self):
        sp = OutcomeSpace(4)
        p = Partition.from_blocks(sp, [[0, 2], [1], [3]])
        assert p.blocks() == [[0, 2], [1], [3]]
        with pytest.raises(ValueError):
            Partition.from_blocks(sp, [[0, 1], [1, 2], [3]])

    def test_all_partitions_counts_are_bell_numbers(self):
        for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
            assert sum(1 for _ in all_partitions(OutcomeSpace(n))) == bell


class TestRefinementAndCoarsening:
    def test_refinement_of_crossing_pair_is_discrete(self):
        sp = OutcomeSpace(3)
        a = Partition.from_blocks(sp, [[0], [1, 2]])
        b = Partition.from_blocks(sp, [[0, 2], [1]])
        assert common_refinement(a, b) == Partition.discrete(sp)

    def test_refinement_idempotent_and_absorbing(self):
        sp = OutcomeSpace(4)
        p = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        assert common_refinement(p, p) == p
        assert common_refinement(p, Partition.discrete(sp)) == Partition.discrete(sp)

    def test_coarsening_examples(self):
        sp = OutcomeSpace(4)
        a = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        b = Partition.from_blocks(sp, [[0, 1], [2], [3]])
        assert common_coarsening(a, b) == a

        sp3 = OutcomeSpace(3)
        x = Partition.from_blocks(sp3, [[0], [1, 2]])
        y = Partition.from_blocks(sp3, [[0, 2], [1]])
        assert common_coarsening(x, y) == Partition.single_block(sp3)

    def test_coarsening_idempotent(self):
        sp = OutcomeSpace(5)
        p = Partition.from_blocks(sp, [[0, 1], [2, 3], [4]])
        assert common_coarsening(p, p) == p

    def test_space_mismatch_rejected(self):
        a = Partition.discrete(OutcomeSpace(3))
        b = Partition.discrete(OutcomeSpace(4))
        with pytest.raises(ValueError):
            common_refinement(a, b)
        with pytest.raises(ValueError):
            common_coarsening(a, b)

    @given(st.integers(0, 10**9), st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_lattice_laws_on_random_partitions(self, seed, n):
        import numpy as np

        rng = np.random.default_rng(seed)
        sp = OutcomeSpace(n)
        p, q, r = (random_partition(rng, sp) for _ in range(3))
        for op in (common_refinement, common_coarsening):
            assert op(p, q) == op(q, p)
            assert op(op(p, q), r) == op(p, op(q, r))
            assert op(p, p) == p
        # each operand relates to the result the way a lattice demands
        assert common_refinement(p, q).refines(p)
        assert p.refines(common_coarsening(p, q))
