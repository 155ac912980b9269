import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdec import (
    CapacityError,
    Distribution,
    Ideal,
    OutcomeSpace,
    Partition,
    all_partitions,
    atom_bits,
    coinformation_content,
    common_coarsening,
    common_refinement,
    entropy,
    enumerate_complex,
    mu_ideal,
)

from conftest import random_distribution, random_partition


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

    def test_negative_atom_rejected(self):
        # -1 >> 1 is -1, so a bit loop over a negative mask never ends
        with pytest.raises(ValueError, match="nonnegative"):
            atom_bits(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            OutcomeSpace(3).format_atom(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            Distribution.uniform(OutcomeSpace(3)).mass(-2)


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

    @pytest.mark.parametrize(
        "weight", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(ValueError, match="weights must be finite numbers"):
            Distribution(OutcomeSpace(3), (weight, 0.5, 0.5))

    def test_nan_weight_cannot_reach_the_measure(self):
        # The README triangle: a NaN mass used to read as 0 in x*log2(x),
        # so this ideal measured a finite, wrong -0.5 (a zero weight gives 0).
        space = OutcomeSpace(3)
        x = Partition.from_blocks(space, [[0], [1, 2]])
        y = Partition.from_blocks(space, [[0, 2], [1]])
        mi = coinformation_content([x, y])
        with pytest.raises(ValueError, match="finite"):
            mu_ideal(Distribution(space, (math.nan, 0.5, 0.5)), mi)
        assert mu_ideal(Distribution(space, (0.0, 0.5, 0.5)), mi) == 0.0


class TestValueSemantics:
    SPACE = OutcomeSpace(2, labels=("a", "b"))

    def build_each(self):
        # two separate constructions of each value type, equal field by field
        return [
            (OutcomeSpace(2, labels=("a", "b")), OutcomeSpace(n=2, labels=("a", "b"))),
            (
                Distribution(self.SPACE, (0.25, 0.75)),
                Distribution(space=OutcomeSpace(2, ("a", "b")), weights=[0.25, 0.75]),
            ),
            (
                Ideal(self.SPACE, frozenset({0b11})),
                Ideal(space=self.SPACE, generators=frozenset({0b11})),
            ),
            (Partition(self.SPACE, (0, 1)), Partition(space=self.SPACE, block_of=[1, 0])),
        ]

    def test_equal_constructions_are_equal_and_hash_equal(self):
        for first, second in self.build_each():
            assert first is not second
            assert first == second and not first != second
            assert hash(first) == hash(second)
            assert len({first, second}) == 1

    def test_different_fields_are_unequal(self):
        sp = self.SPACE
        assert OutcomeSpace(2) != sp
        assert Distribution(sp, (0.5, 0.5)) != Distribution(sp, (0.25, 0.75))
        three = OutcomeSpace(3)
        assert Ideal(three, frozenset({0b011})) != Ideal(three, frozenset({0b101}))
        assert Partition(sp, (0, 1)) != Partition(sp, (0, 0))
        assert Partition(sp, (0, 1)) != Partition(OutcomeSpace(2), (0, 1))

    def test_equality_is_same_type_only(self):
        sp = self.SPACE
        assert Ideal(sp, frozenset({0b11})) != frozenset({0b11})
        assert Distribution(sp, (0.5, 0.5)) != Ideal(sp, frozenset({0b11}))
        assert sp != (2, ("a", "b"))

    def test_reprs_keep_their_form(self):
        sp = self.SPACE
        assert repr(sp) == "OutcomeSpace(n=2, labels=('a', 'b'))"
        assert repr(Distribution(sp, (0.25, 0.75))) == (
            "Distribution(space=OutcomeSpace(n=2, labels=('a', 'b')), weights=(0.25, 0.75))"
        )
        assert repr(Ideal(sp, frozenset({0b11}))) == "Ideal<ab>"

    def test_equal_ideals_share_the_cached_expansion(self):
        from logdec.measure import _ideal_expansion

        sp = OutcomeSpace(4)
        dist = Distribution.uniform(sp)
        _ideal_expansion.cache_clear()
        first = mu_ideal(dist, Ideal(sp, frozenset({0b0111, 0b1011})))
        second = mu_ideal(dist, Ideal(sp, frozenset({0b1011, 0b0111})))
        assert first == second
        assert _ideal_expansion.cache_info().hits == 1
        assert _ideal_expansion.cache_info().misses == 1


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
        assert enumerate_complex(sp) == (0b11,)

    def test_listing_is_an_ascending_tuple(self):
        got = enumerate_complex(OutcomeSpace(6))
        assert type(got) is tuple
        assert list(got) == sorted(m for m in range(64) if bin(m).count("1") >= 2)

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

    def test_a_huge_block_index_is_rejected_before_any_range_is_built(self):
        # A range over the indices up to 10**6 would take tens of MB.
        sp = OutcomeSpace(2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense"):
                Partition(sp, [0, 10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="dense"):
            Partition(sp, [0, 10**12])

    def test_equality_ignores_block_numbering(self):
        sp = OutcomeSpace(3)
        assert Partition(sp, [1, 0, 0]) == Partition(sp, [0, 1, 1])
        assert Partition(sp, [0, 1, 1]) != Partition(sp, [0, 1, 0])

    def test_blocks_are_renumbered_in_first_occurrence_order(self):
        assert Partition(OutcomeSpace(3), [1, 0, 1]).block_of == (0, 1, 0)
        p = Partition(OutcomeSpace(4), [2, 0, 1, 3])
        assert p.block_of == (0, 1, 2, 3)
        assert p.block_masks == (0b0001, 0b0010, 0b0100, 0b1000)
        assert p.blocks() == [[0], [1], [2], [3]]

    def test_equal_partitions_have_bit_equal_entropy(self, rng):
        # Blocks used to keep their input numbering, so equal partitions
        # summed their block masses in different orders.
        sp = OutcomeSpace(4)
        a, b = Partition(sp, [2, 0, 1, 3]), Partition(sp, [0, 1, 2, 3])
        assert a == b and hash(a) == hash(b)
        for _ in range(200):
            dist = random_distribution(rng, sp)
            assert entropy(dist, a) == entropy(dist, b)

    def test_from_blocks_round_trip(self):
        sp = OutcomeSpace(4)
        p = Partition.from_blocks(sp, [[0, 2], [1], [3]])
        assert p.blocks() == [[0, 2], [1], [3]]
        with pytest.raises(ValueError):
            Partition.from_blocks(sp, [[0, 1], [1, 2], [3]])

    @pytest.mark.parametrize("blocks", [[[0, 1], [-1]], [[0, 1], [2, 3]]])
    def test_from_blocks_rejects_members_outside_the_space(self, blocks):
        with pytest.raises(ValueError, match="outside the outcome space"):
            Partition.from_blocks(OutcomeSpace(3), blocks)

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
