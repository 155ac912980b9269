import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdec import (
    CapacityError,
    Distribution,
    Ideal,
    OutcomeSpace,
    Partition,
    atom_bits,
    build_gate,
    coinformation_content,
    coinformation_numeric,
    common_coarsening,
    common_refinement,
    entropy,
    enumerate_complex,
    mu_ideal,
    mu_set,
    named_gate,
)
from logdec.core import restricted_growth_strings

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

    @pytest.mark.parametrize("n", [2.0, "3", None])
    def test_outcome_count_is_an_integer(self, n):
        # read through operator.index, as masks are: no TypeError from range or <
        with pytest.raises(ValueError, match="outcome count is an integer"):
            OutcomeSpace(n)

    def test_outcome_count_reads_numpy_integers(self):
        assert OutcomeSpace(np.int64(3)) == OutcomeSpace(3)
        assert type(OutcomeSpace(np.int64(3)).n) is int

    def test_labels_unique_and_counted(self):
        with pytest.raises(ValueError):
            OutcomeSpace(2, labels=("a", "a"))
        with pytest.raises(ValueError):
            OutcomeSpace(2, labels=("a",))

    def test_labels_are_stored_as_a_tuple(self):
        # a list of labels builds the same hashable space as a tuple
        listed = OutcomeSpace(3, labels=["a", "b", "c"])
        assert listed == OutcomeSpace(3, labels=("a", "b", "c"))
        assert listed.labels == ("a", "b", "c")
        assert hash(listed) == hash(OutcomeSpace(3, labels=("a", "b", "c")))
        assert mu_ideal(Distribution.uniform(listed), Ideal(listed, [3])) > 0

    def test_labels_are_strings(self):
        # a non-string label would break the repr of every value on the space
        with pytest.raises(ValueError, match="must be strings"):
            OutcomeSpace(2, labels=(1, 2))

    def test_atom_formats_as_its_labels(self):
        sp = OutcomeSpace(4)
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
        # a mask beyond the space is refused, not read past the labels,
        # weights or blocks; masks of degree 0 and 1 still have a mass
        sp = OutcomeSpace(3)
        dist = Distribution.uniform(sp)
        for call in (sp.format_atom, dist.mass, Partition.discrete(sp).crosses):
            for mask in (8, 0b1011):
                with pytest.raises(ValueError, match="atom outside the outcome space"):
                    call(mask)
        with pytest.raises(ValueError, match="atom outside the outcome space"):
            Partition.discrete(sp).crosses(-1)
        assert dist.mass(0) == 0.0
        assert dist.mass(4) == pytest.approx(1 / 3)
        assert not Partition.discrete(sp).crosses(4)

    def test_masks_are_read_as_integers(self):
        # one integer rule for masks of any degree: numpy integers pass,
        # floats and strings are refused, never truncated or compared
        sp = OutcomeSpace(3)
        dist = Distribution.uniform(sp)
        for call in (sp.format_atom, dist.mass, Partition.discrete(sp).crosses):
            for bad in (3.0, np.float64(3), "3"):
                with pytest.raises(ValueError, match="an atom is an integer mask"):
                    call(bad)
            assert call(np.int64(3)) == call(3)


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

    def test_block_indices_must_be_integers(self):
        sp = OutcomeSpace(3)
        for block_of in ([0, 1.5, 2.9], [0, 1.7, 1], [0, 1.0, 2], ["0", "1", "1"]):
            with pytest.raises(ValueError, match="must be integers"):
                Partition(sp, block_of)
        assert Partition(sp, np.array([0, 1, 1])).block_of == (0, 1, 1)
        assert Partition(sp, [np.int8(1), np.uint64(0), np.int64(1)]).block_of == (0, 1, 0)
        assert Partition(sp, [False, True, True]).block_of == (0, 1, 1)

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

    def test_from_blocks_rejects_an_empty_block(self):
        # it used to vanish, building {1,2} | {3} from three blocks
        with pytest.raises(ValueError, match="blocks must not be empty"):
            Partition.from_blocks(OutcomeSpace(3), [[0, 1], [2], []])

    def test_from_blocks_names_a_member_listed_twice_in_one_block(self):
        with pytest.raises(ValueError, match="block member 0 listed twice in one block"):
            Partition.from_blocks(OutcomeSpace(3), [[0, 0, 1], [2]])
        with pytest.raises(ValueError, match="blocks must be disjoint"):
            Partition.from_blocks(OutcomeSpace(3), [[0, 1], [1, 2]])

    @pytest.mark.parametrize("blocks", [[[0, 1], [-1]], [[0, 1], [2, 3]]])
    def test_from_blocks_rejects_members_outside_the_space(self, blocks):
        with pytest.raises(ValueError, match="outside the outcome space"):
            Partition.from_blocks(OutcomeSpace(3), blocks)

    @pytest.mark.parametrize("blocks", [[[0, 1.0], [2]], [[0, "1"], [2]], [[0, np.float64(1)], [2]]])
    def test_from_blocks_rejects_members_that_are_not_integers(self, blocks):
        with pytest.raises(ValueError, match="block members must be integers"):
            Partition.from_blocks(OutcomeSpace(3), blocks)

    def test_from_blocks_reads_numpy_integers_and_bools(self):
        sp = OutcomeSpace(3)
        expected = Partition.from_blocks(sp, [[0, 1], [2]])
        assert Partition.from_blocks(sp, [[np.int64(0), np.int32(1)], [np.int8(2)]]) == expected
        assert Partition.from_blocks(sp, [[False, True], [2]]) == expected

    def test_all_partitions_counts_are_bell_numbers(self):
        for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
            assert sum(1 for _ in restricted_growth_strings(n)) == bell


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
        # every pairing of values goes through one check with one message
        small, large = OutcomeSpace(3), OutcomeSpace(4)
        a, b = Partition.discrete(small), Partition.discrete(large)
        i, j = Ideal(small, [0b11]), Ideal(large, [0b11])
        pairings = [
            lambda: common_refinement(a, b),
            lambda: common_coarsening(a, b),
            lambda: a.refines(b),
            lambda: i.union(j),
            lambda: i.intersection(j),
            lambda: mu_ideal(Distribution.uniform(small), j),
        ]
        for pairing in pairings:
            with pytest.raises(ValueError, match="^operands live on different outcome spaces$"):
                pairing()

    @staticmethod
    def _join_oracle(p, q):
        """Connected components of "same block in p or in q", by BFS."""
        n = p.space.n
        root = [-1] * n
        for start in range(n):
            if root[start] != -1:
                continue
            root[start] = start
            queue = [start]
            for i in queue:
                for j in range(n):
                    linked = p.block_of[i] == p.block_of[j] or q.block_of[i] == q.block_of[j]
                    if root[j] == -1 and linked:
                        root[j] = start
                        queue.append(j)
        ids = {}
        return Partition(p.space, [ids.setdefault(r, len(ids)) for r in root])

    @staticmethod
    def _refines_pairwise(a, b):
        """Outcomes sharing a block of a share one of b."""
        n = a.space.n
        return all(
            b.block_of[i] == b.block_of[j]
            for i in range(n)
            for j in range(n)
            if a.block_of[i] == a.block_of[j]
        )

    @given(st.integers(0, 10**9), st.integers(2, 24))
    @settings(max_examples=80, deadline=None)
    def test_lattice_laws_on_random_partitions(self, seed, n):
        rng = np.random.default_rng(seed)
        sp = OutcomeSpace(n)
        p, q, r = (random_partition(rng, sp) for _ in range(3))
        for op in (common_refinement, common_coarsening):
            assert op(p, q) == op(q, p)
            assert op(op(p, q), r) == op(p, op(q, r))
            assert op(p, p) == p
        meet, join = common_refinement(p, q), common_coarsening(p, q)
        assert common_coarsening(p, meet) == p
        assert common_refinement(p, join) == p
        assert join == self._join_oracle(p, q)
        # each operand relates to the result the way a lattice demands
        assert meet.refines(p)
        assert p.refines(join)
        discrete, whole = Partition.discrete(sp), Partition.single_block(sp)
        pairs = [(p, q), (q, p), (meet, p), (p, join), (join, p), (discrete, r), (r, whole), (r, discrete)]
        for a, b in pairs:
            assert a.refines(b) == self._refines_pairwise(a, b)


def _restricted_growth_reference(m):
    """The recursion that enumerated restricted-growth strings before:
    one shared prefix, pushed and popped."""
    prefix = []

    def rec(mx):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            prefix.append(v)
            yield from rec(max(mx, v))
            prefix.pop()

    yield from rec(-1)


class TestRestrictedGrowthStrings:
    @pytest.mark.parametrize("m", range(11))
    def test_same_strings_in_the_same_order_as_the_recursion(self, m):
        assert list(restricted_growth_strings(m)) == list(_restricted_growth_reference(m))

    def test_all_partitions_keeps_its_order(self):
        # a partition built from a restricted-growth string keeps it as its labels
        sp = OutcomeSpace(5)
        parts = [Partition(sp, rgs) for rgs in restricted_growth_strings(5)]
        assert [p.block_of for p in parts] == list(_restricted_growth_reference(5))


_VARIABLES_RULE = "co-information needs a sequence of one or more partitions"


class TestSequenceInputs:
    """Every sequence a library caller passes in is read by one rule,
    core.as_tuple: what is not a sequence of the right items is a
    ValueError naming the rule and the value given."""

    sp = OutcomeSpace(3)
    dist = Distribution.uniform(sp)
    x = Partition(sp, [0, 1, 1])

    @pytest.mark.parametrize(
        "call, rule, given",
        [
            (lambda s, d, x: OutcomeSpace(3, 5), "outcome labels are a sequence of strings", 5),
            (lambda s, d, x: Distribution(s, 5), "weights are a sequence of numbers", 5),
            (lambda s, d, x: Distribution(s, [None] * 3), "weights are a sequence of numbers", [None] * 3),
            (lambda s, d, x: Partition(s, 5), "a block assignment is a sequence of integers", 5),
            (lambda s, d, x: Partition.from_blocks(s, 5), "blocks are sequences of outcome indices", 5),
            (lambda s, d, x: Partition.from_blocks(s, [5]), "blocks are sequences of outcome indices", 5),
            (lambda s, d, x: Ideal(s, 5), "an ideal's generators are atoms", 5),
            (lambda s, d, x: build_gate(2, 2, 5), "a gate table is a sequence of outputs", 5),
            (lambda s, d, x: mu_set(d, 5), "mu_set takes a sequence of atoms", 5),
            (lambda s, d, x: coinformation_numeric(d, 5), _VARIABLES_RULE, 5),
            (lambda s, d, x: coinformation_content([x, 5]), _VARIABLES_RULE, None),
            (lambda s, d, x: coinformation_numeric(d, [x, 5]), _VARIABLES_RULE, None),
            (lambda s, d, x: coinformation_content([]), _VARIABLES_RULE, ()),
            (lambda s, d, x: build_gate(2, 2, [[1], [2], [3], [4]]), "a gate table is a sequence of outputs",
             [[1], [2], [3], [4]]),
        ],
        ids=[
            "labels", "weights", "weight-items", "block_of", "from_blocks", "from_blocks-block",
            "ideal", "gate-table", "mu_set", "coinformation_numeric", "content-item",
            "numeric-item", "no-variables", "gate-table-items",
        ],
    )
    def test_a_non_sequence_is_a_value_error(self, call, rule, given):
        expected = f"{rule}, got " + ("" if given is None else repr(given))
        with pytest.raises(ValueError, match="^" + re.escape(expected)):
            call(self.sp, self.dist, self.x)

    def test_numpy_sequences_integers_and_bools_still_read(self):
        sp = self.sp
        assert OutcomeSpace(3, np.array(["a", "b", "c"])).labels == ("a", "b", "c")
        assert Distribution(sp, np.array([1, 2, 3])).weights == (1.0, 2.0, 3.0)
        assert Partition(sp, np.array([0, True, np.int64(1)])) == self.x
        assert Partition.from_blocks(sp, (np.array([0]), [True, np.int8(2)])) == self.x
        assert Ideal(sp, np.array([3, 5])) == Ideal(sp, [3, 5])
        assert mu_set(self.dist, iter([np.int64(3)])) == mu_set(self.dist, [3])
        assert build_gate(2, 2, np.array([0, 1, 1, 0])).z == named_gate("xor").z
        assert coinformation_content((self.x,)) == coinformation_content([self.x])
        assert coinformation_numeric(self.dist, (self.x,)) == entropy(self.dist, self.x)

    def test_an_iterator_is_read_once(self):
        # co-information used to consume an iterator of variables in its
        # space check and then see none
        y = Partition(self.sp, [0, 0, 1])
        assert coinformation_content(iter([self.x, y])) == coinformation_content([self.x, y])
        assert coinformation_numeric(self.dist, iter([self.x, y])) == coinformation_numeric(
            self.dist, [self.x, y]
        )
        assert Ideal(self.sp, iter([3, 5])) == Ideal(self.sp, [3, 5])

    def test_item_rules_keep_their_messages(self):
        with pytest.raises(ValueError, match=re.escape("block indices must be integers, got 1.5")):
            Partition(self.sp, [0, 1.5, 2])
        with pytest.raises(ValueError, match=re.escape("block members must be integers, got 1.0")):
            Partition.from_blocks(self.sp, [[0, 1.0], [2]])
        with pytest.raises(ValueError, match=re.escape("an atom is an integer mask, got 3.0")):
            Ideal(self.sp, [3.0])
        with pytest.raises(ValueError, match="weights must be finite numbers"):
            Distribution(self.sp, [10**400, 0, 0])
