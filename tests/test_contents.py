import functools
import itertools
import time

import numpy as np
import pytest

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
    coinformation_numeric,
    content,
    content_bruteforce,
    count_expressions,
    entropy,
    ideal_to_variables,
    mu_atom,
    mu_ideal,
    mu_set,
)

from logdec.ideals import EXPANSION_WORK_CAP, step_meter

from conftest import A, random_distribution, random_ideal, random_partition


def triangle_system():
    sp = OutcomeSpace(3)
    x = Partition.from_blocks(sp, [[0], [1, 2]])
    y = Partition.from_blocks(sp, [[0, 2], [1]])
    return sp, x, y


def splitter(sp, members):
    """The two-block variable that splits `members` from the rest."""
    return Partition(sp, [int(i in members) for i in range(sp.n)])


def one_outcome_per_pair(k):
    """Every mask holding one outcome of each pair {2j, 2j+1}, j < k."""
    return [sum(1 << (2 * j + (c >> j & 1)) for j in range(k)) for c in range(1 << k)]


def random_two_block_variables(count):
    """`count` random two-block variables on 24 outcomes, from a fixed seed."""
    rng = np.random.default_rng(3)
    sp = OutcomeSpace(24)
    parts = []
    while len(parts) < count:
        blocks = rng.integers(0, 2, sp.n)
        if 0 < blocks.sum() < sp.n:
            parts.append(Partition(sp, blocks))
    return parts


@pytest.fixture
def content_steps(monkeypatch):
    """The steps spent by each co-information content built in the test."""
    spent = []

    def meter(task):
        capped = step_meter(task)
        spent.append(0)

        def spend(steps):
            spent[-1] += steps
            capped(steps)

        return spend

    monkeypatch.setattr("logdec.contents.step_meter", meter)
    return spent


def or_gate_system():
    from logdec import named_gate

    g = named_gate("or:2x2")
    return g.space, g.x, g.y, g.z


class TestContent:
    def test_triangle_content(self):
        sp, x, _ = triangle_system()
        assert content(x).enumerate() == (A("12"), A("13"), A("123"))

    def test_three_block_partition_generators(self):
        sp = OutcomeSpace(4)
        x = Partition.from_blocks(sp, [[0, 1], [2], [3]])
        assert content(x) == Ideal(
            sp, [A(a) for a in ("13", "23", "14", "24", "34")]
        )

    def test_constant_variable_has_empty_content(self):
        sp = OutcomeSpace(4)
        assert content(Partition.single_block(sp)).is_empty

    def test_discrete_partition_content_is_everything(self):
        sp = OutcomeSpace(4)
        got = content_bruteforce(Partition.discrete(sp))
        assert len(got) == 2**4 - 4 - 1

    def test_agrees_with_brute_force_exhaustively(self):
        for n in range(2, 6):
            sp = OutcomeSpace(n)
            for part in all_partitions(sp):
                assert content(part).enumerate() == content_bruteforce(part)

    def test_content_determines_the_partition(self, rng):
        equal = 0
        for _ in range(300):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            p, q = random_partition(rng, sp), random_partition(rng, sp)
            equal += p == q
            assert (content(p) == content(q)) == (p == q)
        assert equal >= 10

    def test_brute_force_capacity(self):
        sp = OutcomeSpace(17)
        with pytest.raises(CapacityError):
            content_bruteforce(Partition.discrete(sp))


class TestExpressions:
    def test_triangle_intersection_is_mutual_information(self):
        sp, x, y = triangle_system()
        got = content(x).intersection(content(y)).enumerate()
        assert got == (A("12"), A("123"))
        dist = Distribution.uniform(sp)
        mi = entropy(dist, x) + entropy(dist, y) - entropy(dist, Partition.discrete(sp))
        assert mu_set(dist, got) == pytest.approx(mi, abs=1e-9)

    def test_or_gate_triple_region(self):
        sp, x, y, z = or_gate_system()
        got = content(x).intersection(content(y)).intersection(content(z))
        assert got == Ideal(sp, [A("14"), A("123")])

    def test_difference_region_measures_conditional_entropy(self, rng):
        # C(X) - C(Y) is not an ideal, but C(X) u C(Y) minus C(Y) measures it
        for _ in range(15):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            x, y = random_partition(rng, sp), random_partition(rng, sp)
            dist = random_distribution(rng, sp)
            got = mu_ideal(dist, content(x).union(content(y))) - mu_ideal(dist, content(y))
            conditional = entropy(dist, common_refinement(x, y)) - entropy(dist, y)
            assert got == pytest.approx(conditional, abs=1e-9)


class TestCoinformation:
    def test_triangle_pair_reduces_to_one_generator(self):
        _, x, y = triangle_system()
        assert coinformation_content([x, y]) == Ideal(x.space, [A("12")])

    def test_xor_triple_is_all_triples(self):
        from logdec import named_gate

        g = named_gate("xor:2x2")
        got = coinformation_content([g.x, g.y, g.z])
        assert got == Ideal(
            g.space, [A("123"), A("124"), A("134"), A("234")]
        )

    def test_single_variable_is_its_content(self):
        _, x, _ = triangle_system()
        assert coinformation_content([x]) == content(x)

    def test_or_gate_numeric_values(self):
        sp, x, y, z = or_gate_system()
        uniform = Distribution.uniform(sp)
        assert coinformation_numeric(uniform, [x, y, z]) == pytest.approx(
            -0.188721875540867, abs=1e-12
        )
        biased = Distribution(sp, (0.45, 0.05, 0.05, 0.45))
        assert coinformation_numeric(biased, [x, y, z]) == pytest.approx(
            0.523778860398527, abs=1e-12
        )

    def test_xor_uniform_is_minus_one_bit(self):
        from logdec import named_gate

        g = named_gate("xor:2x2")
        u = Distribution.uniform(g.space)
        assert coinformation_numeric(u, [g.x, g.y, g.z]) == pytest.approx(-1.0, abs=1e-12)

    def test_structure_matches_numeric_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sp = OutcomeSpace(n)
            k = int(rng.integers(2, 4))
            parts = [random_partition(rng, sp) for _ in range(k)]
            dist = random_distribution(rng, sp)
            structural = mu_ideal(dist, coinformation_content(parts))
            numeric = coinformation_numeric(dist, parts)
            assert structural == pytest.approx(numeric, abs=1e-9)

    def test_numeric_route_is_the_reduce_sum_bit_for_bit(self, rng):
        # Reference: every joint partition reduced from scratch.
        def reduce_sum(dist, parts):
            total = 0.0
            for sub in range(1, 1 << len(parts)):
                chosen = [p for i, p in enumerate(parts) if sub >> i & 1]
                sign = 1.0 if len(chosen) % 2 == 1 else -1.0
                total += sign * entropy(dist, functools.reduce(common_refinement, chosen))
            return total

        for trial in range(120):
            sp = OutcomeSpace(int(rng.integers(2, 11)))
            parts = []
            for _ in range(1 if trial < 20 else int(rng.integers(2, 7))):
                # Block indices dense but not in first-occurrence order.
                b = int(rng.integers(1, sp.n + 1))
                labels = list(range(b)) + [int(x) for x in rng.integers(0, b, sp.n - b)]
                rng.shuffle(labels)
                parts.append(Partition(sp, labels))
            if len(parts) > 2 and trial % 3 == 0:
                parts[-1] = parts[0]
            dist = random_distribution(rng, sp)
            assert coinformation_numeric(dist, parts) == reduce_sum(dist, parts), trial

    def test_pair_intersections_have_pair_generators(self):
        # exhaustive at n <= 4 here; the acceptance suite pushes further
        for n in (2, 3, 4):
            sp = OutcomeSpace(n)
            parts = list(all_partitions(sp))
            for x, y in itertools.product(parts, parts):
                profile = coinformation_content([x, y]).degree_profile()
                assert all(d == 2 for d in profile)

    def test_fold_equals_the_intersection_of_contents(self, rng):
        # Equal ideals have equal generator sets, so this also pins that the
        # Berge output, kept unreduced, is the minimal antichain.
        for _ in range(400):
            n = int(rng.integers(1, 13))
            sp = OutcomeSpace(n)
            pool = [Partition.single_block(sp), Partition.discrete(sp)]
            parts = []
            for _ in range(int(rng.integers(1, 6))):
                pick = int(rng.integers(0, 8))
                if pick < 2:
                    parts.append(pool[pick])
                elif pick == 2 and parts:
                    parts.append(parts[int(rng.integers(0, len(parts)))])
                else:
                    parts.append(random_partition(rng, sp))
            oracle = content(parts[0])
            for p in parts[1:]:
                oracle = oracle.intersection(content(p))
            assert coinformation_content(parts) == oracle

    def test_variables_on_different_spaces_are_rejected(self):
        x = Partition.discrete(OutcomeSpace(3))
        y = Partition.discrete(OutcomeSpace(4))
        with pytest.raises(ValueError, match="different outcome spaces"):
            coinformation_content([x, y])

    @pytest.mark.parametrize("n", [2, 4])
    def test_numeric_route_rejects_variables_from_another_space(self, n):
        sp = OutcomeSpace(3)
        dist = Distribution.uniform(sp)
        other = Partition.discrete(OutcomeSpace(n))
        for parts in ([other, other], [Partition.discrete(sp), other]):
            with pytest.raises(ValueError, match="different outcome spaces"):
                coinformation_numeric(dist, parts)

    def test_pair_splitters_give_one_outcome_per_pair(self):
        # Variable j splits the pair {2j, 2j+1} from the rest; a mask
        # crosses every variable when it holds one outcome of each pair.
        sp = OutcomeSpace(16)
        parts = [splitter(sp, {2 * j, 2 * j + 1}) for j in range(8)]
        assert coinformation_content(parts) == Ideal(sp, one_outcome_per_pair(8))

    def test_heavy_splitter_systems_answer_far_below_the_step_cap(self, content_steps):
        # On 24 outcomes: 12 pair splitters give 4096 generators; 10 pair
        # splitters with splitters of {20,21,22} and {21,22,23} give 3072;
        # 8 triple splitters with a splitter of {0,1} give the 4374 picks of
        # one outcome per triple that hold 0 or 1 (148k steps).
        sp = OutcomeSpace(24)
        pairs = [splitter(sp, {2 * j, 2 * j + 1}) for j in range(12)]
        expected = Ideal(sp, one_outcome_per_pair(12))
        assert coinformation_content(pairs) == expected
        parts = pairs[:10] + [splitter(sp, {20, 21, 22}), splitter(sp, {21, 22, 23})]
        tails = [1 << 21, 1 << 22, 1 << 20 | 1 << 23]
        expected = Ideal(sp, [p | t for p in one_outcome_per_pair(10) for t in tails])
        assert len(expected.generators) == 3072
        assert coinformation_content(parts) == expected
        triples = [splitter(sp, {3 * j, 3 * j + 1, 3 * j + 2}) for j in range(8)]
        picks = [sum(1 << 3 * j + c // 3**j % 3 for j in range(8)) for c in range(3**8)]
        expected = Ideal(sp, [p for p in picks if p & 0b11])
        assert len(expected.generators) == 4374
        assert coinformation_content(triples + [splitter(sp, {0, 1})]) == expected
        assert len(content_steps) == 3
        assert max(content_steps) < EXPANSION_WORK_CAP // 10

    def test_24_random_two_block_variables_answer(self):
        # Twice the CLI's variable cap.  Every generator crosses each
        # variable and stops doing so without any one of its outcomes;
        # the count is the one the earlier per-variable crossing fold gave.
        parts = random_two_block_variables(24)
        blocks = [b for p in parts for b in p.block_masks]

        def inside_a_block(m):
            return any(not m & ~b for b in blocks)

        ideal = coinformation_content(parts)
        assert len(ideal.generators) == 4843
        for g in ideal.generators:
            assert not inside_a_block(g)
            assert all(inside_a_block(g & ~(1 << i)) for i in atom_bits(g))

    def test_96_random_two_block_variables_exceed_the_step_cap(self):
        # Eight times the CLI's variable cap; the crossing fold answered
        # with 20264 generators after about 14 s.
        with pytest.raises(CapacityError, match="co-information content"):
            coinformation_content(random_two_block_variables(96))

    def test_generator_degrees_bounded_by_variable_count(self, rng):
        for m in (3, 4):
            for _ in range(80):
                n = int(rng.integers(2, 9))
                sp = OutcomeSpace(n)
                parts = [random_partition(rng, sp) for _ in range(m)]
                profile = coinformation_content(parts).degree_profile()
                assert all(d <= m for d in profile)


def partitions_with_content(space, atoms):
    """Every partition of the space whose content enumerates to `atoms`."""
    return [p for p in all_partitions(space) if content(p).enumerate() == atoms]


class TestRepresentability:
    def test_pair_ideal_is_not_a_partition(self):
        sp = OutcomeSpace(3)
        w = Ideal(sp, [A("12")]).enumerate()
        assert partitions_with_content(sp, w) == []

    def test_content_round_trips(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            part = random_partition(rng, sp)
            assert partitions_with_content(sp, content(part).enumerate()) == [part]

    def test_empty_set_is_the_constant_variable(self):
        sp = OutcomeSpace(3)
        empty = Ideal(sp, []).enumerate()
        assert partitions_with_content(sp, empty) == [Partition.single_block(sp)]


class TestGacsKorner:
    # the Gacs-Korner common part of X and Y is their common coarsening
    def test_self_common_information_is_the_variable(self):
        _, x, _ = triangle_system()
        part = common_coarsening(x, x)
        assert part == x and content(part) == content(x)

    def test_triangle_pair_has_no_common_part(self):
        _, x, y = triangle_system()
        part = common_coarsening(x, y)
        assert content(part).is_empty
        assert part == Partition.single_block(x.space)

    def test_nested_partitions_share_the_coarser(self):
        sp = OutcomeSpace(4)
        x = Partition.from_blocks(sp, [[0, 1], [2, 3]])
        y = Partition.from_blocks(sp, [[0, 1], [2], [3]])
        part = common_coarsening(x, y)
        assert part == x and content(part) == content(x)

    def test_output_is_representable_inside_mutual_information(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            x, y = random_partition(rng, sp), random_partition(rng, sp)
            common = content(common_coarsening(x, y))
            mutual = coinformation_content([x, y])
            assert all(mutual.contains(g) for g in common.generators)
            assert all(d == 2 for d in common.degree_profile())


class TestIdealToVariables:
    def test_single_pair_round_trip(self):
        sp = OutcomeSpace(3)
        ideal = Ideal(sp, [A("12")])
        parts = ideal_to_variables(ideal)
        assert coinformation_content(parts) == ideal

    def test_triple_round_trip(self):
        sp = OutcomeSpace(3)
        ideal = Ideal(sp, [A("123")])
        parts = ideal_to_variables(ideal)
        assert coinformation_content(parts) == ideal

    def test_content_round_trip(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sp = OutcomeSpace(n)
            part = random_partition(rng, sp)
            ideal = content(part)
            if ideal.is_empty:
                continue
            assert coinformation_content(ideal_to_variables(ideal)) == ideal

    def test_random_ideals_round_trip(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 11))
            ideal = random_ideal(rng, OutcomeSpace(n), max_generators=5)
            assert coinformation_content(ideal_to_variables(ideal)) == ideal

    def test_each_variable_keeps_one_maximal_non_member_as_a_block(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 11))
            sp = OutcomeSpace(n)
            ideal = random_ideal(rng, sp, max_generators=4)
            parts = ideal_to_variables(ideal)
            assert [p.block_of for p in parts] == sorted({p.block_of for p in parts})
            for p in parts:
                large = [b for b in p.block_masks if b & (b - 1)]
                if not large:
                    assert p == Partition.discrete(sp)
                    continue
                assert len(large) == 1
                (block,) = large
                assert not ideal.contains(block)
                outside = sp.full_mask & ~block
                assert all(ideal.contains(block | 1 << i) for i in atom_bits(outside))

    def test_measure_matches_the_entropy_route(self, rng):
        cases = 0
        while cases < 200:
            n = int(rng.integers(2, 11))
            sp = OutcomeSpace(n)
            ideal = random_ideal(rng, sp, max_generators=3)
            parts = ideal_to_variables(ideal)
            if len(parts) > 12:
                continue
            dist = random_distribution(rng, sp, floor=0.01)
            assert mu_ideal(dist, ideal) == pytest.approx(
                coinformation_numeric(dist, parts), abs=1e-9
            )
            cases += 1

    def test_empty_ideal_rejected(self):
        with pytest.raises(ValueError):
            ideal_to_variables(Ideal(OutcomeSpace(3), []))

    def test_degree_one_generator_rejected(self):
        # The Ideal itself refuses the degree-1 generator, before any
        # variables are built.
        with pytest.raises(ValueError, match="degree >= 2"):
            ideal_to_variables(Ideal(OutcomeSpace(3), [A("1"), A("23")]))

    @pytest.mark.parametrize(
        "n, gens",
        [
            (5, [sum(1 << i for i in c) for c in itertools.combinations(range(5), 3)]),
            (24, [(1 << 18) - 1]),
            (24, [0b11 << i for i in range(14)]),
        ],
        ids=["all-triples-of-5", "degree-18", "14-chained-pairs"],
    )
    def test_large_families_round_trip_fast(self, n, gens):
        ideal = Ideal(OutcomeSpace(n), gens)
        start = time.perf_counter()
        assert coinformation_content(ideal_to_variables(ideal)) == ideal
        assert time.perf_counter() - start < 1.0

    def test_exploding_family_hits_the_step_cap_fast(self):
        # All 4-subsets in each of 4 blocks of 6: 20**4 maximal non-members.
        gens = [
            sum(1 << 6 * b + i for i in combo)
            for b in range(4)
            for combo in itertools.combinations(range(6), 4)
        ]
        ideal = Ideal(OutcomeSpace(24), gens)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            ideal_to_variables(ideal)
        assert time.perf_counter() - start < 1.0


def atom_bounds(space, atom):
    """The ideal <atom> and the part of it strictly above `atom`."""
    inner = Ideal(space, [atom])
    free = space.full_mask & ~atom
    above = Ideal(space, [atom | (1 << i) for i in range(space.n) if free >> i & 1])
    return inner, above


class TestAtomExtraction:
    def test_triple_inside_four(self):
        sp = OutcomeSpace(4)
        inner, above = atom_bounds(sp, A("123"))
        assert inner == Ideal(sp, [A("123")])
        assert above == Ideal(sp, [A("1234")])
        assert set(inner.enumerate()) - set(above.enumerate()) == {A("123")}

    def test_top_atom_has_nothing_above(self):
        sp = OutcomeSpace(4)
        inner, above = atom_bounds(sp, A("1234"))
        assert above.is_empty
        assert set(inner.enumerate()) - set(above.enumerate()) == {A("1234")}

    def test_pair_inside_three(self):
        sp = OutcomeSpace(3)
        inner, above = atom_bounds(sp, A("12"))
        assert above == Ideal(sp, [A("123")])
        assert set(inner.enumerate()) - set(above.enumerate()) == {A("12")}

    def test_measure_difference_isolates_the_atom(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            dist = random_distribution(rng, sp)
            d = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=d, replace=False)
            atom = int(sum(1 << int(i) for i in members))
            inner, above = atom_bounds(sp, atom)
            assert mu_ideal(dist, inner) - mu_ideal(dist, above) == pytest.approx(
                mu_atom(dist, atom), abs=1e-9
            )


class TestCounting:
    def test_small_counts(self):
        assert count_expressions(2) == 2
        assert count_expressions(3) == 16
        assert count_expressions(4) == 2048

    def test_formula_at_five(self):
        assert count_expressions(5) == 2**26

    def test_matches_explicit_enumeration(self):
        from logdec import enumerate_complex

        for n in (2, 3, 4):
            atoms = enumerate_complex(OutcomeSpace(n))
            explicit = sum(
                1 for r in range(len(atoms) + 1)
                for _ in itertools.combinations(atoms, r)
            )
            assert explicit == count_expressions(n)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_outcome_count_is_an_integer(self, n):
        with pytest.raises(ValueError, match="the outcome count is an integer, got"):
            count_expressions(n)

    def test_reads_numpy_integers(self):
        assert count_expressions(np.int64(3)) == 16

    def test_outcome_count_follows_the_outcome_space_rule(self):
        # the one outcome-count rule: at least 1, at most 24
        with pytest.raises(ValueError, match="an outcome space needs at least one outcome"):
            count_expressions(0)
        with pytest.raises(CapacityError, match="outcome spaces are capped at 24 outcomes, got 25"):
            count_expressions(25)
        assert count_expressions(1) == 1
        assert count_expressions(24) == 1 << (2**24 - 25)
        assert count_expressions(True) == 1
