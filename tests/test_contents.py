import itertools
import time

import pytest

from logdec import (
    CapacityError,
    Distribution,
    Ideal,
    OutcomeSpace,
    Partition,
    all_partitions,
    coinformation_content,
    common_coarsening,
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

from conftest import A, random_distribution, random_partition


def triangle_system():
    sp = OutcomeSpace(3)
    x = Partition.from_blocks(sp, [[0], [1, 2]])
    y = Partition.from_blocks(sp, [[0, 2], [1]])
    return sp, x, y


def or_gate_system():
    from logdec import named_gate

    g = named_gate("or:2x2")
    return g.space, g.x, g.y, g.z


class TestContent:
    def test_triangle_content(self):
        sp, x, _ = triangle_system()
        assert content(x).enumerate().atoms == {A("12"), A("13"), A("123")}

    def test_three_block_partition_generators(self):
        sp = OutcomeSpace(4)
        x = Partition.from_blocks(sp, [[0, 1], [2], [3]])
        assert content(x) == Ideal.generated_by(
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
                assert content(part).enumerate().atoms == content_bruteforce(part).atoms

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
        assert got.atoms == {A("12"), A("123")}
        dist = Distribution.uniform(sp)
        mi = entropy(dist, x) + entropy(dist, y) - entropy(dist, Partition.discrete(sp))
        assert mu_set(dist, got) == pytest.approx(mi, abs=1e-9)

    def test_or_gate_triple_region(self):
        sp, x, y, z = or_gate_system()
        got = content(x).intersection(content(y)).intersection(content(z))
        assert got == Ideal.generated_by(sp, [A("14"), A("123")])

    def test_difference_region_measures_conditional_entropy(self, rng):
        # C(X) - C(Y) is not an ideal, but C(X) u C(Y) minus C(Y) measures it
        from logdec import common_refinement

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
        assert coinformation_content([x, y]) == Ideal.generated_by(x.space, [A("12")])

    def test_xor_triple_is_all_triples(self):
        from logdec import named_gate

        g = named_gate("xor:2x2")
        got = coinformation_content([g.x, g.y, g.z])
        assert got == Ideal.generated_by(
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

    def test_pair_intersections_have_pair_generators(self):
        # exhaustive at n <= 4 here; the acceptance suite pushes further
        for n in (2, 3, 4):
            sp = OutcomeSpace(n)
            parts = list(all_partitions(sp))
            for x, y in itertools.product(parts, parts):
                profile = coinformation_content([x, y]).degree_profile()
                assert all(d == 2 for d in profile)

    def test_generator_degrees_bounded_by_variable_count(self, rng):
        for m in (3, 4):
            for _ in range(80):
                n = int(rng.integers(2, 9))
                sp = OutcomeSpace(n)
                parts = [random_partition(rng, sp) for _ in range(m)]
                profile = coinformation_content(parts).degree_profile()
                assert all(d <= m for d in profile)


def partitions_with_content(atoms):
    """Every partition of the space whose content enumerates to `atoms`."""
    return [
        p for p in all_partitions(atoms.space) if content(p).enumerate().atoms == atoms.atoms
    ]


class TestRepresentability:
    def test_pair_ideal_is_not_a_partition(self):
        sp = OutcomeSpace(3)
        w = Ideal.generated_by(sp, [A("12")]).enumerate()
        assert partitions_with_content(w) == []

    def test_content_round_trips(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            part = random_partition(rng, sp)
            assert partitions_with_content(content(part).enumerate()) == [part]

    def test_empty_set_is_the_constant_variable(self):
        sp = OutcomeSpace(3)
        empty = Ideal.empty(sp).enumerate()
        assert partitions_with_content(empty) == [Partition.single_block(sp)]


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
        ideal = Ideal.generated_by(sp, [A("12")])
        parts = ideal_to_variables(ideal)
        assert coinformation_content(parts) == ideal

    def test_triple_round_trip(self):
        sp = OutcomeSpace(3)
        ideal = Ideal.generated_by(sp, [A("123")])
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

    def test_combination_cap_guards_blowup(self):
        sp = OutcomeSpace(5)
        gens = [
            sum(1 << i for i in combo)
            for combo in itertools.combinations(range(5), 3)
        ]
        with pytest.raises(CapacityError):
            ideal_to_variables(Ideal.generated_by(sp, gens))

    def test_empty_ideal_rejected(self):
        with pytest.raises(ValueError):
            ideal_to_variables(Ideal.empty(OutcomeSpace(3)))

    @pytest.mark.parametrize(
        "gens",
        [
            # one degree-18 generator: 2**18 - 2 = 262 142 two-block partitions
            [(1 << 18) - 1],
            # 14 pairs: 2**14 combinations, 13 refinements each, 212 992 builds
            [0b11 << i for i in range(14)],
        ],
    )
    def test_just_over_the_cap_fails_fast(self, gens):
        ideal = Ideal.generated_by(OutcomeSpace(24), gens)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            ideal_to_variables(ideal)
        assert time.perf_counter() - start < 1.0


def atom_bounds(space, atom):
    """The ideal <atom> and the part of it strictly above `atom`."""
    inner = Ideal.generated_by(space, [atom])
    free = space.full_mask & ~atom
    above = Ideal.generated_by(space, [atom | (1 << i) for i in range(space.n) if free >> i & 1])
    return inner, above


class TestAtomExtraction:
    def test_triple_inside_four(self):
        sp = OutcomeSpace(4)
        inner, above = atom_bounds(sp, A("123"))
        assert inner == Ideal.generated_by(sp, [A("123")])
        assert above == Ideal.generated_by(sp, [A("1234")])
        assert inner.enumerate().atoms - above.enumerate().atoms == {A("123")}

    def test_top_atom_has_nothing_above(self):
        sp = OutcomeSpace(4)
        inner, above = atom_bounds(sp, A("1234"))
        assert above.is_empty
        assert inner.enumerate().atoms - above.enumerate().atoms == {A("1234")}

    def test_pair_inside_three(self):
        sp = OutcomeSpace(3)
        inner, above = atom_bounds(sp, A("12"))
        assert above == Ideal.generated_by(sp, [A("123")])
        assert inner.enumerate().atoms - above.enumerate().atoms == {A("12")}

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
            atoms = sorted(enumerate_complex(OutcomeSpace(n)).atoms)
            explicit = sum(
                1 for r in range(len(atoms) + 1)
                for _ in itertools.combinations(atoms, r)
            )
            assert explicit == count_expressions(n)
