import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdec import (
    Ideal,
    OutcomeSpace,
    minimal_antichain,
    mu_ideal,
)
from logdec.ideals import minimal_transversals

from conftest import A, random_distribution, random_ideal


def ideal(n, *atoms):
    return Ideal.generated_by(OutcomeSpace(n), [A(a) for a in atoms])


def brute_upper_set(gens, n):
    return {
        m
        for m in range(1, 1 << n)
        if m.bit_count() >= 2 and any(g & m == g for g in gens)
    }


class TestConstruction:
    def test_redundant_generator_dropped(self):
        assert ideal(3, "12", "123").generators == frozenset({A("12")})

    def test_minimal_antichain_helper(self):
        assert minimal_antichain([A("12"), A("123"), A("34")]) == frozenset(
            {A("12"), A("34")}
        )

    def test_empty_is_degenerate(self):
        empty = Ideal.empty(OutcomeSpace(4))
        assert empty.is_empty
        assert len(empty.enumerate()) == 0
        assert not empty.contains(A("12"))

    def test_rejects_empty_pattern_and_foreign_atoms(self):
        sp = OutcomeSpace(3)
        with pytest.raises(ValueError):
            Ideal.generated_by(sp, [0])
        with pytest.raises(ValueError):
            Ideal.generated_by(sp, [A("14")])

    def test_singleton_generators_are_rejected(self):
        # Ideals are upper sets of atoms; a degree-1 pattern is not one.
        for gens in (["1"], ["1", "23"], ["3", "12"]):
            with pytest.raises(ValueError, match="degree >= 2"):
                ideal(3, *gens)


class TestMembership:
    def test_contains_supersets_only(self):
        i = ideal(3, "12")
        assert i.contains(A("123"))
        assert not i.contains(A("13"))

    def test_or_gate_ideal_contains_top(self):
        assert ideal(4, "14", "123").contains(A("1234"))


class TestEnumerate:
    def test_pair_on_three_outcomes(self):
        assert ideal(3, "12").enumerate() == (A("12"), A("123"))

    def test_top_atom_alone(self):
        assert ideal(4, "1234").enumerate() == (A("1234"),)

    def test_two_pair_generators_give_six_atoms(self):
        got = ideal(4, "12", "13").enumerate()
        assert got == (A("12"), A("13"), A("123"), A("124"), A("134"), A("1234"))


class TestAlgebra:
    def test_union_concatenates_generators(self):
        assert ideal(4, "12").union(ideal(4, "13")) == ideal(4, "12", "13")

    def test_union_absorbs(self):
        assert ideal(4, "12").union(ideal(4, "123")) == ideal(4, "12")

    def test_union_of_content_pieces(self):
        got = ideal(4, "13", "23").union(ideal(4, "14", "24")).union(ideal(4, "34"))
        assert got == ideal(4, "13", "23", "14", "24", "34")

    def test_intersection_examples(self):
        assert ideal(4, "12", "23").intersection(ideal(4, "23")) == ideal(4, "23")
        assert ideal(4, "123").intersection(ideal(4, "234")) == ideal(4, "1234")

    def test_intersection_of_opposed_stars(self):
        # every product contains outcome 1, so only three generators survive
        got = ideal(4, "12", "13", "14").intersection(ideal(4, "23", "24", "34"))
        assert got == ideal(4, "123", "124", "134")

    def test_difference_examples(self):
        # set difference of enumerations; the result is not itself an ideal
        def minus(a, b):
            return set(a.enumerate()) - set(b.enumerate())

        assert minus(ideal(4, "123"), ideal(4, "1234")) == {A("123")}
        i = ideal(4, "12", "23")
        assert minus(i, i) == set()
        assert minus(ideal(3, "12"), ideal(3, "13")) == {A("12")}

    def test_degree_profiles(self):
        assert ideal(4, "14", "123").degree_profile() == (2, 3)
        assert ideal(4, "123", "124", "134", "234").degree_profile() == (3, 3, 3, 3)
        assert ideal(4, "12", "23").degree_profile() == (2, 2)
        assert ideal(4, "14", "123").generator_parities() == {0, 1}


@st.composite
def generator_sets(draw, n=6, max_gens=4):
    k = draw(st.integers(1, max_gens))
    gens = draw(
        st.lists(
            st.integers(1, (1 << n) - 1).filter(lambda m: m.bit_count() >= 2),
            min_size=k,
            max_size=k,
        )
    )
    return gens


class TestOracleEquivalence:
    @given(generator_sets(), generator_sets())
    @settings(max_examples=120, deadline=None)
    def test_union_and_intersection_match_brute_force(self, g1, g2):
        n = 6
        sp = OutcomeSpace(n)
        i, j = Ideal.generated_by(sp, g1), Ideal.generated_by(sp, g2)
        # listings are ascending tuples
        union = brute_upper_set(g1, n) | brute_upper_set(g2, n)
        meet = brute_upper_set(g1, n) & brute_upper_set(g2, n)
        assert i.union(j).enumerate() == tuple(sorted(union))
        assert i.intersection(j).enumerate() == tuple(sorted(meet))

    @given(generator_sets())
    @settings(max_examples=120, deadline=None)
    def test_minimal_antichain_is_canonical(self, gens):
        sp = OutcomeSpace(6)
        i = Ideal.generated_by(sp, gens)
        # regenerate from the full upper-set: same antichain comes back
        assert Ideal.generated_by(sp, i.enumerate()) == i

    @given(generator_sets(), generator_sets(), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_measure_inclusion_exclusion(self, g1, g2, seed):
        sp = OutcomeSpace(6)
        rng = np.random.default_rng(seed)
        dist = random_distribution(rng, sp)
        i, j = Ideal.generated_by(sp, g1), Ideal.generated_by(sp, g2)
        lhs = mu_ideal(dist, i.union(j))
        rhs = mu_ideal(dist, i) + mu_ideal(dist, j) - mu_ideal(dist, i.intersection(j))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_minimal_antichain_matches_the_definition(self):
        # Keep m iff no other element is a submask of it.  Set sizes and
        # degrees straddle 2**degree <= len(kept), where the candidate
        # check switches from scanning the kept set to submask lookups.
        rng = np.random.default_rng(20241018)
        lookups = scans = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            size = int(rng.integers(1, 400))
            top = int(rng.integers(1, n + 1))
            atoms = {
                int(sum(1 << int(i) for i in rng.choice(n, size=int(rng.integers(1, top + 1)), replace=False)))
                for _ in range(size)
            }
            arr = np.array(sorted(atoms), dtype=np.int64)
            below = (arr[:, None] & arr[None, :]) == arr[:, None]
            np.fill_diagonal(below, False)
            expected = frozenset(int(m) for m in arr[~below.any(axis=0)])
            assert minimal_antichain(atoms) == expected
            for m in atoms:
                if 1 << m.bit_count() <= len(expected):
                    lookups += 1
                else:
                    scans += 1
        assert lookups > 1000 and scans > 1000


def no_cap(steps):
    pass


class TestMinimalTransversals:
    def test_edge_cases(self):
        assert minimal_transversals([], no_cap) == [0]
        assert minimal_transversals([0b101, 0], no_cap) == []
        assert sorted(minimal_transversals([0b011, 0b110], no_cap)) == [0b010, 0b101]

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            edges = [int(e) for e in rng.integers(0, 1 << n, int(rng.integers(0, 9)))]
            meets_all = [m for m in range(1 << n) if all(m & e for e in edges)]
            hits = set(meets_all)
            minimal = [
                m for m in meets_all
                if not any(m ^ 1 << i in hits for i in range(n) if m >> i & 1)
            ]
            assert sorted(minimal_transversals(edges, no_cap)) == minimal, edges

    def test_transversals_of_the_maximal_non_members_complements_are_the_generators(self, rng):
        sp = OutcomeSpace(4)
        ideals = [Ideal.empty(sp)]
        for _ in range(200):
            ideals.append(random_ideal(rng, OutcomeSpace(int(rng.integers(2, 11))), 5))
        for ideal in ideals:
            full = ideal.space.full_mask
            complements = [full & ~m for m in ideal.maximal_non_members(no_cap)]
            assert set(minimal_transversals(complements, no_cap)) == ideal.generators
