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

from conftest import A, random_distribution


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

    def test_singleton_generators_are_tolerated(self):
        # transient degree-1 algebra: <1> . <2> meets at the pair
        one = ideal(3, "1")
        two = ideal(3, "2")
        assert one.intersection(two) == ideal(3, "12")
        assert one.enumerate().atoms == {A("12"), A("13"), A("123")}


class TestMembership:
    def test_contains_supersets_only(self):
        i = ideal(3, "12")
        assert i.contains(A("123"))
        assert not i.contains(A("13"))

    def test_or_gate_ideal_contains_top(self):
        assert ideal(4, "14", "123").contains(A("1234"))


class TestEnumerate:
    def test_pair_on_three_outcomes(self):
        assert ideal(3, "12").enumerate().atoms == {A("12"), A("123")}

    def test_top_atom_alone(self):
        assert ideal(4, "1234").enumerate().atoms == {A("1234")}

    def test_two_pair_generators_give_six_atoms(self):
        got = ideal(4, "12", "13").enumerate().atoms
        assert got == {A("12"), A("13"), A("123"), A("124"), A("134"), A("1234")}


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
            return a.enumerate().atoms - b.enumerate().atoms

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
        assert i.union(j).enumerate().atoms == brute_upper_set(g1, n) | brute_upper_set(g2, n)
        assert i.intersection(j).enumerate().atoms == brute_upper_set(g1, n) & brute_upper_set(g2, n)

    @given(generator_sets())
    @settings(max_examples=120, deadline=None)
    def test_minimal_antichain_is_canonical(self, gens):
        sp = OutcomeSpace(6)
        i = Ideal.generated_by(sp, gens)
        # regenerate from the full upper-set: same antichain comes back
        assert Ideal.generated_by(sp, i.enumerate().atoms) == i

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
