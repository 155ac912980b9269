import math
import random
import time

import mpmath
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
    build_gate,
    canonical_classes,
    coinformation_content,
    common_refinement,
    content,
    entropy,
    enumerate_complex,
    exact_sign,
    merge_loss,
    mu_atom,
    mu_ideal,
    mu_set,
    mu_table,
)

from logdec.measure import _ideal_expansion, mu_ideal_batch

from conftest import A, random_atom, random_distribution, random_ideal, random_partition
from test_acceptance import _exact_sign, _superset_moebius

LG3 = math.log2(3.0)


class TestMuAtom:
    def test_equiprobable_halves_lose_one_bit(self):
        d = Distribution(OutcomeSpace(2), (0.5, 0.5))
        assert mu_atom(d, A("12")) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_weights(self):
        # (p1+p2)log(p1+p2) - p1 log p1 - p2 log p2, hand-evaluated
        d = Distribution(OutcomeSpace(2), (0.25, 0.25))
        assert mu_atom(d, A("12")) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_triple_is_negative(self):
        d = Distribution.uniform(OutcomeSpace(3))
        assert mu_atom(d, A("123")) == pytest.approx(LG3 - 2.0, abs=1e-12)

    def test_zero_member_weight_gives_exact_zero(self):
        d = Distribution(OutcomeSpace(3), (0.3, 0.0, 0.7))
        assert mu_atom(d, A("123")) == 0.0

    def test_degree_below_two_rejected(self):
        d = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError):
            mu_atom(d, A("1"))

    def test_atom_outside_the_space_rejected(self):
        d = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError, match="outside the outcome space"):
            mu_atom(d, 0b11000)

    def test_only_member_weights_matter(self):
        d2 = Distribution(OutcomeSpace(2), (0.25, 0.25))
        d4 = Distribution(OutcomeSpace(4), (0.25, 0.25, 0.25, 0.25))
        assert mu_atom(d4, A("12")) == pytest.approx(mu_atom(d2, A("12")), abs=1e-15)


class TestMuSet:
    def test_empty_set_is_zero(self):
        sp = OutcomeSpace(3)
        assert mu_set(Distribution.uniform(sp), ()) == 0.0

    def test_every_sum_is_a_float(self):
        d = Distribution.uniform(OutcomeSpace(3))
        assert type(mu_set(d, [])) is type(mu_set(d, [A("12")])) is float

    def test_pair_ideal_value(self):
        sp = OutcomeSpace(3)
        d = Distribution.uniform(sp)
        assert mu_set(d, {A("12"), A("123")}) == pytest.approx(LG3 - 4.0 / 3.0, abs=1e-12)

    def test_any_collection_sums_in_ascending_order(self, rng):
        sp = OutcomeSpace(6)
        d = random_distribution(rng, sp)
        atoms = enumerate_complex(sp)
        expected = mu_set(d, atoms)
        assert mu_set(d, set(atoms)) == expected
        assert mu_set(d, reversed(atoms)) == expected
        assert mu_set(d, map(np.int64, atoms)) == expected
        # a set of atoms: a repeated atom counts once
        u = Distribution.uniform(OutcomeSpace(3))
        assert mu_set(u, [A("12"), A("12")]) == mu_atom(u, A("12"))

    @pytest.mark.parametrize(
        "atom, message",
        [
            (A("14"), "outside"), (A("4"), "outside"), (-3, "outside"),
            (A("1"), "degree"), (0, "degree"),
            (3.0, "integer"), ("3", "integer"), (np.float64(3), "integer"),
        ],
    )
    def test_bad_atom_rejected(self, atom, message):
        d = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError, match=message):
            mu_set(d, [A("12"), atom])
        with pytest.raises(ValueError, match=message):
            merge_loss(d, atom)

    def test_full_content_recovers_entropy(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            sp = OutcomeSpace(n)
            part = random_partition(rng, sp)
            dist = random_distribution(rng, sp)
            total = mu_set(dist, content(part).enumerate())
            assert total == pytest.approx(entropy(dist, part), abs=1e-9)


class TestEntropy:
    def test_uniform_pair_identity_partition(self):
        sp = OutcomeSpace(2)
        assert entropy(Distribution.uniform(sp), Partition.discrete(sp)) == pytest.approx(1.0)

    def test_single_block_is_zero(self):
        sp = OutcomeSpace(4)
        assert entropy(Distribution.uniform(sp), Partition.single_block(sp)) == 0.0

    def test_binary_split_of_uniform_triple(self):
        sp = OutcomeSpace(3)
        part = Partition.from_blocks(sp, [[0], [1, 2]])
        expected = LG3 - 2.0 / 3.0  # H(1/3, 2/3)
        assert entropy(Distribution.uniform(sp), part) == pytest.approx(expected, abs=1e-12)

    def test_requires_normalization(self):
        sp = OutcomeSpace(2)
        with pytest.raises(ValueError):
            entropy(Distribution(sp, (0.5, 0.6)), Partition.discrete(sp))

    @pytest.mark.parametrize("n", [2, 4])
    def test_partition_from_another_space_rejected(self, n):
        # a larger space indexed past the weights, a smaller one gave a
        # wrong number (1.0566 bits for the uniform triple's two outcomes)
        dist = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError, match="different outcome spaces"):
            entropy(dist, Partition.discrete(OutcomeSpace(n)))


class TestMergeLoss:
    def test_merging_two_of_uniform_four(self):
        sp = OutcomeSpace(4)
        assert merge_loss(Distribution.uniform(sp), A("12")) == pytest.approx(0.5, abs=1e-12)

    def test_zero_probability_outcome_costs_nothing(self):
        sp = OutcomeSpace(3)
        d = Distribution(sp, (0.0, 0.4, 0.6))
        assert merge_loss(d, A("12")) == pytest.approx(0.0, abs=1e-12)

    def test_atom_outside_the_space_rejected(self):
        d = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError, match="outside the outcome space"):
            merge_loss(d, 0b11000)

    def test_equals_sum_of_sub_atom_measures(self, rng):
        # Moebius-inversion round trip on every atom of random small
        # instances, so merged members also sit after unmerged outcomes.
        for _ in range(30):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            dist = random_distribution(rng, sp)
            for s in range(1, sp.full_mask + 1):
                if s.bit_count() < 2:
                    continue
                total = sum(
                    mu_atom(dist, t)
                    for t in range(1, s + 1)
                    if t & ~s == 0 and t.bit_count() >= 2
                )
                assert merge_loss(dist, s) == pytest.approx(total, abs=1e-12)


class TestSignAndLimitLaws:
    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_sign_rule(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        sp = OutcomeSpace(n)
        dist = random_distribution(rng, sp, floor=0.01)
        d = int(rng.integers(2, n + 1))
        members = rng.choice(n, size=d, replace=False)
        atom = int(sum(1 << int(i) for i in members))
        value = mu_atom(dist, atom)
        assert (-1.0) ** d * value > 1e-12

    def test_vanishing_member_kills_the_measure(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            w = list(rng.uniform(0.1, 1.0, size=n))
            w[0] = 1e-9
            assert abs(mu_atom(Distribution(sp, tuple(w)), sp.full_mask)) < 1e-6

    def test_huge_member_approaches_the_atom_beneath(self, rng):
        for _ in range(60):
            d = int(rng.integers(3, 7))
            sp_low = OutcomeSpace(d - 1)
            sp_high = OutcomeSpace(d)
            w = list(rng.uniform(0.1, 1.0, size=d - 1))
            low = mu_atom(Distribution(sp_low, tuple(w)), sp_low.full_mask)
            high = mu_atom(Distribution(sp_high, tuple(w + [1e6])), sp_high.full_mask)
            assert abs(abs(high) - abs(low)) < 1e-3

    def test_magnitude_only_decreases_upward(self, rng):
        for _ in range(100):
            d = int(rng.integers(3, 7))
            sp_low = OutcomeSpace(d - 1)
            sp_high = OutcomeSpace(d)
            w = list(rng.uniform(0.05, 1.0, size=d - 1))
            tau = float(rng.uniform(0.01, 2.0))
            low = mu_atom(Distribution(sp_low, tuple(w)), sp_low.full_mask)
            high = mu_atom(Distribution(sp_high, tuple(w + [tau])), sp_high.full_mask)
            assert abs(high) < abs(low) - 1e-12


class TestBulkTable:
    def test_table_agrees_with_per_atom_measure(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            dist = random_distribution(rng, sp)
            table = mu_table(dist)
            for atom in range(1, sp.full_mask + 1):
                if atom.bit_count() >= 2:
                    assert table[atom] == pytest.approx(mu_atom(dist, atom), abs=1e-12)

    def test_ideal_measure_agrees_with_enumeration(self, rng):
        from conftest import random_ideal

        for _ in range(25):
            n = int(rng.integers(2, 8))
            sp = OutcomeSpace(n)
            dist = random_distribution(rng, sp)
            ideal = random_ideal(rng, sp)
            assert mu_ideal(dist, ideal) == pytest.approx(
                mu_set(dist, ideal.enumerate()), abs=1e-9
            )

    def test_above_the_table_cap_raises_capacity_error(self):
        # The table stops at 20 outcomes; ideals are measured up to the
        # 24-outcome space cap, and an expansion past its work cap fails
        # fast: 12 disjoint pairs on 24 outcomes expand over 3**12 masses.
        for n in (21, 24):
            sp = OutcomeSpace(n)
            dist = Distribution.uniform(sp)
            with pytest.raises(CapacityError):
                mu_table(dist)
            # <12> expands over the masks outside {1, 2} joined with each
            # subset of {1, 2}: f(1) - 2 f(1 - 1/n) + f(1 - 2/n)
            f = lambda x: x * math.log2(x)
            expected = -2 * f(1 - 1 / n) + f(1 - 2 / n)
            pair = mu_ideal(dist, Ideal(sp, [A("12")]))
            assert pair == pytest.approx(expected, abs=1e-15)
        sp = OutcomeSpace(24)
        pairs = Ideal(sp, [0b11 << 2 * i for i in range(12)])
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            mu_ideal(Distribution.uniform(sp), pairs)
        assert time.perf_counter() - start < 1.0

    def test_empty_ideal_measures_zero(self):
        sp = OutcomeSpace(4)
        assert mu_ideal(Distribution.uniform(sp), Ideal(sp, [])) == 0.0

    def test_kernel_is_bit_identical_to_the_concatenate_kernel(self, rng):
        from conftest import random_ideal

        for n in range(2, 17):
            rows = rng.dirichlet(np.ones(n), size=4)
            rows[1, int(rng.integers(n))] = 0.0
            rows[2] *= 7.3
            rows[3] = rng.uniform(0.0, 3.0, size=n)
            reference = _concatenate_kernel(rows)
            sp = OutcomeSpace(n)
            for row, expected in zip(rows, reference):
                assert np.array_equal(mu_table(Distribution(sp, row)), expected), n
            for _ in range(3):
                ideal = random_ideal(rng, sp, max_generators=12)
                flags = np.zeros(1 << n, dtype=bool)
                flags[list(ideal.enumerate())] = True
                for row, table in zip(rows, reference):
                    expected = table[flags].sum()
                    value = mu_ideal(Distribution(sp, tuple(row)), ideal)
                    assert value == pytest.approx(expected, abs=1e-12), n

    def test_batched_rows_measure_as_single_rows(self, rng):
        from conftest import random_ideal

        for n in (3, 9, 12):
            sp = OutcomeSpace(n)
            rows = rng.dirichlet(np.ones(n), size=50)
            ideal = random_ideal(rng, sp, max_generators=6)
            batch = mu_ideal_batch(rows, ideal)
            singles = [mu_ideal_batch(r[None], ideal)[0] for r in rows]
            assert np.array_equal(batch, singles)

    def test_rows_beyond_one_chunk_measure_as_single_rows(self, rng):
        # The top atom of 12 outcomes has a 4096-entry expansion, so 300
        # rows take two chunks of 2**20 masses.
        sp = OutcomeSpace(12)
        rows = rng.dirichlet(np.ones(12), size=300)
        top = Ideal(sp, [sp.full_mask])
        singles = [mu_ideal_batch(r[None], top)[0] for r in rows]
        assert np.array_equal(mu_ideal_batch(rows, top), singles)

    def test_scalar_measure_agrees_with_the_batch(self, rng):
        # Same masses; math.log2 and fsum against numpy's log2 and
        # pairwise sum.  Measured at most 8.7e-15 over these 300 ideals.
        from conftest import random_ideal

        for _ in range(300):
            n = int(rng.integers(3, 15))
            sp = OutcomeSpace(n)
            ideal = random_ideal(rng, sp, max_generators=6)
            rows = rng.dirichlet(np.ones(n), size=5)
            for row, value in zip(rows, mu_ideal_batch(rows, ideal)):
                scalar = mu_ideal(Distribution(sp, tuple(row)), ideal)
                assert abs(scalar - value) <= 4.5e-14, n

    def test_table_handles_unnormalized_weights(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            dist = Distribution(sp, tuple(rng.uniform(0.01, 5.0, size=n)))
            table = mu_table(dist)
            for atom in range(1, sp.full_mask + 1):
                if atom.bit_count() >= 2:
                    assert table[atom] == pytest.approx(mu_atom(dist, atom), abs=1e-10)


class TestExpansion:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_table_sweep(self, seed):
        # Random ideals up to 12 outcomes, the full mask included, plus
        # the empty ideal (the only one on a single outcome).
        rng = np.random.default_rng([20241101, seed])
        for _ in range(150):
            n = int(rng.integers(1, 13))
            sp = OutcomeSpace(n)
            count = int(rng.integers(0, 8)) if n >= 2 else 0
            gens = [random_atom(rng, sp, min_degree=2) for _ in range(count)]
            if n >= 2 and rng.random() < 0.1:
                gens.append(sp.full_mask)
            ideal = Ideal(sp, gens)
            assert _ideal_expansion(ideal) == _table_sweep_expansion(ideal), (n, gens)

    def test_agrees_with_the_table_sweep_on_structure_ideals(self):
        for n, k, parts in _structure_systems(seed=1):
            ideal = coinformation_content(parts)
            assert _ideal_expansion(ideal) == _table_sweep_expansion(ideal), (n, k)

    def test_coefficients_are_the_superset_moebius_inverse(self, rng):
        from conftest import random_ideal

        for _ in range(40):
            sp = OutcomeSpace(int(rng.integers(2, 7)))
            ideal = random_ideal(rng, sp, max_generators=4)
            members = set(ideal.enumerate())
            expected = {}
            for u in range(sp.full_mask + 1):
                c = sum(
                    (-1) ** (t & ~u).bit_count() for t in members if t & u == u
                )
                if c:
                    expected[u] = c
            assert dict(_ideal_expansion(ideal)) == expected

    def test_single_generator_is_the_closed_form(self, rng):
        # <g> expands over U = S | ~g for every S inside g, with
        # coefficient (-1)**|g - S|.
        for _ in range(40):
            sp = OutcomeSpace(int(rng.integers(2, 11)))
            g = random_atom(rng, sp)
            rest = sp.full_mask & ~g
            expected = {}
            for s in range(g + 1):
                if s & ~g == 0:
                    expected[s | rest] = (-1) ** (g & ~s).bit_count()
            assert dict(_ideal_expansion(Ideal(sp, [g]))) == expected


def _integer_masses(weights, n: int) -> list[int]:
    """The weight of every mask, indexed by bit pattern."""
    return [sum(w for i, w in enumerate(weights) if u >> i & 1) for u in range(1 << n)]


def _census_ideals(nx: int, ny: int):
    for table, _ in canonical_classes(nx, ny):
        gate = build_gate(nx, ny, table)
        ideal = coinformation_content([gate.x, gate.y, gate.z])
        if not ideal.is_empty:
            yield ideal


class TestExactSign:
    def test_agrees_with_the_membership_table_oracle(self, rng):
        # the oracle's coefficients come from the membership table, not
        # from the measure's expansion; zero weights included
        for _ in range(300):
            sp = OutcomeSpace(int(rng.integers(2, 8)))
            ideal = random_ideal(rng, sp, max_generators=4)
            weights = [int(w) for w in rng.integers(0, 21, size=sp.n)]
            expected, _ = _exact_sign(_superset_moebius(ideal), _integer_masses(weights, sp.n))
            assert exact_sign(ideal, weights) == expected, (ideal, weights)

    @pytest.mark.parametrize("nx, ny", [(2, 3), (3, 3)])
    def test_agrees_with_60_digits_on_census_ideals(self, nx, ny):
        # D * mu = sum c_U M_U log2 M_U - C log2 D at 60 digits, on every
        # third nonempty census ideal
        draw = random.Random(0)
        for ideal in list(_census_ideals(nx, ny))[::3]:
            n = ideal.space.n
            weights = [draw.randint(1, 20) for _ in range(n)]
            masses = _integer_masses(weights, n)
            coeffs = _superset_moebius(ideal)
            with mpmath.workdps(60):
                scaled = mpmath.fsum(c * m * mpmath.log(m, 2) for c, m in zip(coeffs, masses) if m)
                scaled -= sum(c * m for c, m in zip(coeffs, masses)) * mpmath.log(masses[-1], 2)
            expected = 0 if abs(scaled) < 1e-40 else int(mpmath.sign(scaled))
            assert exact_sign(ideal, weights) == expected, (ideal, weights)

    def test_exact_zeros(self):
        sp = OutcomeSpace(4)
        assert exact_sign(Ideal(sp, []), [1, 2, 3, 4]) == 0
        assert exact_sign(Ideal(sp, [A("12")]), [0, 2, 3, 4]) == 0
        assert exact_sign(Ideal(sp, [A("14"), A("123")]), [0, 0, 0, 0]) == 0

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1, 2, 3, -1], "weights must be nonnegative"),
            ([1, 2, 3, 1.0], "exact weights are integers, got 1.0"),
            ([1, 2, 3], "one weight per outcome"),
            (5, "exact weights are a sequence of integers, got 5"),
        ],
    )
    def test_bad_weights_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            exact_sign(Ideal(OutcomeSpace(4), [A("12")]), weights)

    def test_weights_past_the_meter_raise_capacity_error_at_once(self):
        # about 10**9 bits at weights near 10**6 on 20 outcomes
        ideal = Ideal(OutcomeSpace(20), [0b11, 0b11100])
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="the exact sign would exceed its cap"):
            exact_sign(ideal, [10**6 + i for i in range(20)])
        assert time.perf_counter() - start < 1.0

    def test_the_cap_is_reported_in_bits(self):
        # the estimate counts bits of the compared products, not steps
        sp = OutcomeSpace(20)
        parts = [Partition(sp, tuple(i % k for i in range(20))) for k in (2, 3, 4)]
        with pytest.raises(CapacityError) as raised:
            exact_sign(coinformation_content(parts), [10**6 + i for i in range(20)])
        assert str(raised.value) == "the exact sign would exceed its cap of 3000000 bits"


def _table_sweep_expansion(ideal: Ideal) -> tuple[tuple[int, int], ...]:
    """c_I from the 2**n membership table: the upward closure of the
    generators without the degrees below 2, then one integer
    superset-Moebius sweep: the evaluator's earlier route, kept as its oracle."""
    n = ideal.space.n
    flags = np.zeros(1 << n, dtype=bool)
    flags[list(ideal.generators)] = True
    for b in range(n):
        step = 1 << b
        v = flags.reshape(-1, 2 * step)
        v[:, step:] |= v[:, :step]
    flags[[0] + [1 << k for k in range(n)]] = False
    c = flags.astype(np.int64)
    for b in range(n):
        step = 1 << b
        v = c.reshape(-1, 2 * step)
        v[:, :step] -= v[:, step:]
    support = np.flatnonzero(c)
    return tuple(zip(support.tolist(), c[support].tolist()))


def _structure_systems(seed: int):
    """The systems of the benchmark's `structure` workload: 16 to 20
    outcomes times 2 to 4 variables of 2 to 4 nonempty blocks, drawn as
    perfbench/workloads.py draws them."""
    index = 0
    for n in range(16, 21):
        for k in (2, 3, 4):
            rng = np.random.default_rng([seed, 3, index])
            index += 1
            sp = OutcomeSpace(n)
            parts = []
            for _ in range(k):
                b = int(rng.integers(2, 5))
                blocks = list(range(b)) + [int(x) for x in rng.integers(0, b, n - b)]
                rng.shuffle(blocks)
                parts.append(Partition(sp, blocks))
            yield n, k, parts


def _concatenate_kernel(weight_rows) -> np.ndarray:
    """The table kernel as first written: concatenated mass halves and
    np.where temporaries.  Same float operations in the same order."""
    W = np.asarray(weight_rows, dtype=np.float64)
    s, n = W.shape
    m = np.zeros((s, 1), dtype=np.float64)
    for k in range(n):
        m = np.concatenate([m, m + W[:, k : k + 1]], axis=1)
    t = np.where(m > 0.0, m * np.log2(np.where(m > 0.0, m, 1.0)), 0.0)
    for b in range(n):
        step = 1 << b
        v = t.reshape(s, -1, 2 * step)
        v[:, :, step:] -= v[:, :, :step]
    degrees = np.array([bin(i).count("1") for i in range(1 << n)])
    t[:, degrees < 2] = 0.0
    return t


def _oracle_top_atom(weights) -> mpmath.mpf:
    """mu of the full-space atom as a 60-digit alternating sum of x*log2(x)."""
    n = len(weights)
    with mpmath.workdps(60):
        sums = [mpmath.mpf(0)]
        for w in weights:
            sums += [s + mpmath.mpf(w) for s in sums]
        # One logarithm per distinct mass: uniform weights repeat them.
        terms: dict = {}
        total = mpmath.mpf(0)
        for sub in range(1, 1 << n):
            s = sums[sub]
            if s not in terms:
                terms[s] = s * mpmath.log(s, 2) if s > 0 else mpmath.mpf(0)
            total += terms[s] if (n - sub.bit_count()) % 2 == 0 else -terms[s]
        return total


def _top_atom_weights(rng, kind: str, n: int) -> list[float]:
    if kind == "uniform":
        return [1.0 / n] * n
    alpha = float(kind.split("-")[1])
    return [float(x) for x in rng.dirichlet(np.full(n, alpha))]


class TestAccuracy:
    # Absolute error: the top atom of skewed weights can be ~1e-13 itself,
    # so relative error says nothing there.
    ABS_ERROR = 1e-12
    # Above 12 outcomes the uniform top atom dominates the error, which
    # grows with the 2**n cancelling terms.  Measured maxima over mu_table
    # and mu_atom, uniform and Dirichlet(0.2) weights: n=13 5.4e-14,
    # n=14 1.2e-13, n=15 2.0e-13, n=16 1.3e-12 (Dirichlet at most 1.6e-14);
    # each bound is at least 5x its maximum.
    WIDE_ABS_ERROR = {13: 3e-13, 14: 6e-13, 15: 1e-12, 16: 7e-12}

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet-1", "dirichlet-0.2"])
    def test_top_atom_against_a_60_digit_oracle(self, kind):
        rng = np.random.default_rng(20240818)
        for n in range(2, 13):
            weights = _top_atom_weights(rng, kind, n)
            exact = _oracle_top_atom(weights)
            top = (1 << n) - 1
            dist = Distribution(OutcomeSpace(n), weights)
            table_value = mu_table(dist)[top]
            atom_value = mu_atom(dist, top)
            assert abs(mpmath.mpf(float(table_value)) - exact) <= self.ABS_ERROR, n
            assert abs(mpmath.mpf(atom_value) - exact) <= self.ABS_ERROR, n

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet-0.2"])
    def test_top_atom_above_twelve_outcomes(self, kind):
        rng = np.random.default_rng(20241018)
        for n, bound in self.WIDE_ABS_ERROR.items():
            weights = _top_atom_weights(rng, kind, n)
            exact = _oracle_top_atom(weights)
            top = (1 << n) - 1
            dist = Distribution(OutcomeSpace(n), weights)
            table_value = mu_table(dist)[top]
            atom_value = mu_atom(dist, top)
            assert abs(mpmath.mpf(float(table_value)) - exact) <= bound, n
            assert abs(mpmath.mpf(atom_value) - exact) <= bound, n

    def test_coinformation_ideals_against_a_60_digit_oracle(self):
        # mu of the content intersection against the entropy route, which
        # never touches the expansion: n = 10..24, 2 to 4 variables.
        rng = np.random.default_rng(20240901)
        for n in range(10, 25):
            sp = OutcomeSpace(n)
            for k in (2, 3, 4):
                parts = [_random_blocks(rng, sp) for _ in range(k)]
                ideal = coinformation_content(parts)
                weights = [float(x) for x in rng.dirichlet(np.ones(n))]
                value = mu_ideal(Distribution(sp, weights), ideal)
                exact = _oracle_coinformation(weights, parts)
                assert abs(mpmath.mpf(value) - exact) <= 1e-13, (n, k)


def _random_blocks(rng, space: OutcomeSpace) -> Partition:
    """A partition into 2 to 4 nonempty blocks."""
    b = int(rng.integers(2, 5))
    blocks = list(range(b)) + [int(x) for x in rng.integers(0, b, space.n - b)]
    rng.shuffle(blocks)
    return Partition(space, blocks)


def _oracle_coinformation(weights, parts) -> mpmath.mpf:
    """Alternating sum of joint entropies at 60 digits."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for sub in range(1, 1 << len(parts)):
            chosen = [p for i, p in enumerate(parts) if sub >> i & 1]
            joint = chosen[0]
            for p in chosen[1:]:
                joint = common_refinement(joint, p)
            h = mpmath.mpf(0)
            for mask in joint.block_masks:
                q = mpmath.fsum(mpmath.mpf(w) for i, w in enumerate(weights) if mask >> i & 1)
                if q > 0:
                    h -= q * mpmath.log(q, 2)
            total += h if len(chosen) % 2 else -h
        return total
