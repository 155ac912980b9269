import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdec import (
    AtomSet,
    CapacityError,
    Distribution,
    Ideal,
    OutcomeSpace,
    Partition,
    content,
    entropy,
    merge_loss,
    mu_atom,
    mu_ideal,
    mu_set,
    mu_table,
)

from logdec.measure import mu_ideal_batch, mu_table_batch

from conftest import A, random_distribution, random_partition

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

    def test_only_member_weights_matter(self):
        d2 = Distribution(OutcomeSpace(2), (0.25, 0.25))
        d4 = Distribution(OutcomeSpace(4), (0.25, 0.25, 0.25, 0.25))
        assert mu_atom(d4, A("12")) == pytest.approx(mu_atom(d2, A("12")), abs=1e-15)


class TestMuSet:
    def test_empty_set_is_zero(self):
        sp = OutcomeSpace(3)
        assert mu_set(Distribution.uniform(sp), AtomSet(sp, frozenset())) == 0.0

    def test_pair_ideal_value(self):
        sp = OutcomeSpace(3)
        d = Distribution.uniform(sp)
        s = AtomSet(sp, frozenset({A("12"), A("123")}))
        assert mu_set(d, s) == pytest.approx(LG3 - 4.0 / 3.0, abs=1e-12)

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


class TestMergeLoss:
    def test_merging_two_of_uniform_four(self):
        sp = OutcomeSpace(4)
        assert merge_loss(Distribution.uniform(sp), A("12")) == pytest.approx(0.5, abs=1e-12)

    def test_zero_probability_outcome_costs_nothing(self):
        sp = OutcomeSpace(3)
        d = Distribution(sp, (0.0, 0.4, 0.6))
        assert merge_loss(d, A("12")) == pytest.approx(0.0, abs=1e-12)

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
            table = mu_table(dist.weights)
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
        sp = OutcomeSpace(21)
        dist = Distribution.uniform(sp)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            mu_ideal(dist, Ideal.generated_by(sp, [A("12")]))
        with pytest.raises(CapacityError):
            mu_table(dist.weights)
        assert time.perf_counter() - start < 1.0

    def test_empty_ideal_measures_zero(self):
        sp = OutcomeSpace(4)
        assert mu_ideal(Distribution.uniform(sp), Ideal.empty(sp)) == 0.0

    def test_kernel_is_bit_identical_to_the_concatenate_kernel(self, rng):
        from conftest import random_ideal

        for n in range(2, 17):
            rows = rng.dirichlet(np.ones(n), size=4)
            rows[1, int(rng.integers(n))] = 0.0
            rows[2] *= 7.3
            rows[3] = rng.uniform(0.0, 3.0, size=n)
            reference = _concatenate_kernel(rows)
            assert np.array_equal(mu_table_batch(rows), reference), n
            sp = OutcomeSpace(n)
            for _ in range(3):
                ideal = random_ideal(rng, sp, max_generators=12)
                flags = np.zeros(1 << n, dtype=bool)
                flags[list(ideal.enumerate().atoms)] = True
                for row, table in zip(rows, reference):
                    expected = table[None, :][:, flags].sum(axis=1)[0]
                    assert mu_ideal(Distribution(sp, tuple(row)), ideal) == expected, n

    def test_batched_rows_measure_as_single_rows(self, rng):
        from conftest import random_ideal

        for n in (3, 9, 12):
            sp = OutcomeSpace(n)
            rows = rng.dirichlet(np.ones(n), size=50)
            ideal = random_ideal(rng, sp, max_generators=6)
            batch = mu_ideal_batch(rows, ideal)
            singles = [mu_ideal(Distribution(sp, tuple(r)), ideal) for r in rows]
            assert np.array_equal(batch, singles)

    def test_table_handles_unnormalized_weights(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            dist = Distribution(sp, tuple(rng.uniform(0.01, 5.0, size=n)))
            table = mu_table(dist.weights)
            for atom in range(1, sp.full_mask + 1):
                if atom.bit_count() >= 2:
                    assert table[atom] == pytest.approx(mu_atom(dist, atom), abs=1e-10)


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
        total = mpmath.mpf(0)
        for sub in range(1, 1 << n):
            s = sums[sub]
            term = s * mpmath.log(s, 2) if s > 0 else mpmath.mpf(0)
            total += term if (n - sub.bit_count()) % 2 == 0 else -term
        return total


class TestAccuracy:
    # Absolute error: the top atom of skewed weights can be ~1e-13 itself,
    # so relative error says nothing there.
    ABS_ERROR = 1e-12

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet-1", "dirichlet-0.2"])
    def test_top_atom_against_a_60_digit_oracle(self, kind):
        rng = np.random.default_rng(20240818)
        for n in range(2, 13):
            if kind == "uniform":
                weights = [1.0 / n] * n
            else:
                alpha = float(kind.split("-")[1])
                weights = [float(x) for x in rng.dirichlet(np.full(n, alpha))]
            exact = _oracle_top_atom(weights)
            top = (1 << n) - 1
            table_value = mu_table(weights)[top]
            atom_value = mu_atom(Distribution(OutcomeSpace(n), weights), top)
            assert abs(mpmath.mpf(float(table_value)) - exact) <= self.ABS_ERROR, n
            assert abs(mpmath.mpf(atom_value) - exact) <= self.ABS_ERROR, n
