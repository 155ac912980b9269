import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logdec import (
    CapacityError,
    Distribution,
    Ideal,
    OutcomeSpace,
    Partition,
    SignSurvey,
    atom_bits,
    classify_parity,
    coinformation_content,
    coinformation_numeric,
    minimal_antichain,
    mu_ideal,
    named_gate,
    sign_survey,
    single_generator_sign,
    witness_distributions,
)
from logdec.parity import (
    CERTIFIED_EVEN,
    CERTIFIED_ODD,
    STRONGLY_MIXED,
    SURVEY_MAX_SAMPLES,
    UNDETERMINED,
    _expansions,
)
from logdec.ideals import step_meter
from logdec.measure import EQ_TOL

from conftest import A, random_atom, random_distribution


def ideal(n, *atoms):
    return Ideal(OutcomeSpace(n), [A(a) for a in atoms])


XOR_IDEAL = ideal(4, "123", "124", "134", "234")
OR_IDEAL = ideal(4, "14", "123")


def _certificate_value(dist, certificate):
    """Signed sum of leaf measures; equals the ideal's measure identically."""
    return sum(
        coeff * mu_ideal(dist, Ideal(dist.space, [mask]))
        for mask, coeff in certificate
    )


def _single_generator_mu_60_digits(weights, generator):
    """mu(<g>) at 60 digits, from the closed form
    sum over subsets S of g of (-1)**|g - S| * f(m(S) + m(outside g)),
    with f(x) = x*log2(x) and m the mass.  It sums 2**|g| terms and never
    touches the measure kernel or the atoms above g.
    """
    with mpmath.workdps(60):
        w = [mpmath.mpf(x) for x in weights]
        members = atom_bits(generator)
        outside = mpmath.fsum(w[i] for i in range(len(w)) if not generator >> i & 1)
        total = mpmath.mpf(0)
        for sub in range(1 << len(members)):
            m = outside + mpmath.fsum(w[i] for k, i in enumerate(members) if sub >> k & 1)
            if m > 0:
                term = m * mpmath.log(m, 2)
                total += -term if (len(members) - bin(sub).count("1")) % 2 else term
        return total


class TestClassification:
    def test_adjacent_pairs_certify_even(self):
        pc = classify_parity(ideal(4, "12", "23"))
        assert pc.tag == CERTIFIED_EVEN
        assert dict(pc.certificate) == {A("12"): 1, A("23"): 1, A("123"): -1}

    def test_all_triples_certify_odd_with_the_known_expansion(self):
        pc = classify_parity(XOR_IDEAL)
        assert pc.tag == CERTIFIED_ODD
        assert dict(pc.certificate) == {
            A("123"): 1,
            A("124"): 1,
            A("134"): 1,
            A("234"): 1,
            A("1234"): -3,
        }

    def test_mixed_degrees_are_strongly_mixed(self):
        assert classify_parity(OR_IDEAL).tag == STRONGLY_MIXED

    def test_disjoint_pairs_stay_undetermined(self):
        # the naive expansion of <14, 23> carries a minus-even leaf
        assert classify_parity(ideal(4, "14", "23")).tag == UNDETERMINED

    def test_single_generators_certify_trivially(self):
        even = classify_parity(ideal(4, "13"))
        odd = classify_parity(ideal(4, "134"))
        assert even.tag == CERTIFIED_EVEN and even.certificate == ((A("13"), 1),)
        assert odd.tag == CERTIFIED_ODD and odd.certificate == ((A("134"), 1),)

    def test_empty_ideal_has_no_parity(self):
        with pytest.raises(ValueError):
            classify_parity(Ideal(OutcomeSpace(3), []))

    def test_degree_one_generators_are_refused_when_the_ideal_is_built(self):
        # <1> used to certify odd although its measure is positive, <1, 23>
        # to be strongly mixed with no positive witness, and the sign of
        # <1> to fail the sign law: neither is an ideal of atoms.
        with pytest.raises(ValueError, match="degree >= 2"):
            classify_parity(ideal(3, "1"))
        with pytest.raises(ValueError, match="degree >= 2"):
            witness_distributions(ideal(3, "1", "23"))
        with pytest.raises(ValueError, match="degree >= 2"):
            single_generator_sign(Distribution.uniform(OutcomeSpace(3)), A("1"))

    def test_budget_exhaustion_is_undetermined(self):
        big = ideal(6, "12", "34", "56", "13", "25", "46")
        assert classify_parity(big, budget=5).tag == UNDETERMINED

    @pytest.mark.parametrize("atoms, steps", [(("12", "23", "34"), 7), (("12", "23"), 4)])
    def test_budget_counts_one_step_per_call_and_per_pivot(self, atoms, steps):
        # the smallest budgets that certify these chains
        chain = ideal(4, *atoms)
        assert classify_parity(chain, budget=steps - 1).tag == UNDETERMINED
        assert classify_parity(chain, budget=steps).tag == CERTIFIED_EVEN

    def test_stack_exhaustion_is_undetermined(self, monkeypatch):
        # Ten pair splitters over 24 outcomes: 1024 degree-10 generators,
        # one recursion level per peeled generator.
        sp = OutcomeSpace(24)
        parts = [
            Partition(sp, [0 if i // 2 == j else 1 for i in range(24)]) for j in range(10)
        ]
        ideal = coinformation_content(parts)
        assert len(ideal.generators) == 1024
        # the descent overflows before any generator set yields, so it
        # reduces no pivot products on the way down
        built = []

        def counted(atoms):
            built.append(1)
            return minimal_antichain(atoms)

        monkeypatch.setattr("logdec.parity.minimal_antichain", counted)
        assert classify_parity(ideal).tag == UNDETERMINED
        assert built == []


class TestCertificates:
    def test_certificate_is_the_moebius_inverse_of_membership(self, rng):
        # The leaf measures mu(<a>) are linearly independent, so an ideal has
        # exactly one signed leaf expansion: the Moebius inverse of its
        # membership table.  A certificate must be that expansion, and an
        # Undetermined ideal must have a wrongly signed leaf in it.
        from conftest import random_ideal

        seen = {CERTIFIED_EVEN: 0, CERTIFIED_ODD: 0, UNDETERMINED: 0}
        for _ in range(400):
            n = int(rng.integers(2, 7))
            the_ideal = random_ideal(rng, OutcomeSpace(n), 6)
            parities = the_ideal.generator_parities()
            if len(parities) == 2:
                continue
            masks = np.arange(1 << n)
            coeff = np.zeros(1 << n, dtype=np.int64)
            for g in the_ideal.generators:
                coeff[(masks & g) == g] = 1
            for b in range(n):
                step = 1 << b
                v = coeff.reshape(-1, 2 * step)
                v[:, step:] -= v[:, :step]
            leaves = {int(m): int(c) for m, c in enumerate(coeff) if c}
            target = 1 if parities == {0} else -1
            uniform = all(c * (-1) ** bin(m).count("1") * target > 0 for m, c in leaves.items())
            pc = classify_parity(the_ideal)
            seen[pc.tag] += 1
            if pc.tag == UNDETERMINED:
                assert not uniform
            else:
                assert dict(pc.certificate) == leaves
        assert min(seen.values()) >= 10, seen

    def test_every_expansion_of_an_ideal_is_the_first(self, rng):
        # By the same independence, every peel order gives the same leaf
        # expansion: once the first one is not uniformly signed, no later
        # one is.
        from conftest import random_ideal

        several = 0
        for _ in range(400):
            the_ideal = random_ideal(rng, OutcomeSpace(int(rng.integers(3, 8))), 5)
            spend = step_meter("the expansion test", cap=20_000)
            found = []
            try:
                for leaves in _expansions(the_ideal.generators, spend):
                    found.append(leaves)
            except CapacityError:
                pass
            assert found, the_ideal
            assert all(leaves == found[0] for leaves in found), the_ideal
            several += len(found) > 1
        assert several >= 100

    @pytest.mark.parametrize("the_ideal", [XOR_IDEAL, ideal(4, "12", "23"), ideal(5, "12", "23", "34")])
    def test_expansion_identity_holds_numerically(self, the_ideal, rng):
        pc = classify_parity(the_ideal)
        assert pc.certificate is not None
        for _ in range(40):
            dist = random_distribution(rng, the_ideal.space)
            assert _certificate_value(dist, pc.certificate) == pytest.approx(
                mu_ideal(dist, the_ideal), abs=1e-9
            )

    def test_certified_even_never_goes_negative(self, rng):
        the_ideal = ideal(4, "12", "23")
        for _ in range(200):
            dist = random_distribution(rng, the_ideal.space)
            assert mu_ideal(dist, the_ideal) >= -1e-9

    def test_certified_odd_never_goes_positive(self, rng):
        for _ in range(200):
            dist = random_distribution(rng, XOR_IDEAL.space)
            assert mu_ideal(dist, XOR_IDEAL) <= 1e-9


class TestSingleGeneratorSign:
    def test_signs_follow_degree(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            sp = OutcomeSpace(n)
            dist = random_distribution(rng, sp, floor=0.01)
            d = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=d, replace=False)
            g = int(sum(1 << int(i) for i in members))
            assert single_generator_sign(dist, g) == (-1) ** d

    def test_every_generator_on_small_spaces(self, rng):
        for n in range(2, 6):
            sp = OutcomeSpace(n)
            for g in range(1, sp.full_mask + 1):
                if g.bit_count() < 2:
                    continue
                for _ in range(20):
                    dist = random_distribution(rng, sp, floor=0.01)
                    assert single_generator_sign(dist, g) == (-1) ** g.bit_count()

    def test_top_atom_ideal_is_the_atom(self):
        sp = OutcomeSpace(4)
        dist = Distribution(sp, (0.1, 0.2, 0.3, 0.4))
        from logdec import mu_atom

        top = Ideal(sp, [sp.full_mask])
        assert mu_ideal(dist, top) == pytest.approx(mu_atom(dist, sp.full_mask))
        assert single_generator_sign(dist, sp.full_mask) == 1

    def test_zero_weight_member_rejected(self):
        sp = OutcomeSpace(3)
        dist = Distribution(sp, (0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            single_generator_sign(dist, A("12"))

    def test_generator_outside_the_space_rejected(self):
        d = Distribution.uniform(OutcomeSpace(3))
        with pytest.raises(ValueError, match="outside the outcome space"):
            single_generator_sign(d, 0b11000)

    def test_sign_below_float_resolution_is_refused(self):
        # true mu(<12>) is about w1 * w2 / ln 2 = 1.4e-12, under EQ_TOL
        dist = Distribution(OutcomeSpace(4), (1e-6, 1e-6, 0.5, 0.5 - 2e-6))
        with pytest.raises(ValueError, match="cannot be resolved"):
            single_generator_sign(dist, A("12"))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.sampled_from([0.2, 0.05, 0.01]),
    )
    @settings(max_examples=200, deadline=None)
    def test_skewed_weights_get_the_right_sign_or_a_refusal(self, seed, n, alpha):
        # Dirichlet(alpha) with small alpha piles the mass on a few outcomes,
        # so many generators have a true measure below the float error
        rng = np.random.default_rng(seed)
        sp = OutcomeSpace(n)
        dist = Distribution(sp, tuple(rng.dirichlet(np.full(n, alpha))))
        g = random_atom(rng, sp)
        exact = _single_generator_mu_60_digits(dist.weights, g)
        try:
            sign = single_generator_sign(dist, g)
        except ValueError:
            assert abs(exact) <= 2 * EQ_TOL
        else:
            assert sign == (-1) ** g.bit_count()
            assert mpmath.sign(exact) == sign


class TestWitnesses:
    def test_mixed_ideal_yields_both_signs(self):
        pos, neg = witness_distributions(OR_IDEAL)
        assert mu_ideal(pos.dist, OR_IDEAL) > 1e-8
        assert mu_ideal(neg.dist, OR_IDEAL) < -1e-8
        assert pos.dist.normalized and neg.dist.normalized

    def test_pure_even_only_has_a_positive_side(self):
        pos, neg = witness_distributions(ideal(3, "12"))
        assert neg is None
        assert mu_ideal(pos.dist, ideal(3, "12")) > 1e-8

    def test_pure_odd_only_has_a_negative_side(self):
        pos, neg = witness_distributions(XOR_IDEAL)
        assert pos is None
        assert mu_ideal(neg.dist, XOR_IDEAL) < -1e-8

    def test_or_gate_witnesses_match_the_biased_regimes(self):
        # mass on the diagonal pushes the co-information positive,
        # mass on the low triple pushes it negative
        pos, neg = witness_distributions(OR_IDEAL)
        assert pos.dist.weights[0] == pos.dist.weights[3] > 0.4
        assert neg.dist.weights[3] < 0.05

    def test_random_mixed_ideals_always_get_both_sides(self, rng):
        from conftest import random_atom

        produced = 0
        while produced < 25:
            n = int(rng.integers(3, 8))
            sp = OutcomeSpace(n)
            gens = [random_atom(rng, sp) for _ in range(int(rng.integers(2, 5)))]
            the_ideal = Ideal(sp, gens)
            if len(the_ideal.generator_parities()) != 2:
                continue
            produced += 1
            pos, neg = witness_distributions(the_ideal)
            assert mu_ideal(pos.dist, the_ideal) > 1e-8
            assert mu_ideal(neg.dist, the_ideal) < -1e-8

    def test_carried_measure_is_the_measure_bit_for_bit(self, rng):
        from conftest import random_ideal

        checked = 0
        for _ in range(60):
            the_ideal = random_ideal(rng, OutcomeSpace(int(rng.integers(2, 9))), 4)
            for w in witness_distributions(the_ideal):
                if w is not None:
                    assert w.mu == mu_ideal(w.dist, the_ideal)
                    checked += 1
        assert checked >= 60

    def test_a_gate_class_builds_its_expansion_once(self):
        # survey, positive witness and negative witness share one build
        from logdec import classify_gate
        from logdec.measure import _ideal_expansion

        _ideal_expansion.cache_clear()
        c = classify_gate(named_gate("or"), samples=50, seed=3)
        assert c.witness_positive is not None and c.witness_negative is not None
        assert _ideal_expansion.cache_info().misses == 1


@st.composite
def mixed_ideals(draw) -> Ideal:
    """Ideals on 3 to 8 outcomes whose generators have both parities."""
    n = draw(st.integers(3, 8))
    atom = st.integers(3, (1 << n) - 1).filter(lambda m: m.bit_count() >= 2)
    gens = draw(st.lists(atom, min_size=2, max_size=4))
    the_ideal = Ideal(OutcomeSpace(n), gens)
    assume(len(the_ideal.generator_parities()) == 2)
    return the_ideal


def _ideal_mu_60_digits(weights, the_ideal) -> mpmath.mpf:
    """mu(I) at 60 digits from the atoms of `Ideal.enumerate()`: each atom T
    adds (-1)**|T - S| * f(m(S)) for every nonempty S inside it, with
    f(x) = x*log2(x); the integer coefficients are summed first."""
    coeffs: dict[int, int] = {}
    for t in the_ideal.enumerate():
        s = t
        while s:
            coeffs[s] = coeffs.get(s, 0) + (-1) ** (t & ~s).bit_count()
            s = (s - 1) & t
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for s, c in coeffs.items():
            m = mpmath.fsum(mpmath.mpf(weights[i]) for i in atom_bits(s))
            if c and m > 0:
                total += c * m * mpmath.log(m, 2)
        return total


class TestWitnessSchedule:
    @given(mixed_ideals())
    @settings(max_examples=80, deadline=None)
    def test_witness_measures_have_their_sign_and_match_60_digits(self, the_ideal):
        pos, neg = witness_distributions(the_ideal)
        for side, w in ((1, pos), (-1, neg)):
            exact = _ideal_mu_60_digits(w.dist.weights, the_ideal)
            assert side * w.mu > 0 and mpmath.sign(exact) == side
            assert abs(mpmath.mpf(w.mu) - exact) <= 1e-12


class TestSurveys:
    def test_all_triples_survey_is_all_negative(self):
        sv = sign_survey(XOR_IDEAL, 1000, seed=11)
        assert (sv.positive, sv.negative, sv.zero) == (0, 1000, 0)

    def test_pair_survey_is_all_positive(self):
        sv = sign_survey(ideal(3, "12"), 1000, seed=11)
        assert (sv.positive, sv.negative, sv.zero) == (1000, 0, 0)

    def test_mixed_survey_sees_both_signs(self):
        sv = sign_survey(OR_IDEAL, 1000, seed=11)
        assert sv.positive > 0 and sv.negative > 0
        assert sv.min_value < 0 < sv.max_value
        assert mu_ideal(
            Distribution(OR_IDEAL.space, sv.min_weights), OR_IDEAL
        ) == pytest.approx(sv.min_value, abs=1e-9)

    def test_deterministic_under_seed(self):
        a = sign_survey(OR_IDEAL, 300, seed=5)
        b = sign_survey(OR_IDEAL, 300, seed=5)
        assert a == b
        c = sign_survey(OR_IDEAL, 300, seed=6)
        assert (a.positive, a.negative) != (c.positive, c.negative) or a.min_value != c.min_value

    def test_extremes_match_the_entropy_route(self):
        g = named_gate("or:2x2")
        parts = [g.x, g.y, g.z]
        sv = sign_survey(OR_IDEAL, 500, seed=3)
        for value, weights in ((sv.min_value, sv.min_weights), (sv.max_value, sv.max_weights)):
            expected = coinformation_numeric(Distribution(OR_IDEAL.space, weights), parts)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_twenty_outcome_survey_is_fast(self):
        rng = np.random.default_rng(17)
        sp = OutcomeSpace(20)
        parts = [Partition(sp, [int(b) for b in rng.integers(0, 3, 20)]) for _ in range(3)]
        tri = coinformation_content(parts)
        start = time.perf_counter()
        sv = sign_survey(tri, 1000, seed=4)
        assert time.perf_counter() - start < 2.0
        assert sv.samples == 1000 and not tri.is_empty

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            sign_survey(OR_IDEAL, 0, seed=1)

    @pytest.mark.parametrize(
        "samples, seed, name",
        [(5.5, 1, "sample count"), ("5", 1, "sample count"), (5, 1.5, "seed"), (5, "1", "seed"), (5, None, "seed")],
    )
    def test_samples_and_seed_are_integers(self, samples, seed, name):
        with pytest.raises(ValueError, match=f"the {name} is an integer, got"):
            sign_survey(OR_IDEAL, samples, seed)

    def test_numpy_integers_read_as_ints(self):
        sv = sign_survey(OR_IDEAL, np.int64(20), np.int64(1))
        assert sv == sign_survey(OR_IDEAL, 20, 1)
        assert type(sv.samples) is type(sv.seed) is int

    def test_counts_must_add_up(self):
        # zero is derived from the other counts, so no record can disagree
        sv = sign_survey(OR_IDEAL, 20, seed=1)
        assert SignSurvey(**sv._asdict()) == sv
        assert "zero" not in sv._fields
        assert sv.positive + sv.negative + sv.zero == sv.samples
        assert SignSurvey(3, 1, 1, 0.0, 0.0, (), (), 0).zero == 1

    def test_sample_cap_is_checked_before_drawing(self, monkeypatch):
        def draw():
            raise AssertionError("numpy was asked for samples beyond the cap")

        monkeypatch.setattr("logdec.parity._numpy", draw)
        with pytest.raises(CapacityError, match="capped at 100000 samples"):
            sign_survey(OR_IDEAL, SURVEY_MAX_SAMPLES + 1, seed=1)
