"""Parity classification of ideals: sign certificates, witnesses, and surveys.

A single-generator ideal has measure of sign (-1)**degree for any fully
positive weights.  Larger ideals are certified by searching
inclusion-exclusion expansions over generator orderings, with steps
spent from an ideals.step_meter, until every signed leaf term has the
same sign; ideals whose minimal generators mix even and odd degrees
provably take both signs, and witness distributions for either sign are
built by concentrating mass on one generator.
Certification is sound but not complete: Undetermined is a first-class
outcome and surveys still characterise such ideals empirically.  Every
peel order yields the same leaf expansion, so Undetermined means that its
terms are not all of the target sign, or that the steps ran out before
one expansion was done: the five 2-variable ideals of the seed-1
`structure` benchmark workload (40-87 pair generators on 16-20 outcomes)
never finish one and each spend all 10 000 steps, 55-77 ms in-process on
a 2-vCPU Xeon VM.  Every pure-parity census ideal finishes its one
expansion within 736 steps: 4 at 2x2 (10 for XOR, which it certifies),
22-40 at 2x3 and 412-736 at 3x3.  The search then spends the rest of its
steps deriving the same expansion under other peel orders: 8.1 of the
8.3 s of parity search in an in-process seed-1 census of the three
shapes on that VM.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple

from .core import CapacityError, Distribution, atom_bits, degree
from .ideals import Ideal, minimal_antichain, step_meter
from .measure import EQ_TOL, _numpy, mu_ideal, mu_ideal_batch

CERTIFIED_EVEN = "CertifiedEven"
CERTIFIED_ODD = "CertifiedOdd"
STRONGLY_MIXED = "StronglyMixed"
UNDETERMINED = "Undetermined"

DEFAULT_BUDGET = 10_000
# A survey draws samples x n doubles.  On a 2-core VM a 3x3 census at the
# cap takes about 70 s and peaks at 65 MB of RSS (52 MB at 1000 samples);
# 10**9 samples would need tens of gigabytes.
SURVEY_MAX_SAMPLES = 100_000
WITNESS_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
WITNESS_MARGIN = 10 * EQ_TOL


class ParityClass(NamedTuple):
    """Outcome of structural sign classification.

    A certificate is a signed list of single-generator leaf ideals
    (pattern, integer coefficient) whose weighted measures sum to the
    ideal's measure identically; when present, every term has the sign
    the tag names: + for CertifiedEven, - for CertifiedOdd.
    """

    tag: str
    certificate: tuple[tuple[int, int], ...] | None = None


class SignSurvey(NamedTuple):
    """Signs of an ideal's measure over distributions sampled from the simplex."""

    samples: int
    positive: int
    negative: int
    min_value: float
    max_value: float
    min_weights: tuple[float, ...]
    max_weights: tuple[float, ...]
    seed: int

    @property
    def zero(self) -> int:
        """Samples whose measure is within EQ_TOL of 0."""
        return self.samples - self.positive - self.negative


class Witness(NamedTuple):
    """A distribution and the ideal's measure under it."""

    dist: Distribution
    mu: float


def _expansions(gens: frozenset[int], spend) -> Iterator[dict[int, int]]:
    """Signed leaf decompositions mu(<gens>) = sum coeff * mu(<leaf>).

    Each step peels one generator g off the set G:
      mu(<G>) = mu(<G - g>) + mu(<g>) - mu(<products of g with G - g>)
    and recurses on both remaining sets, enumerating peel orders, one
    step per call and per pivot.  The products are reduced only once
    G - g has yielded, so a descent that runs out of steps or stack
    reduces none.
    """
    spend(1)
    if len(gens) == 1:
        yield {next(iter(gens)): 1}
        return
    for pivot in sorted(gens):
        spend(1)
        rest = frozenset(gens - {pivot})
        products = None
        for rest_leaves in _expansions(rest, spend):
            if products is None:
                products = minimal_antichain(h | pivot for h in rest)
            for product_leaves in _expansions(products, spend):
                leaves = dict(rest_leaves)
                leaves[pivot] = leaves.get(pivot, 0) + 1
                for mask, coeff in product_leaves.items():
                    leaves[mask] = leaves.get(mask, 0) - coeff
                yield {m: c for m, c in leaves.items() if c != 0}


def _uniform_sign(leaves: dict[int, int], target: int) -> bool:
    """Every term coeff * mu(<leaf>) has sign `target` for positive weights."""
    if not leaves:
        return False
    for mask, coeff in leaves.items():
        leaf_sign = -1 if degree(mask) & 1 else 1
        if (1 if coeff > 0 else -1) * leaf_sign != target:
            return False
    return True


def classify_parity(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> ParityClass:
    """Classify an ideal's structural sign behaviour.

    Mixed-degree generators are immediately StronglyMixed.  Pure-parity
    generator sets are certified when an expansion search of at most
    `budget` steps finds a uniformly signed leaf decomposition.  That
    decomposition is unique, so Undetermined means that its terms are not
    all of the target sign, or that the search ran out of steps or of
    stack before it finished one.
    """
    if ideal.is_empty:
        raise ValueError("the empty ideal has no parity")
    parities = ideal.generator_parities()
    if len(parities) == 2:
        return ParityClass(STRONGLY_MIXED)
    target = 1 if parities == {0} else -1
    spend = step_meter("the parity search", cap=budget)
    try:
        for leaves in _expansions(ideal.generators, spend):
            if _uniform_sign(leaves, target):
                certificate = tuple(
                    sorted(leaves.items(), key=lambda kv: (degree(kv[0]), kv[0]))
                )
                tag = CERTIFIED_EVEN if target == 1 else CERTIFIED_ODD
                return ParityClass(tag, certificate=certificate)
    except (CapacityError, RecursionError):
        # The search recurses once per peeled generator, so thousands of
        # generators can run out of stack before the budget runs out;
        # either way it stops early, and Undetermined stays sound.
        pass
    return ParityClass(UNDETERMINED)


def single_generator_sign(dist: Distribution, generator: int) -> int:
    """Sign of the measure of a one-generator ideal; always (-1)**degree.

    Raises ValueError when the generator is not an atom of the space
    (as Ideal does), when a member of the generator has zero weight, or
    when the computed measure is within EQ_TOL of 0: with skewed weights
    the true measure can be smaller than the cancellation error of the
    alternating sum, so double precision cannot resolve its sign.  Raises
    AssertionError when the measure lies beyond EQ_TOL on the wrong side,
    which would falsify the sign law.
    """
    ideal = Ideal(dist.space, [generator])
    (generator,) = ideal.generators
    if any(dist.weights[i] == 0.0 for i in atom_bits(generator)):
        raise ValueError("sign is undefined when a member has zero weight")
    value = mu_ideal(dist, ideal)
    if abs(value) <= EQ_TOL:
        raise ValueError(
            f"sign cannot be resolved in double precision: |mu| = {abs(value):.3g} "
            f"is within the tolerance {EQ_TOL:g}"
        )
    expected = -1 if degree(generator) & 1 else 1
    if value * expected < -EQ_TOL:
        raise AssertionError(
            f"single-generator sign rule violated: mu = {value!r} for degree "
            f"{degree(generator)}"
        )
    return expected


def witness_distributions(ideal: Ideal) -> tuple[Witness | None, Witness | None]:
    """Witnesses driving the ideal's measure positive and negative.

    Mass sits uniformly on one generator with epsilon elsewhere; the
    schedule shrinks epsilon until the sign is stable with margin.  A
    pure-parity ideal yields only its one achievable side.
    """
    if ideal.is_empty:
        raise ValueError("the empty ideal has measure 0 everywhere")
    evens = [g for g in ideal.sorted_generators() if degree(g) % 2 == 0]
    odds = [g for g in ideal.sorted_generators() if degree(g) % 2 == 1]
    positive = _witness_for(ideal, evens[0], 1) if evens else None
    negative = _witness_for(ideal, odds[0], -1) if odds else None
    return positive, negative


def _witness_for(ideal: Ideal, generator: int, sign: int) -> Witness:
    space = ideal.space
    members = atom_bits(generator)
    for eps in WITNESS_EPSILONS:
        weights = [eps] * space.n
        for i in members:
            weights[i] = 1.0 / len(members)
        total = sum(weights)
        dist = Distribution(space, tuple(w / total for w in weights))
        value = mu_ideal(dist, ideal)
        if sign * value > WITNESS_MARGIN:
            return Witness(dist, value)
    raise RuntimeError(
        "witness search exhausted its epsilon schedule without a stable sign"
    )


def _as_int(value, name: str) -> int:
    """The value as an int, read by operator.index (numpy integers pass);
    anything else is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} is an integer, got {value!r}") from None


def sign_survey(ideal: Ideal, samples: int, seed: int) -> SignSurvey:
    """Sample the simplex uniformly and record the sign of the ideal's measure."""
    samples = _as_int(samples, "the sample count")
    seed = _as_int(seed, "the seed")
    if samples < 1:
        raise ValueError("surveys need at least one sample")
    if samples > SURVEY_MAX_SAMPLES:
        raise CapacityError(f"surveys are capped at {SURVEY_MAX_SAMPLES} samples")
    np = _numpy()
    rng = np.random.default_rng(seed)
    weight_rows = rng.dirichlet(np.ones(ideal.space.n), size=samples)
    values = mu_ideal_batch(weight_rows, ideal)
    positive = int(np.count_nonzero(values > EQ_TOL))
    negative = int(np.count_nonzero(values < -EQ_TOL))
    lo = int(np.argmin(values))
    hi = int(np.argmax(values))
    return SignSurvey(
        samples=samples,
        positive=positive,
        negative=negative,
        min_value=float(values[lo]),
        max_value=float(values[hi]),
        min_weights=tuple(float(w) for w in weight_rows[lo]),
        max_weights=tuple(float(w) for w in weight_rows[hi]),
        seed=seed,
    )
