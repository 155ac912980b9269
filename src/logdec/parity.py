"""Parity classification of ideals: sign certificates, witnesses, and surveys.

A single-generator ideal has measure of sign (-1)**degree for any fully
positive weights.  Larger ideals are certified by searching
inclusion-exclusion expansions over generator orderings, with steps
spent from an ideals.step_meter, until every signed leaf term has the
same sign; ideals whose minimal generators mix even and odd degrees
provably take both signs, and a witness for either sign is a tuple of
integer weights, one per outcome, with a growing weight on one
generator's members until measure.exact_sign gives that sign.
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

from typing import Iterator, NamedTuple

from .core import CapacityError, as_int, degree
from .ideals import Ideal, minimal_antichain, step_meter
from .measure import EQ_TOL, _numpy, exact_sign, mu_ideal_batch

CERTIFIED_EVEN = "CertifiedEven"
CERTIFIED_ODD = "CertifiedOdd"
STRONGLY_MIXED = "StronglyMixed"
UNDETERMINED = "Undetermined"

DEFAULT_BUDGET = 10_000
# A survey draws samples x n doubles.  On a 2-core VM a 3x3 census at the
# cap takes about 70 s and peaks at 65 MB of RSS (52 MB at 1000 samples);
# 10**9 samples would need tens of gigabytes.
SURVEY_MAX_SAMPLES = 100_000


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
    """Sign counts and extreme values of an ideal's measure over samples
    from the simplex, which are not stored: sign_survey redraws them from the seed."""

    samples: int
    positive: int
    negative: int
    min_value: float
    max_value: float
    seed: int

    @property
    def zero(self) -> int:
        """Samples whose measure is within EQ_TOL of 0."""
        return self.samples - self.positive - self.negative


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


def witness_distributions(ideal: Ideal) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Integer weights, one per outcome, under which the ideal's measure
    is exactly positive and exactly negative: the witness distributions
    are these weights over their total.

    Each side takes its first generator of that parity, in degree order,
    or is None when there is none, though the measure may still take that
    sign: a pure-even ideal on five outcomes can be negative.
    """
    if ideal.is_empty:
        raise ValueError("the empty ideal has measure 0 everywhere")
    evens = [g for g in ideal.sorted_generators() if degree(g) % 2 == 0]
    odds = [g for g in ideal.sorted_generators() if degree(g) % 2 == 1]
    positive = _witness_for(ideal, evens[0], 1) if evens else None
    negative = _witness_for(ideal, odds[0], -1) if odds else None
    return positive, negative


def _witness_for(ideal: Ideal, generator: int, sign: int) -> tuple[int, ...]:
    """Weight k = 2, 4, 8, ... on the generator's members and 1 elsewhere,
    at the first k of the exact `sign`.  As k grows the measure tends to
    the generator's own atom measure, of sign (-1)**degree, so only the
    exact sign's CapacityError can end the search otherwise."""
    k = 2
    while True:
        weights = tuple(k if generator >> i & 1 else 1 for i in range(ideal.space.n))
        if exact_sign(ideal, weights) == sign:
            return weights
        k *= 2


def check_survey_arguments(samples: int, seed: int) -> tuple[int, int]:
    """The one rule for a survey's sample count and seed, read as integers:
    ValueError below one sample or below seed 0, CapacityError above the cap."""
    samples = as_int(samples, "the sample count is an integer")
    seed = as_int(seed, "the seed is an integer")
    if samples < 1:
        raise ValueError("surveys need at least one sample")
    if seed < 0:
        raise ValueError("seeds must be nonnegative")
    if samples > SURVEY_MAX_SAMPLES:
        raise CapacityError(f"surveys are capped at {SURVEY_MAX_SAMPLES} samples")
    return samples, seed


def sign_survey(ideal: Ideal, samples: int, seed: int) -> SignSurvey:
    """Sample the simplex uniformly and record the sign of the ideal's measure.
    The samples are numpy.random.default_rng(seed).dirichlet(np.ones(n),
    size=samples), n the ideal's outcome count."""
    samples, seed = check_survey_arguments(samples, seed)
    np = _numpy()
    rows = np.random.default_rng(seed).dirichlet(np.ones(ideal.space.n), size=samples)
    values = mu_ideal_batch(rows, ideal)
    positive = int(np.count_nonzero(values > EQ_TOL))
    negative = int(np.count_nonzero(values < -EQ_TOL))
    return SignSurvey(
        samples=samples,
        positive=positive,
        negative=negative,
        min_value=float(values.min()),
        max_value=float(values.max()),
        seed=seed,
    )
