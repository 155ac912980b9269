"""Contents of random variables inside the atom complex, and the bridge back.

The content of a variable is the ideal of all atoms crossing one of its
block boundaries; as an ideal it is generated by the cross-block pairs.
Intersections of contents realise co-informations structurally; they
are built as the minimal transversals of the variables' block
complements, with `Ideal.intersection` as the test oracle.  The
construction here also walks the other way: from an ideal to a family
of variables whose co-information content is exactly that ideal.
"""

from __future__ import annotations

from .core import (
    MAX_OUTCOMES,
    CapacityError,
    Distribution,
    Partition,
    common_refinement,
    degree,
    first_occurrence_relabel,
)
from .ideals import Ideal, minimal_transversals, step_meter
from .measure import entropy

BRUTE_FORCE_MAX_N = 16
# Co-information over k variables needs 2**k - 1 joint entropies.
MAX_VARIABLES = 12


def content(part: Partition) -> Ideal:
    """The ideal of atoms crossing a block boundary of the partition: the
    one-variable co-information content, generated by the cross-block
    pairs.  A single block crosses nothing and gives the empty ideal."""
    return coinformation_content([part])


def content_bruteforce(part: Partition) -> tuple[int, ...]:
    """The boundary-crossing atoms, ascending, by a scan of every mask:
    the independent oracle for content(), capped at 16 outcomes."""
    if part.space.n > BRUTE_FORCE_MAX_N:
        raise CapacityError("brute-force content scan is capped at 16 outcomes")
    return tuple(m for m in range(3, part.space.full_mask + 1) if part.crosses(m))


def coinformation_content(parts: list[Partition]) -> Ideal:
    """Intersection of the variables' contents, as a minimal antichain.

    An atom lies in every content exactly when it fits inside no block
    of any variable, that is when it meets the complement of each block,
    so the generators are the minimal transversals of those complements,
    taken variable by variable.  The pass shares the step cap of
    ideals.EXPANSION_WORK_CAP (CapacityError).

    Generators of an intersection of M contents have degree at most M
    (2 when M is 1, since contents are pair-generated); a violation would
    falsify that bound and is raised loudly rather than swallowed.
    """
    if not parts:
        raise ValueError("co-information needs at least one variable")
    space = parts[0].space
    if any(p.space != space for p in parts):
        raise ValueError("variables live on different outcome spaces")
    edges = [space.full_mask & ~b for p in parts for b in p.block_masks]
    spend = step_meter("the co-information content")
    ideal = Ideal.generated_by(space, minimal_transversals(edges, spend))
    bound = max(2, len(parts))
    worst = max((degree(g) for g in ideal.generators), default=0)
    if worst > bound:
        raise AssertionError(
            f"generator degree bound violated: degree {worst} generator in an "
            f"intersection of {len(parts)} contents (bound {bound})"
        )
    return ideal


def check_variable_capacity(count: int) -> None:
    """Raise CapacityError when a co-information has too many variables."""
    if count > MAX_VARIABLES:
        raise CapacityError(
            f"co-information is capped at {MAX_VARIABLES} variables, got {count}"
        )


def coinformation_numeric(dist: Distribution, parts: list[Partition]) -> float:
    """Alternating inclusion-exclusion of joint entropies: each nonempty
    subfamily, in bit-pattern order, adds the entropy of its common
    refinement (its lowest variable's with the rest's), + for odd sizes
    and - for even ones.  This route never touches the measure and
    serves as its oracle."""
    if not parts:
        raise ValueError("co-information needs at least one variable")
    check_variable_capacity(len(parts))
    joint = [None] * (1 << len(parts))
    total = 0.0
    for sub in range(1, 1 << len(parts)):
        low = sub & -sub
        first = parts[low.bit_length() - 1]
        rest = sub ^ low
        joint[sub] = common_refinement(first, joint[rest]) if rest else first
        sign = 1.0 if sub.bit_count() % 2 == 1 else -1.0
        total += sign * entropy(dist, joint[sub])
    return total


def ideal_to_variables(ideal: Ideal) -> list[Partition]:
    """Variables whose co-information content is exactly the given ideal.

    One variable per maximal non-member M of the ideal: M is one block
    and every other outcome is a block of its own.  Its content is every
    atom not inside M, and an atom lies in the ideal exactly when it fits
    inside no maximal non-member, so the contents intersect to the ideal.
    Every singleton M gives the discrete partition, kept once; the list
    is sorted by block assignment.  The Berge pass and the builds share
    the step cap of ideals.EXPANSION_WORK_CAP (CapacityError).
    """
    if ideal.is_empty:
        raise ValueError("the empty ideal has no variable realisation")
    space = ideal.space
    spend = step_meter("variable construction")
    variables = set()
    for top in ideal.maximal_non_members(spend):
        spend(space.n)
        block_of = first_occurrence_relabel(
            -1 if top >> i & 1 else i for i in range(space.n)
        )
        variables.add(Partition(space, block_of))
    return sorted(variables, key=lambda p: p.block_of)


def count_expressions(n: int) -> int:
    """Number of atom subsets over n outcomes: 2**(2**n - n - 1), exact."""
    if n < 1:
        raise ValueError("need at least one outcome")
    if n > MAX_OUTCOMES:
        raise CapacityError(f"expression counting is capped at {MAX_OUTCOMES} outcomes")
    return 1 << ((1 << n) - n - 1)
