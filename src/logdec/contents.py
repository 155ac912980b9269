"""Contents of random variables inside the atom complex, and the bridge back.

The content of a variable is the ideal of all atoms crossing one of its
block boundaries; as an ideal it is generated by the cross-block pairs.
Intersections of contents realise co-informations structurally, and the
construction here also walks the other way: from an ideal to a family of
variables whose co-information content is exactly that ideal.
"""

from __future__ import annotations

import functools
import itertools

from .core import (
    AtomSet,
    CapacityError,
    Distribution,
    Partition,
    atom_bits,
    common_refinement,
    degree,
    first_occurrence_relabel,
    non_entropic,
)
from .ideals import Ideal
from .measure import entropy

BRUTE_FORCE_MAX_N = 16
# ideal_to_variables builds, per combination of per-generator choices, one
# common refinement for each generator after the first (at least one
# partition for a single generator), at about 10-13 us each at 24
# outcomes.  The cap counts those builds.  The heaviest accepted inputs
# measured, at 24 outcomes on one core of a 2-vCPU Xeon VM, take 1.9 s
# and up to 124 MB: one degree-17 generator (131 070 builds), or five
# triples and two pairs (186 624 builds).
VARIABLE_CONSTRUCTION_CAP = 200_000
# Co-information over k variables needs 2**k - 1 joint entropies.
MAX_VARIABLES = 12


def content(part: Partition) -> Ideal:
    """The ideal of atoms crossing a block boundary of the partition.

    Generated by every pair of outcomes drawn from distinct blocks.
    """
    gens = []
    n = part.space.n
    for i in range(n):
        for j in range(i + 1, n):
            if part.block_of[i] != part.block_of[j]:
                gens.append(1 << i | 1 << j)
    return Ideal.generated_by(part.space, gens)


def content_bruteforce(part: Partition) -> AtomSet:
    """Scan every atom and keep the boundary-crossing ones.

    Independent oracle for content(); capped at 16 outcomes.
    """
    space = part.space
    if space.n > BRUTE_FORCE_MAX_N:
        raise CapacityError("brute-force content scan is capped at 16 outcomes")
    atoms = frozenset(
        m
        for m in range(1, space.full_mask + 1)
        if not non_entropic(m) and part.crosses(m)
    )
    return AtomSet(space, atoms)


def coinformation_content(parts: list[Partition]) -> Ideal:
    """Intersection of the variables' contents, as a minimal antichain.

    The minimal generators of an intersection of M contents can always be
    chosen with degree at most M (degree 2 when M is 1, since contents
    are pair-generated); a violation would falsify that bound and is
    raised loudly rather than swallowed.
    """
    if not parts:
        raise ValueError("co-information needs at least one variable")
    ideal = content(parts[0])
    for p in parts[1:]:
        ideal = ideal.intersection(content(p))
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


def inclusion_exclusion_terms(parts: list[Partition]) -> list[tuple[float, Partition]]:
    """(sign, common refinement) of every nonempty subfamily, in bit-pattern
    order; the sign is +1 for odd sizes and -1 for even ones."""
    if not parts:
        raise ValueError("co-information needs at least one variable")
    check_variable_capacity(len(parts))
    terms = []
    for sub in range(1, 1 << len(parts)):
        chosen = [p for i, p in enumerate(parts) if sub >> i & 1]
        sign = 1.0 if len(chosen) % 2 == 1 else -1.0
        terms.append((sign, functools.reduce(common_refinement, chosen)))
    return terms


def coinformation_numeric(dist: Distribution, parts: list[Partition]) -> float:
    """Alternating inclusion-exclusion of joint entropies.

    Joint variables are common refinements of the chosen partitions; this
    route never touches the measure and serves as its oracle.
    """
    total = 0.0
    for sign, joint in inclusion_exclusion_terms(parts):
        total += sign * entropy(dist, joint)
    return total


def ideal_to_variables(ideal: Ideal) -> list[Partition]:
    """Variables whose co-information content is exactly the given ideal.

    Per generator g with support S, form the two-block partitions
    {(complement of S) + Q, S - Q} over every proper nonempty Q inside S,
    then take common refinements across one choice per generator.  The
    intersection of the returned partitions' contents equals the ideal.
    """
    if ideal.is_empty:
        raise ValueError("the empty ideal has no variable realisation")
    space = ideal.space
    gens = ideal.sorted_generators()
    if any(degree(g) < 2 for g in gens):
        raise ValueError("variable construction needs generators of degree >= 2")
    builds_per_combination = max(len(gens) - 1, 1)
    combinations = 1
    for g in gens:
        combinations *= (1 << degree(g)) - 2
        if combinations * builds_per_combination > VARIABLE_CONSTRUCTION_CAP:
            raise CapacityError(
                "variable construction would exceed its cap of "
                f"{VARIABLE_CONSTRUCTION_CAP} partition builds"
            )
    per_generator: list[list[Partition]] = []
    for g in gens:
        members = atom_bits(g)
        complement = space.full_mask & ~g
        spreads = []
        for pick in range(1, 1 << len(members)):
            if pick == (1 << len(members)) - 1:
                continue
            q = 0
            for k, i in enumerate(members):
                if pick >> k & 1:
                    q |= 1 << i
            block_of = [
                0 if (complement | q) >> i & 1 else 1 for i in range(space.n)
            ]
            spreads.append(Partition(space, first_occurrence_relabel(block_of)))
        per_generator.append(spreads)
    combined: dict[tuple[int, ...], Partition] = {}
    for choice in itertools.product(*per_generator):
        joint = choice[0]
        for p in choice[1:]:
            joint = common_refinement(joint, p)
        combined.setdefault(joint.block_of, joint)
    return [combined[k] for k in sorted(combined)]


def count_expressions(n: int) -> int:
    """Number of atom subsets over n outcomes: 2**(2**n - n - 1), exact."""
    if n < 1:
        raise ValueError("need at least one outcome")
    if n > 24:
        raise CapacityError("expression counting is capped at 24 outcomes")
    return 1 << ((1 << n) - n - 1)
