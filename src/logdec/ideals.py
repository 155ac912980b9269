"""Upper-set algebra over the atom poset, represented by minimal generating antichains.

An ideal here is an upward-closed subset of the atom complex under
inclusion of outcome sets: it contains its generators and everything
above them.  Union concatenates generators; intersection takes pairwise
generator products (bitwise-or of the patterns).  The empty generator
list denotes the empty set and is flagged degenerate.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .core import (
    AtomSet,
    CapacityError,
    OutcomeSpace,
    Value,
    atom_bits,
    degree,
    non_entropic,
)


def minimal_antichain(atoms: Iterable[int]) -> frozenset[int]:
    """Drop every pattern that contains another; the result is unique.

    Patterns are reduced one degree level at a time against the kept
    patterns of lower degree, since no pattern of its own degree can be
    a proper subpattern of one.  A candidate is checked by whichever is
    shorter: looking up its 2**degree submasks, or scanning those kept
    patterns.
    """
    patterns = {int(a) for a in atoms}
    if len(patterns) < 2:
        return frozenset(patterns)
    keep: set[int] = set()
    ordered = sorted(patterns, key=int.bit_count)
    for d, level in itertools.groupby(ordered, key=int.bit_count):
        fresh = []
        for m in level:
            if 1 << d <= len(keep):
                sub = (m - 1) & m
                while sub and sub not in keep:
                    sub = (sub - 1) & m
                covered = sub != 0
            else:
                covered = any(k & m == k for k in keep)
            if not covered:
                fresh.append(m)
        keep.update(fresh)
    return frozenset(keep)


# One Berge pass, with what is built from its result, may take this many
# steps: a transversal, coefficient or block label read or written.  A
# step took 30-230 ns on one core of a 2-vCPU AMD EPYC VM.
# Co-information ideals stay far below the cap: the heaviest found with
# 12 variables on 24 outcomes took 1.4M steps (0.05 s) to expand.  The
# heaviest accepted ideal tried is the top atom of 20 outcomes (2**21
# steps, 2**20 coefficients: mu_ideal 2.0 s, 250 MB); 12 disjoint pairs
# on 24 outcomes (3**12 coefficients) raise after 0.16 s.  Building
# variables, 8 disjoint triples on 24 outcomes (6561 variables) took
# 0.26 s, and all 4-subsets in each of 4 blocks of 6 (20**4 maximal
# non-members) raise after 0.23 s, on one core of a 2-vCPU Xeon VM.
EXPANSION_WORK_CAP = 3_000_000


def step_meter(task: str):
    """A spend(steps) callback that raises CapacityError once the task
    has spent more than EXPANSION_WORK_CAP steps in all."""
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > EXPANSION_WORK_CAP:
            raise CapacityError(
                f"{task} would exceed its cap of {EXPANSION_WORK_CAP} steps"
            )

    return spend


def _supersets(base: int, free: int):
    """All patterns base | s for s a subset of the free bits."""
    sub = 0
    while True:
        yield base | sub
        if sub == free:
            return
        sub = (sub - free) & free


class Ideal(Value):
    """Upward-closed atom set, stored as its minimal generating antichain.

    Generators of degree 1 are tolerated transiently for algebraic
    convenience; enumeration and measurement only ever see atoms of
    degree >= 2.
    """

    __slots__ = ("space", "generators")

    def __init__(self, space: OutcomeSpace, generators: frozenset[int]):
        full = space.full_mask
        for g in generators:
            if g == 0:
                raise ValueError("the empty pattern cannot generate an ideal")
            if g & ~full:
                raise ValueError("generator outside the outcome space")
        self.space = space
        self.generators = minimal_antichain(generators)

    @classmethod
    def generated_by(cls, space: OutcomeSpace, atoms: Iterable[int]) -> "Ideal":
        return cls(space, frozenset(atoms))

    @classmethod
    def empty(cls, space: OutcomeSpace) -> "Ideal":
        return cls(space, frozenset())

    @property
    def is_empty(self) -> bool:
        """Degenerate case: no generators, denotes the empty set."""
        return not self.generators

    def contains(self, atom: int) -> bool:
        return any(g & atom == g for g in self.generators)

    def union(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.space, self.generators | other.generators)

    def intersection(self, other: "Ideal") -> "Ideal":
        self._check(other)
        products = frozenset(g | h for g in self.generators for h in other.generators)
        return Ideal(self.space, products)

    def enumerate(self) -> AtomSet:
        """All atoms of degree >= 2 in the denoted upper-set."""
        full = self.space.full_mask
        seen: set[int] = set()
        for g in sorted(self.generators):
            for a in _supersets(g, full & ~g):
                if not non_entropic(a):
                    seen.add(a)
        return AtomSet(self.space, frozenset(seen))

    def degree_profile(self) -> tuple[int, ...]:
        """Sorted degrees of the minimal generators."""
        return tuple(sorted(degree(g) for g in self.generators))

    def generator_parities(self) -> set[int]:
        """Degree parities present among generators: subset of {0, 1}."""
        return {degree(g) & 1 for g in self.generators}

    def maximal_non_members(self, spend) -> list[int]:
        """The maximal masks outside the ideal, ascending, counting masks
        of degree below 2 as outside: the degree-1 generators, and the
        complements of the minimal transversals of the generators.

        An atom lies in the ideal exactly when it fits inside none of
        them.  The transversals come from Berge's algorithm, one
        generator g at a time: a transversal that misses g grows by one
        member of g, and such a growth is minimal unless it contains a
        transversal that hits g.  spend(steps) is called before each
        batch of steps.
        """
        # Ascending masks bring in the outcomes one at a time, which keeps
        # the family small between generators: on a 12-variable
        # co-information ideal it peaked at 44 transversals, and at 4096
        # in degree order.
        transversals = [0]
        for g in sorted(self.generators):
            spend(len(transversals))
            hit = [t for t in transversals if t & g]
            missed = [t for t in transversals if not t & g]
            if not missed:
                continue
            grown = []
            for i in atom_bits(g):
                rivals = [h for h in hit if h >> i & 1]
                spend(len(hit) + len(missed) * (len(rivals) + 1))
                for t in missed:
                    u = t | 1 << i
                    if all(h & ~u for h in rivals):
                        grown.append(u)
            transversals = hit + grown
        full = self.space.full_mask
        singles = [g for g in self.generators if degree(g) == 1]
        return sorted(singles + [full & ~t for t in transversals])

    def sorted_generators(self) -> list[int]:
        return sorted(self.generators, key=lambda g: (degree(g), g))

    def _check(self, other: "Ideal") -> None:
        if self.space != other.space:
            raise ValueError("ideals live on different outcome spaces")

    def __repr__(self) -> str:
        gens = ", ".join(self.space.format_atom(g) for g in self.sorted_generators())
        return f"Ideal<{gens}>"
