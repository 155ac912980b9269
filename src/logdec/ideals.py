"""Upper-set algebra over the atom poset, represented by minimal generating antichains.

An ideal here is an upward-closed subset of the atom complex under
inclusion of outcome sets: it contains its generators and everything
above them.  Union concatenates generators; intersection takes pairwise
generator products (bitwise-or of the patterns).  The empty generator
list denotes the empty set and is flagged degenerate.

`minimal_transversals` (Berge) serves both directions of the duality
between an ideal's generators and the complements of its maximal
non-members; co-information contents take the second direction.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .core import (
    CapacityError,
    OutcomeSpace,
    Value,
    atom_bits,
    degree,
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
# step took 60-200 ns in the runs below, on one core of a 2-vCPU Xeon VM.
# Co-information contents of up to 12 variables on 24 outcomes stay far
# below it: 450 random systems took at most 125k steps to build and 455k
# to expand, and 8 triple splitters with a splitter of {0, 1} (4374
# generators) 148k to build.  96 random two-block variables on 24
# outcomes raise after 0.24 s.  The heaviest accepted ideal tried is
# the top atom of 20 outcomes (2**21 steps, 2**20 coefficients:
# mu_ideal 2.5 s, 250 MB); 12 disjoint pairs on 24 outcomes (3**12
# coefficients) raise after 0.6 s.  Building variables, 8 disjoint
# triples on 24 outcomes (6561 variables) took 0.23 s and their content
# 1.6M steps (0.2 s); all 4-subsets in each of 4 blocks of 6 (20**4
# maximal non-members) raise after 0.18 s.
EXPANSION_WORK_CAP = 3_000_000


def step_meter(task: str, cap: int = EXPANSION_WORK_CAP):
    """A spend(steps) callback that raises CapacityError once the task
    has spent more than `cap` steps in all."""
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > cap:
            raise CapacityError(f"{task} would exceed its cap of {cap} steps")

    return spend


def _supersets(base: int, free: int):
    """All patterns base | s for s a subset of the free bits."""
    sub = 0
    while True:
        yield base | sub
        if sub == free:
            return
        sub = (sub - free) & free


def minimal_transversals(edges: list[int], spend) -> list[int]:
    """The minimal masks that meet every edge, by Berge's algorithm.

    One edge e at a time: a transversal t that misses e grows by each
    member i of e that keeps it minimal.  t | i is not minimal when it
    holds a kept transversal, which then meets e in i alone; equally,
    when some member j of t has i in every earlier edge that j alone of
    t meets.  Each edge takes the cheaper check: a step per such kept
    transversal, or three per earlier edge (read it, and read and write
    j's common members).  No edges give [0]; an empty edge gives [].
    spend(steps) is called before each batch of steps.
    """
    transversals = [0]
    for k, e in enumerate(edges):
        spend(len(transversals))
        kept = [t for t in transversals if t & e]
        missed = [t for t in transversals if not t & e]
        if not missed:
            continue
        rivals = [(h & ~e, h & e) for h in kept if (h & e).bit_count() == 1]
        check = min(len(rivals), 3 * k)
        spend(len(kept) + len(missed) * (check + 1))
        for t in missed:
            blocked = 0
            if check == len(rivals):
                for rest, i in rivals:
                    if not rest & ~t:
                        blocked |= i
            else:
                alone: dict[int, int] = {}
                for f in itertools.islice(edges, k):
                    j = t & f
                    if not j & (j - 1):
                        alone[j] = alone.get(j, f) & f
                for common in alone.values():
                    blocked |= common
            kept += [t | 1 << i for i in atom_bits(e & ~blocked)]
        transversals = kept
    return transversals


class Ideal(Value):
    """Upward-closed atom set, stored as its minimal generating antichain.

    Generators are atoms: patterns of degree >= 2 inside the space.
    """

    __slots__ = ("space", "generators")

    def __init__(self, space: OutcomeSpace, generators: frozenset[int]):
        full = space.full_mask
        for g in generators:
            if degree(g) < 2:
                raise ValueError("ideals are generated by atoms of degree >= 2")
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

    def enumerate(self) -> tuple[int, ...]:
        """All atoms of the denoted upper-set, ascending."""
        full = self.space.full_mask
        return tuple(sorted({a for g in self.generators for a in _supersets(g, full & ~g)}))

    def degree_profile(self) -> tuple[int, ...]:
        """Sorted degrees of the minimal generators."""
        return tuple(sorted(degree(g) for g in self.generators))

    def generator_parities(self) -> set[int]:
        """Degree parities present among generators: subset of {0, 1}."""
        return {degree(g) & 1 for g in self.generators}

    def maximal_non_members(self, spend) -> list[int]:
        """The maximal masks outside the ideal, ascending: the complements
        of the minimal transversals of the generators, since an atom lies
        in the ideal exactly when it fits inside none of them."""
        # Ascending masks bring in the outcomes one at a time, which keeps
        # the family small between generators: on a 12-variable
        # co-information ideal it peaked at 44 transversals, and at 4096
        # in degree order.
        full = self.space.full_mask
        return sorted(full & ~t for t in minimal_transversals(sorted(self.generators), spend))

    def sorted_generators(self) -> list[int]:
        return sorted(self.generators, key=lambda g: (degree(g), g))

    def _check(self, other: "Ideal") -> None:
        if self.space != other.space:
            raise ValueError("ideals live on different outcome spaces")

    def __repr__(self) -> str:
        gens = ", ".join(self.space.format_atom(g) for g in self.sorted_generators())
        return f"Ideal<{gens}>"
