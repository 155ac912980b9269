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
import operator
from typing import Iterable

from .core import (
    CapacityError,
    OutcomeSpace,
    Value,
    as_tuple,
    atom_bits,
    degree,
    same_space,
)


def minimal_antichain(atoms: Iterable[int]) -> frozenset[int]:
    """Drop every pattern that contains another; the result is unique.

    Patterns are reduced one degree level at a time by scanning the kept
    patterns of lower degree, since no pattern of its own degree can be
    a proper subpattern of one.  The scan costs kept x candidates, which
    suits the parity search's product sets, the only input a command
    gives it.  Re-reducing a large ideal costs more (one core of a
    2-vCPU Xeon VM): Ideal(space, gens) of a 1603-generator 12-variable
    content on 24 outcomes takes 42 ms, and intersecting content(X),
    content(Y) and content(Z) on 24 outcomes 68 ms.
    """
    patterns = {operator.index(a) for a in atoms}
    if len(patterns) < 2:
        return frozenset(patterns)
    keep: list[int] = []
    for _, level in itertools.groupby(sorted(patterns, key=int.bit_count), key=int.bit_count):
        keep += [m for m in level if not any(k & m == k for k in keep)]
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

    Ideal(space, generators) takes any iterable of atoms, patterns of
    degree >= 2 inside the space (check_atom); none give the empty ideal.
    """

    __slots__ = ("space", "generators")

    def __init__(self, space: OutcomeSpace, generators: Iterable[int]):
        self.space = space
        generators = as_tuple(generators, "an ideal's generators are atoms", space.check_atom)
        self.generators = minimal_antichain(generators)

    @classmethod
    def _of_antichain(cls, space: OutcomeSpace, antichain: Iterable[int]) -> "Ideal":
        """The ideal of a known minimal antichain, such as the minimal
        transversals of a Berge pass: checked, but not reduced again."""
        ideal = cls.__new__(cls)
        ideal.space = space
        ideal.generators = frozenset(space.check_atom(g) for g in antichain)
        return ideal

    @property
    def is_empty(self) -> bool:
        """Degenerate case: no generators, denotes the empty set."""
        return not self.generators

    def contains(self, atom: int) -> bool:
        return any(g & atom == g for g in self.generators)

    def union(self, other: "Ideal") -> "Ideal":
        return Ideal(same_space(self, other), self.generators | other.generators)

    def intersection(self, other: "Ideal") -> "Ideal":
        space = same_space(self, other)
        products = frozenset(g | h for g in self.generators for h in other.generators)
        return Ideal(space, products)

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

    def __repr__(self) -> str:
        gens = ", ".join(self.space.format_atom(g) for g in self.sorted_generators())
        return f"Ideal<{gens}>"
