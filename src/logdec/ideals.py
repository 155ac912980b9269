"""Upper-set algebra over the atom poset, represented by minimal generating antichains.

An ideal here is an upward-closed subset of the atom complex under
inclusion of outcome sets: it contains its generators and everything
above them.  Union concatenates generators; intersection takes pairwise
generator products (bitwise-or of the patterns).  The empty generator
list denotes the empty set and is flagged degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import AtomSet, OutcomeSpace, degree, non_entropic


def minimal_antichain(atoms: Iterable[int]) -> frozenset[int]:
    """Drop every pattern that contains another; the result is unique.

    Patterns are visited by degree, so every proper subpattern of one
    has been decided before it.  A candidate is checked against the kept
    set by whichever is shorter: looking up its 2**degree submasks, or
    scanning the kept patterns.
    """
    keep: set[int] = set()
    for m in sorted({int(a) for a in atoms}, key=int.bit_count):
        if 1 << m.bit_count() <= len(keep):
            sub = (m - 1) & m
            while sub and sub not in keep:
                sub = (sub - 1) & m
            covered = sub != 0
        else:
            covered = any(k & m == k for k in keep)
        if not covered:
            keep.add(m)
    return frozenset(keep)


def _supersets(base: int, free: int):
    """All patterns base | s for s a subset of the free bits."""
    sub = 0
    while True:
        yield base | sub
        if sub == free:
            return
        sub = (sub - free) & free


@dataclass(frozen=True)
class Ideal:
    """Upward-closed atom set, stored as its minimal generating antichain.

    Generators of degree 1 are tolerated transiently for algebraic
    convenience; enumeration and measurement only ever see atoms of
    degree >= 2.
    """

    space: OutcomeSpace
    generators: frozenset[int]

    def __post_init__(self):
        full = self.space.full_mask
        for g in self.generators:
            if g == 0:
                raise ValueError("the empty pattern cannot generate an ideal")
            if g & ~full:
                raise ValueError("generator outside the outcome space")
        object.__setattr__(self, "generators", minimal_antichain(self.generators))

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

    def sorted_generators(self) -> list[int]:
        return sorted(self.generators, key=lambda g: (degree(g), g))

    def _check(self, other: "Ideal") -> None:
        if self.space != other.space:
            raise ValueError("ideals live on different outcome spaces")

    def __repr__(self) -> str:
        gens = ", ".join(self.space.format_atom(g) for g in self.sorted_generators())
        return f"Ideal<{gens}>"
