"""Ground types: outcome spaces, distributions, bitmask atoms, partitions.

Atoms are plain Python ints used as bit patterns over the outcomes of one
space: bit i set means outcome i belongs to the atom.  Everything that
consumes atoms (Ideal, the measure) carries the space alongside; atom
listings are ascending tuples of masks.
"""

from __future__ import annotations

import math

MAX_OUTCOMES = 24
NORMALIZATION_TOL = 1e-12


class CapacityError(Exception):
    """An operation would exceed the fixed enumeration capacity."""


def degree(atom: int) -> int:
    """Number of outcomes in an atom bit pattern."""
    return atom.bit_count()


def atom_bits(atom: int) -> list[int]:
    """Outcome indices of an atom, ascending."""
    if atom < 0:
        raise ValueError("an atom is a nonnegative outcome mask")
    out = []
    i = 0
    while atom:
        if atom & 1:
            out.append(i)
        atom >>= 1
        i += 1
    return out


class Value:
    """Base of the value types: equality, hash and repr over the fields
    named in `__slots__`, in that order.  Only operands of the same type
    compare equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class OutcomeSpace(Value):
    """A finite outcome space with labelled outcomes indexed 0..n-1.

    Labels default to "1".."n".  The outcome count is capped at
    MAX_OUTCOMES so atoms fit in one machine word and full-complex
    enumeration stays below 2**24 atoms.
    """

    __slots__ = ("n", "labels")

    def __init__(self, n: int, labels: tuple[str, ...] = ()):
        if n < 1:
            raise ValueError("an outcome space needs at least one outcome")
        if n > MAX_OUTCOMES:
            raise CapacityError(
                f"outcome spaces are capped at {MAX_OUTCOMES} outcomes, got {n}"
            )
        if not labels:
            labels = tuple(str(i + 1) for i in range(n))
        if len(labels) != n:
            raise ValueError("label count must match outcome count")
        if len(set(labels)) != n:
            raise ValueError("outcome labels must be unique")
        self.n = n
        self.labels = labels

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown outcome label {label!r}") from None

    def atom(self, *labels: str) -> int:
        """Atom bit pattern from outcome labels."""
        mask = 0
        for lab in labels:
            mask |= 1 << self.index_of(lab)
        return mask

    def format_atom(self, atom: int) -> str:
        """Human form of an atom; labels concatenate when all are one char."""
        labs = [self.labels[i] for i in atom_bits(atom)]
        if all(len(lab) == 1 for lab in self.labels):
            return "".join(labs)
        return ",".join(labs)


class Distribution(Value):
    """Finite, nonnegative weights over one outcome space.

    Weights need not sum to one; several measure identities are quantified
    over arbitrary positive weights.  `normalized` reports whether the
    weights sum to 1 within 1e-12.
    """

    __slots__ = ("space", "weights")

    def __init__(self, space: OutcomeSpace, weights: tuple[float, ...]):
        try:
            weights = tuple(float(w) for w in weights)
        except OverflowError:  # an integer beyond the double range
            raise ValueError("weights must be finite numbers") from None
        if len(weights) != space.n:
            raise ValueError("a distribution needs one weight per outcome")
        if not all(map(math.isfinite, weights)):
            raise ValueError("weights must be finite numbers")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        self.space = space
        self.weights = weights

    @classmethod
    def uniform(cls, space: OutcomeSpace) -> "Distribution":
        return cls(space, (1.0 / space.n,) * space.n)

    @property
    def normalized(self) -> bool:
        return abs(sum(self.weights) - 1.0) <= NORMALIZATION_TOL

    def mass(self, atom: int) -> float:
        """Total weight of an atom's members."""
        return sum(self.weights[i] for i in atom_bits(atom))


class Partition(Value):
    """A surjective block assignment of outcomes (a random variable).

    The input `block_of[i]` is the block index of outcome i; block
    indices must be dense (0..block_count-1 with every block nonempty).
    Blocks are renumbered in order of first occurrence, so `block_of` is
    the partition's restricted-growth string: two labellings of the same
    blocks build equal partitions with the same `block_masks`.
    """

    __slots__ = ("space", "block_of", "block_count", "block_masks")

    def __init__(self, space: OutcomeSpace, block_of):
        block_of = tuple(int(b) for b in block_of)
        if len(block_of) != space.n:
            raise ValueError("block assignment must cover every outcome")
        if any(b < 0 for b in block_of):
            raise ValueError("block indices must be nonnegative")
        count = max(block_of) + 1
        # At most n blocks: a huge index must not build a huge range.
        if count > space.n or set(block_of) != set(range(count)):
            raise ValueError("block indices must be dense with every block nonempty")
        block_of = first_occurrence_relabel(block_of)
        masks = [0] * count
        for i, b in enumerate(block_of):
            masks[b] |= 1 << i
        self.space = space
        self.block_of = block_of
        self.block_count = count
        self.block_masks = tuple(masks)

    @classmethod
    def from_blocks(cls, space: OutcomeSpace, blocks) -> "Partition":
        block_of = [-1] * space.n
        for b, members in enumerate(blocks):
            for i in members:
                if not 0 <= i < space.n:
                    raise ValueError(f"block member {i} outside the outcome space")
                if block_of[i] != -1:
                    raise ValueError("blocks must be disjoint")
                block_of[i] = b
        if -1 in block_of:
            raise ValueError("blocks must cover every outcome")
        return cls(space, block_of)

    @classmethod
    def discrete(cls, space: OutcomeSpace) -> "Partition":
        return cls(space, range(space.n))

    @classmethod
    def single_block(cls, space: OutcomeSpace) -> "Partition":
        return cls(space, [0] * space.n)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self.block_of):
            out[b].append(i)
        return out

    def crosses(self, atom: int) -> bool:
        """True when the atom fits inside no block: two members differ in block."""
        return all(atom & ~b for b in self.block_masks)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        _check_same_space(self, other)
        return all(
            other.block_of[i] == other.block_of[j]
            for blk in self.blocks()
            for i, j in zip(blk, blk[1:])
        )

    def __repr__(self) -> str:
        blocks = ["{" + ",".join(self.space.labels[i] for i in blk) + "}" for blk in self.blocks()]
        return "Partition(" + " | ".join(blocks) + ")"


def first_occurrence_relabel(values) -> tuple[int, ...]:
    """Relabel hashable values 0, 1, 2, ... in order of first occurrence.

    The result is a restricted-growth string: a dense block assignment
    that is equal for any two labellings of the same partition.
    """
    seen: dict = {}
    return tuple(seen.setdefault(v, len(seen)) for v in values)


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise ValueError("operands live on different outcome spaces")


def restricted_growth_strings(m: int):
    """All restricted-growth strings of length m: set partitions of m items."""
    prefix: list[int] = []

    def rec(mx: int):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            prefix.append(v)
            yield from rec(max(mx, v))
            prefix.pop()

    yield from rec(-1)


def all_partitions(space: OutcomeSpace):
    """Every partition of the space, one per set partition of its outcomes."""
    for rgs in restricted_growth_strings(space.n):
        yield Partition(space, rgs)


def enumerate_complex(space: OutcomeSpace) -> tuple[int, ...]:
    """All atoms of degree >= 2 over the space, ascending: 2**n - n - 1 of them."""
    return tuple(m for m in range(3, space.full_mask + 1) if m.bit_count() >= 2)


def common_refinement(a: Partition, b: Partition) -> Partition:
    """Coarsest partition finer than both: nonempty pairwise block intersections."""
    _check_same_space(a, b)
    return Partition(a.space, first_occurrence_relabel(zip(a.block_of, b.block_of)))


def common_coarsening(a: Partition, b: Partition) -> Partition:
    """Finest partition coarser than both.

    Outcomes share a block exactly when they are connected through
    alternating a-block / b-block overlaps.
    """
    _check_same_space(a, b)
    n = a.space.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (a, b):
        for blk in part.blocks():
            for i, j in zip(blk, blk[1:]):
                union(i, j)
    return Partition(a.space, first_occurrence_relabel(find(i) for i in range(n)))
