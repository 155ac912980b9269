"""Ground types: outcome spaces, distributions, bitmask atoms, partitions.

Atoms are plain Python ints used as bit patterns over the outcomes of one
space: bit i set means outcome i belongs to the atom.  Everything that
consumes atoms (Ideal, the measure) carries the space alongside; atom
listings are ascending tuples of masks.
"""

from __future__ import annotations

import math
import operator

MAX_OUTCOMES = 24
NORMALIZATION_TOL = 1e-12


class CapacityError(Exception):
    """An operation would exceed the fixed enumeration capacity."""


def as_int(value, rule: str) -> int:
    """The one reader of an integer a caller passes in: operator.index
    (numpy integers and bools pass), or a ValueError stating the rule."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{rule}, got {value!r}") from None


def as_tuple(values, rule: str, read=None) -> tuple:
    """The one reader of a sequence a caller passes in: its items, each
    through `read` if given, or a ValueError stating the rule on a TypeError."""
    try:
        return tuple(values if read is None else map(read, values))
    except TypeError:
        raise ValueError(f"{rule}, got {values!r}") from None


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
        n = as_int(n, "the outcome count is an integer")
        if n < 1:
            raise ValueError("an outcome space needs at least one outcome")
        if n > MAX_OUTCOMES:
            raise CapacityError(
                f"outcome spaces are capped at {MAX_OUTCOMES} outcomes, got {n}"
            )
        labels = as_tuple(labels, "outcome labels are a sequence of strings")
        labels = labels or tuple(str(i + 1) for i in range(n))
        if len(labels) != n:
            raise ValueError("label count must match outcome count")
        if not all(isinstance(lab, str) for lab in labels):
            raise ValueError("outcome labels must be strings")
        if len(set(labels)) != n:
            raise ValueError("outcome labels must be unique")
        self.n = n
        self.labels = labels

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_atom(self, atom) -> int:
        """The atom as an int mask: a mask of this space (check_mask) of degree >= 2."""
        mask = self.check_mask(atom)
        if mask.bit_count() < 2:
            raise ValueError("atoms have degree >= 2")
        return mask

    def check_mask(self, mask) -> int:
        """The mask as an int, once it is a set of outcomes of this space
        (of any degree).  Any integer passes (numpy's included); anything
        else is a ValueError."""
        mask = as_int(mask, "an atom is an integer mask")
        if mask < 0 or mask >> self.n:
            raise ValueError(
                f"atom outside the outcome space: masks are nonnegative and below 2**{self.n}"
            )
        return mask

    def format_atom(self, atom: int) -> str:
        """Human form of an atom; labels concatenate when all are one char."""
        labs = [self.labels[i] for i in atom_bits(self.check_mask(atom))]
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
            weights = as_tuple(weights, "weights are a sequence of numbers", float)
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
        return sum(self.weights[i] for i in atom_bits(self.space.check_mask(atom)))


class Partition(Value):
    """A surjective block assignment of outcomes (a random variable).

    The input `block_of[i]` is the block index of outcome i: an integer
    (numpy integers and bools included), and the indices must be dense
    (0..k-1 with every block nonempty).
    Blocks are renumbered in order of first occurrence, so `block_of` is
    the partition's restricted-growth string: two labellings of the same
    blocks build equal partitions with the same `block_masks`.
    """

    __slots__ = ("space", "block_of", "block_masks")

    def __init__(self, space: OutcomeSpace, block_of):
        rule = "a block assignment is a sequence of integers"
        block_of = as_tuple(block_of, rule, lambda b: as_int(b, "block indices must be integers"))
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
        self.block_masks = tuple(masks)

    @classmethod
    def from_blocks(cls, space: OutcomeSpace, blocks) -> "Partition":
        """Partition from its blocks: disjoint lists of integer outcome indices."""
        rule, member = "blocks are sequences of outcome indices", "block members must be integers"
        blocks = [as_tuple(b, rule, lambda i: as_int(i, member)) for b in as_tuple(blocks, rule)]
        block_of = [-1] * space.n
        for b, members in enumerate(blocks):
            if not members:
                raise ValueError("blocks must not be empty")
            for i in members:
                if not 0 <= i < space.n:
                    raise ValueError(f"block member {i} outside the outcome space")
                if block_of[i] == b:
                    raise ValueError(f"block member {i} listed twice in one block")
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
        return [atom_bits(m) for m in self.block_masks]

    def crosses(self, atom: int) -> bool:
        """True when the atom fits inside no block: two members differ in block."""
        atom = self.space.check_mask(atom)
        return all(atom & ~b for b in self.block_masks)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        return common_refinement(self, other) == self

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


def same_space(*operands) -> OutcomeSpace:
    """The one space of distributions, partitions or ideals; ValueError if they differ."""
    space = operands[0].space
    if any(x.space != space for x in operands[1:]):
        raise ValueError("operands live on different outcome spaces")
    return space


def restricted_growth_strings(m: int):
    """All restricted-growth strings of length m, ascending: set partitions of m items."""
    if m == 0:
        yield ()
        return
    for prefix in restricted_growth_strings(m - 1):
        for v in range(max(prefix, default=-1) + 2):
            yield prefix + (v,)


def enumerate_complex(space: OutcomeSpace) -> tuple[int, ...]:
    """All atoms of degree >= 2 over the space, ascending: 2**n - n - 1 of them."""
    return tuple(m for m in range(3, space.full_mask + 1) if m.bit_count() >= 2)


def common_refinement(a: Partition, b: Partition) -> Partition:
    """Coarsest partition finer than both: nonempty pairwise block intersections."""
    return Partition(same_space(a, b), first_occurrence_relabel(zip(a.block_of, b.block_of)))


def common_coarsening(a: Partition, b: Partition) -> Partition:
    """Finest partition coarser than both.

    Outcomes share a block exactly when they are connected through
    alternating a-block / b-block overlaps: starting from the blocks of
    a, each block of b absorbs every merged block it meets.
    """
    space = same_space(a, b)
    merged = list(a.block_masks)
    for blk in b.block_masks:
        rest = []
        for m in merged:
            if m & blk:
                blk |= m
            else:
                rest.append(m)
        merged = rest + [blk]
    return Partition.from_blocks(space, map(atom_bits, merged))
