"""Contents of random variables inside the atom complex, and the bridge back.

The content of a variable is the ideal of all atoms crossing one of its
block boundaries; as an ideal it is generated by the cross-block pairs.
Intersections of contents realise co-informations structurally, and the
constructions here also walk the other way: from an ideal to a family of
variables whose co-information content is exactly that ideal, and from a
single atom to the pair of ideals whose difference isolates it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping

from .core import (
    AtomSet,
    CapacityError,
    Distribution,
    OutcomeSpace,
    Partition,
    atom_bits,
    common_coarsening,
    common_refinement,
    degree,
    first_occurrence_relabel,
    non_entropic,
)
from .ideals import Ideal
from .measure import entropy

BRUTE_FORCE_MAX_N = 16
VARIABLE_CONSTRUCTION_CAP = 10**6
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


class SetExpression:
    """Tree of unions, intersections and differences over named variables.

    Build leaves with SetExpression.var and combine with | & -.
    """

    __slots__ = ("op", "name", "left", "right")

    def __init__(self, op, name=None, left=None, right=None):
        if op not in ("var", "union", "inter", "diff"):
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.name = name
        self.left = left
        self.right = right

    @classmethod
    def var(cls, name: str) -> "SetExpression":
        return cls("var", name=name)

    def __or__(self, other):
        return SetExpression("union", left=self, right=other)

    def __and__(self, other):
        return SetExpression("inter", left=self, right=other)

    def __sub__(self, other):
        return SetExpression("diff", left=self, right=other)

    def variable_names(self) -> set[str]:
        if self.op == "var":
            return {self.name}
        return self.left.variable_names() | self.right.variable_names()

    def __repr__(self) -> str:
        if self.op == "var":
            return self.name
        sym = {"union": "|", "inter": "&", "diff": "-"}[self.op]
        return f"({self.left!r} {sym} {self.right!r})"


def evaluate_expression(
    expr: SetExpression, bindings: Mapping[str, Partition]
) -> AtomSet:
    """Set-evaluate an expression tree over the bound variables' contents."""
    if expr.op == "var":
        if expr.name not in bindings:
            raise ValueError(f"unbound variable {expr.name!r}")
        return content(bindings[expr.name]).enumerate()
    left = evaluate_expression(expr.left, bindings)
    right = evaluate_expression(expr.right, bindings)
    if expr.op == "union":
        atoms = left.atoms | right.atoms
    elif expr.op == "inter":
        atoms = left.atoms & right.atoms
    else:
        atoms = left.atoms - right.atoms
    return AtomSet(left.space, atoms)


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


def is_representable(atom_set: AtomSet) -> tuple[bool, Partition | None]:
    """Decide whether an atom set is the content of some partition.

    Outcomes are treated as merged when their pair atom is absent; the
    set is representable exactly when that relation is transitive and the
    induced partition's content reproduces the set.  Returns the witness
    partition on success.
    """
    space = atom_set.space
    n = space.n
    merged = [[False] * n for _ in range(n)]
    for i in range(n):
        merged[i][i] = True
        for j in range(i + 1, n):
            if (1 << i | 1 << j) not in atom_set.atoms:
                merged[i][j] = merged[j][i] = True
    component = [-1] * n
    comp = 0
    for i in range(n):
        if component[i] != -1:
            continue
        stack = [i]
        while stack:
            x = stack.pop()
            if component[x] != -1:
                continue
            component[x] = comp
            stack.extend(j for j in range(n) if merged[x][j] and component[j] == -1)
        comp += 1
    for i in range(n):
        for j in range(n):
            if (component[i] == component[j]) != merged[i][j]:
                return False, None
    part = Partition(space, first_occurrence_relabel(component))
    if content_bruteforce(part).atoms != atom_set.atoms:
        return False, None
    return True, part


def gacs_korner(x: Partition, y: Partition) -> tuple[Ideal, Partition]:
    """Common-information ideal and the partition realising it.

    Constructed as the content of the finest common coarsening; the
    result is checked to sit inside the mutual-information ideal with
    pair generators only.
    """
    coarse = common_coarsening(x, y)
    ideal = content(coarse)
    mutual = coinformation_content([x, y])
    for g in ideal.generators:
        if degree(g) != 2:
            raise AssertionError("common-information generators must be pairs")
        if not mutual.contains(g):
            raise AssertionError(
                "common-information ideal escaped the mutual-information ideal"
            )
    return ideal, coarse


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
    total = 1
    for g in gens:
        total *= (1 << degree(g)) - 2
        if total > VARIABLE_CONSTRUCTION_CAP:
            raise CapacityError(
                "variable construction would exceed the combination cap"
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


def extract_atom(space: OutcomeSpace, atom: int) -> tuple[Ideal, Ideal]:
    """Ideals I and C with I - C = {atom}, so mu({atom}) = mu(I) - mu(C)."""
    if degree(atom) < 2:
        raise ValueError("only atoms of degree >= 2 can be extracted")
    inner = Ideal.generated_by(space, [atom])
    above = Ideal.generated_by(
        space, [atom | 1 << i for i in range(space.n) if not atom >> i & 1]
    )
    return inner, above


def count_expressions(n: int) -> int:
    """Number of atom subsets over n outcomes: 2**(2**n - n - 1), exact."""
    if n < 1:
        raise ValueError("need at least one outcome")
    if n > 24:
        raise CapacityError("expression counting is capped at 24 outcomes")
    return 1 << ((1 << n) - n - 1)
