"""Deterministic two-input gate systems and the exhaustive census over them.

A gate is X, Y and Z = f(X, Y) realised on the joint outcome space of
the input pair, row-major in (x, y).  Gates are quotiented by row
permutations, column permutations and output relabelling; the census
enumerates output structures as set partitions of the table cells, keeps
one representative per symmetry class, and classifies each one
structurally (parity of its triple-intersection ideal) and empirically
(sign survey, witness construction).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .core import (
    MAX_OUTCOMES,
    CapacityError,
    OutcomeSpace,
    Partition,
    as_int,
    first_occurrence_relabel,
    restricted_growth_strings,
)
from .contents import coinformation_content
from .ideals import Ideal
from .measure import _numpy
from .parity import (
    CERTIFIED_ODD,
    STRONGLY_MIXED,
    ParityClass,
    SignSurvey,
    check_survey_arguments,
    classify_parity,
    sign_survey,
    witness_distributions,
)

CENSUS_MAX_SIDE = 3
_SIDE_RULE = "a gate side is an integer"

ALWAYS_NEGATIVE = "AlwaysNegative"
ALWAYS_NONNEGATIVE_OR_ZERO = "AlwaysNonnegativeOrZero"
MIXED_SIGN = "MixedSign"
ZERO_COINFORMATION = "ZeroCoinformation"

# The named 2x2 gates' outputs, row-major: f(0,0), f(0,1), f(1,0), f(1,1).
_TRUTH_TABLES = {
    "or": (0, 1, 1, 1),
    "and": (0, 0, 0, 1),
    "nor": (1, 0, 0, 0),
    "nand": (1, 1, 1, 0),
    "xnor": (1, 0, 0, 1),
}


class GateSystem(NamedTuple):
    """Joint space of (X, Y, Z = f(X, Y)) with the three marginal partitions."""

    space: OutcomeSpace
    x: Partition
    y: Partition
    z: Partition


class GateClassification(NamedTuple):
    """Structural and empirical verdict for one canonical gate class; a
    MixedSign class holds the integer weights of both its witnesses."""

    table: tuple[int, ...]
    orbit_size: int
    ideal: Ideal
    parity: ParityClass | None
    survey: SignSurvey
    verdict: str
    witness_positive: tuple[int, ...] | None
    witness_negative: tuple[int, ...] | None


def _check_shape(nx: int, ny: int) -> None:
    """Reject a gate shape before anything of size nx * ny is built."""
    if as_int(nx, _SIDE_RULE) < 1 or as_int(ny, _SIDE_RULE) < 1:
        raise ValueError("input alphabets need at least one symbol")
    if nx * ny > MAX_OUTCOMES:
        raise CapacityError(f"a {nx}x{ny} gate exceeds the cap of {MAX_OUTCOMES} outcomes")


def build_gate(nx: int, ny: int, table) -> GateSystem:
    """Gate system from a row-major output table of length nx * ny."""
    _check_shape(nx, ny)
    try:
        blocks = first_occurrence_relabel(table)
    except TypeError:  # not iterable, or an output that cannot be hashed
        raise ValueError(f"a gate table is a sequence of outputs, got {table!r}") from None
    if len(blocks) != nx * ny:
        raise ValueError(f"table must list {nx * ny} outputs, got {len(blocks)}")
    space = OutcomeSpace(nx * ny)
    x = Partition(space, [w // ny for w in range(nx * ny)])
    y = Partition(space, [w % ny for w in range(nx * ny)])
    z = Partition(space, blocks)
    return GateSystem(space=space, x=x, y=y, z=z)


def named_gate(spec: str) -> GateSystem:
    """Build a gate from a shorthand like "xor:2x2" or "or" (defaults 2x2)."""
    if not isinstance(spec, str):
        raise ValueError(f"a gate spec is a string like 'xor:2x2', got {spec!r}")
    name, _, shape = spec.partition(":")
    name = name.strip().lower()
    nx, ny = (2, 2)
    if shape:
        try:
            xs, ys = shape.lower().split("x")
            nx, ny = int(xs), int(ys)
        except ValueError:
            raise ValueError(f"bad gate shape {shape!r}, expected like 2x2") from None
    _check_shape(nx, ny)
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    if name == "xor":
        if nx != ny:
            raise ValueError("xor needs equal input alphabets")
        table = [(i + j) % nx for i, j in pairs]
    elif name in _TRUTH_TABLES:
        if (nx, ny) != (2, 2):
            raise ValueError(f"{name} is a 2x2 gate")
        table = _TRUTH_TABLES[name]
    elif name == "copyx":
        table = [i for i, _ in pairs]
    elif name == "copyy":
        table = [j for _, j in pairs]
    elif name == "const":
        table = [0 for _ in pairs]
    else:
        raise ValueError(f"unknown gate name {name!r}")
    return build_gate(nx, ny, table)


def _input_permutations(nx: int, ny: int) -> list[tuple[int, ...]]:
    maps = []
    for rows in itertools.permutations(range(nx)):
        for cols in itertools.permutations(range(ny)):
            maps.append(tuple(rows[i] * ny + cols[j] for i in range(nx) for j in range(ny)))
    return maps


def _orbit(table, perms) -> set[tuple[int, ...]]:
    """The relabelled tables of one gate over all input permutations."""
    return {first_occurrence_relabel(table[p] for p in perm) for perm in perms}


def classify_gate(
    gate: GateSystem,
    samples: int = 1000,
    seed: int = 0,
    orbit_size: int = 1,
) -> GateClassification:
    """Classify one gate: triple ideal, parity, survey, witnesses, verdict.

    The verdict is ZeroCoinformation for the empty ideal, MixedSign (with
    both witnesses) for StronglyMixed, AlwaysNegative for CertifiedOdd with
    every sample negative, and AlwaysNonnegativeOrZero for pure even
    generators with no negative sample; anything else is a RuntimeError.
    """
    ideal = coinformation_content([gate.x, gate.y, gate.z])
    survey = sign_survey(ideal, samples, seed)
    parity = None if ideal.is_empty else classify_parity(ideal)
    witness_positive = witness_negative = None
    if parity is None:
        verdict = ZERO_COINFORMATION
    elif parity.tag == STRONGLY_MIXED:
        witness_positive, witness_negative = witness_distributions(ideal)
        verdict = MIXED_SIGN
    elif parity.tag == CERTIFIED_ODD and survey.positive == 0 < survey.negative:
        verdict = ALWAYS_NEGATIVE
    elif ideal.generator_parities() == {0} and survey.negative == 0:
        verdict = ALWAYS_NONNEGATIVE_OR_ZERO
    else:
        raise RuntimeError(
            f"gate ideal contradicts its sign structure: generator parities "
            f"{sorted(ideal.generator_parities())}, parity {parity.tag}, "
            f"survey +{survey.positive}/-{survey.negative}/0:{survey.zero}"
        )
    return GateClassification(
        table=gate.z.block_of,
        orbit_size=orbit_size,
        ideal=ideal,
        parity=parity,
        survey=survey,
        verdict=verdict,
        witness_positive=witness_positive,
        witness_negative=witness_negative,
    )


def canonical_classes(nx: int, ny: int) -> list[tuple[tuple[int, ...], int]]:
    """Canonical gate tables with orbit sizes, covering every output structure."""
    _check_census_sides(nx, ny)
    perms = _input_permutations(nx, ny)
    seen: set[tuple[int, ...]] = set()
    classes = []
    # Orbit members are first-occurrence relabellings, so strings met in
    # this ascending walk: the first member met is the orbit's least.
    for table in restricted_growth_strings(nx * ny):
        if table in seen:
            continue
        orbit = _orbit(table, perms)
        seen |= orbit
        classes.append((table, len(orbit)))
    return classes


def _check_census_sides(nx: int, ny: int) -> None:
    """Refuse a bad gate shape or a census side above the cap (4x4: Bell(16) ~ 1e10 tables)."""
    _check_shape(nx, ny)
    if nx > CENSUS_MAX_SIDE or ny > CENSUS_MAX_SIDE:
        raise CapacityError(f"census sides are capped at {CENSUS_MAX_SIDE}")


def census(
    nx: int,
    ny: int,
    samples: int = 1000,
    seed: int = 0,
) -> Iterator[GateClassification]:
    """Classify every gate of the given shape up to canonical equivalence.

    Classes come lazily: each is classified, at a seed derived from the
    census seed and its canonical position, when the iterator reaches it.
    The sides, then the sample count and seed, are checked at call time,
    and the classes listed.
    """
    _check_census_sides(nx, ny)
    check_survey_arguments(samples, seed)
    np = _numpy()
    return (
        classify_gate(
            build_gate(nx, ny, table),
            samples=samples,
            seed=int(np.random.SeedSequence(seed, spawn_key=(idx,)).generate_state(1)[0]),
            orbit_size=orbit,
        )
        for idx, (table, orbit) in enumerate(canonical_classes(nx, ny))
    )
