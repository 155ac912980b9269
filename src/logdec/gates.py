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
import math
from typing import NamedTuple

from .core import (
    MAX_OUTCOMES,
    CapacityError,
    OutcomeSpace,
    Partition,
    first_occurrence_relabel,
    restricted_growth_strings,
)
from .contents import coinformation_content
from .ideals import Ideal
from .measure import _numpy
from .parity import (
    CERTIFIED_ODD,
    STRONGLY_MIXED,
    SURVEY_MAX_SAMPLES,
    ParityClass,
    SignSurvey,
    Witness,
    _as_int,
    classify_parity,
    sign_survey,
    witness_distributions,
)

CENSUS_MAX_SIDE = 3
# canonicalize lists all nx! * ny! input permutations: on a 2-core VM 2x8
# (80 640) took 0.4-0.7 s and 34 MB, 3x8 (241 920) 1.7-2.9 s and 135 MB.
CANONICAL_MAX_MAPS = 100_000

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

    nx: int
    ny: int
    space: OutcomeSpace
    x: Partition
    y: Partition
    z: Partition


class GateClassification(NamedTuple):
    """Structural and empirical verdict for one canonical gate class."""

    table: tuple[int, ...]
    orbit_size: int
    ideal: Ideal
    parity: ParityClass | None
    survey: SignSurvey
    verdict: str
    witness_positive: Witness | None
    witness_negative: Witness | None


def _check_shape(nx: int, ny: int) -> None:
    """Reject a gate shape before anything of size nx * ny is built."""
    if nx < 1 or ny < 1:
        raise ValueError("input alphabets need at least one symbol")
    if nx * ny > MAX_OUTCOMES:
        raise CapacityError(f"a {nx}x{ny} gate exceeds the cap of {MAX_OUTCOMES} outcomes")


def build_gate(nx: int, ny: int, table) -> GateSystem:
    """Gate system from a row-major output table of length nx * ny."""
    _check_shape(nx, ny)
    table = tuple(table)
    if len(table) != nx * ny:
        raise ValueError(f"table must list {nx * ny} outputs, got {len(table)}")
    space = OutcomeSpace(nx * ny)
    x = Partition(space, [w // ny for w in range(nx * ny)])
    y = Partition(space, [w % ny for w in range(nx * ny)])
    z = Partition(space, first_occurrence_relabel(table))
    return GateSystem(nx=nx, ny=ny, space=space, x=x, y=y, z=z)


def named_gate(spec: str) -> GateSystem:
    """Build a gate from a shorthand like "xor:2x2" or "or" (defaults 2x2)."""
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


def canonicalize(gate: GateSystem) -> tuple[int, ...]:
    """Lexicographically minimal table over row/column permutations and
    output relabelling; equal exactly for isomorphic gates."""
    if math.factorial(gate.nx) * math.factorial(gate.ny) > CANONICAL_MAX_MAPS:
        raise CapacityError(f"canonical forms are capped at {CANONICAL_MAX_MAPS} input maps")
    return min(_orbit(gate.z.block_of, _input_permutations(gate.nx, gate.ny)))


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
    _check_shape(nx, ny)
    _check_census_sides(nx, ny)
    perms = _input_permutations(nx, ny)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for table in restricted_growth_strings(nx * ny):
        if table in seen:
            continue
        orbit = _orbit(table, perms)
        seen |= orbit
        classes.append((min(orbit), len(orbit)))
    classes.sort()
    return classes


def _check_census_sides(nx: int, ny: int) -> None:
    """Refuse a census side above the cap: 4x4 has Bell(16) ~ 1e10 tables."""
    if nx > CENSUS_MAX_SIDE or ny > CENSUS_MAX_SIDE:
        raise CapacityError(f"census sides are capped at {CENSUS_MAX_SIDE}")


def check_census_arguments(nx: int, ny: int, samples: int, seed: int | None) -> None:
    """Reject census arguments before any work: ValueError for a sample
    count or seed that is not an integer or is below the minimum (a seed
    may be None, for one still to be drawn), CapacityError above the caps."""
    if nx < 1 or ny < 1:
        raise ValueError("census sides need at least one symbol")
    if _as_int(samples, "the sample count") < 1:
        raise ValueError("surveys need at least one sample")
    if seed is not None and _as_int(seed, "the seed") < 0:
        raise ValueError("census seeds must be nonnegative")
    _check_census_sides(nx, ny)
    if samples > SURVEY_MAX_SAMPLES:
        raise CapacityError(f"census surveys are capped at {SURVEY_MAX_SAMPLES} samples")


def census(
    nx: int,
    ny: int,
    samples: int = 1000,
    seed: int = 0,
) -> list[GateClassification]:
    """Classify every gate of the given shape up to canonical equivalence.

    Each class gets its own deterministic seed derived from the census
    seed and its position in the canonical order.
    """
    check_census_arguments(nx, ny, samples, seed)
    np = _numpy()
    results = []
    for idx, (table, orbit) in enumerate(canonical_classes(nx, ny)):
        class_seed = int(np.random.SeedSequence(seed, spawn_key=(idx,)).generate_state(1)[0])
        results.append(
            classify_gate(
                build_gate(nx, ny, table),
                samples=samples,
                seed=class_seed,
                orbit_size=orbit,
            )
        )
    return results


def expected_class_total(nx: int, ny: int) -> int:
    """Number of output structures before input symmetries (a Bell number)."""
    m = nx * ny
    bell = [1] + [0] * m
    for i in range(1, m + 1):
        bell[i] = sum(math.comb(i - 1, k) * bell[k] for k in range(i))
    return bell[m]
