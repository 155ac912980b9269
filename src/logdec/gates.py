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
    ParityClass,
    SignSurvey,
    Witness,
    classify_parity,
    sign_survey,
    witness_distributions,
)

CLASSIFY_MAX_CELLS = 12
CENSUS_MAX_SIDE = 3
# On a 2-core VM a 3x3 census at the cap takes about 70 s and peaks at
# 65 MB of RSS (52 MB at 1000 samples); each class's sample matrix grows
# linearly in the sample count, so 10**9 would need tens of gigabytes.
CENSUS_MAX_SAMPLES = 100_000

ALWAYS_NEGATIVE = "AlwaysNegative"
ALWAYS_NONNEGATIVE_OR_ZERO = "AlwaysNonnegativeOrZero"
MIXED_SIGN = "MixedSign"
ZERO_COINFORMATION = "ZeroCoinformation"


class GateSystem(NamedTuple):
    """Joint space of (X, Y, Z = f(X, Y)) with the three marginal partitions."""

    nx: int
    ny: int
    table: tuple
    space: OutcomeSpace
    x: Partition
    y: Partition
    z: Partition


class GateClassification(NamedTuple):
    """Structural and empirical verdict for one canonical gate class."""

    nx: int
    ny: int
    table: tuple[int, ...]
    orbit_size: int
    ideal: Ideal
    degree_profile: tuple[int, ...]
    parity: ParityClass | None
    survey: SignSurvey
    verdict: str
    witness_positive: Witness | None
    witness_negative: Witness | None
    seed: int


def build_gate(nx: int, ny: int, table) -> GateSystem:
    """Gate system from a row-major output table of length nx * ny."""
    if nx < 1 or ny < 1:
        raise ValueError("input alphabets need at least one symbol")
    table = tuple(table)
    if len(table) != nx * ny:
        raise ValueError(f"table must list {nx * ny} outputs, got {len(table)}")
    space = OutcomeSpace(nx * ny)
    x = Partition(space, [w // ny for w in range(nx * ny)])
    y = Partition(space, [w % ny for w in range(nx * ny)])
    z = Partition(space, first_occurrence_relabel(table))
    return GateSystem(nx=nx, ny=ny, table=table, space=space, x=x, y=y, z=z)


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
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    if name == "xor":
        if nx != ny:
            raise ValueError("xor needs equal input alphabets")
        table = [(i + j) % nx for i, j in pairs]
    elif name in ("or", "and", "nor", "nand", "xnor"):
        if (nx, ny) != (2, 2):
            raise ValueError(f"{name} is a 2x2 gate")
        fn = {
            "or": lambda i, j: i | j,
            "and": lambda i, j: i & j,
            "nor": lambda i, j: 1 - (i | j),
            "nand": lambda i, j: 1 - (i & j),
            "xnor": lambda i, j: 1 - (i ^ j),
        }[name]
        table = [fn(i, j) for i, j in pairs]
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
    return min(_orbit(gate.table, _input_permutations(gate.nx, gate.ny)))


def classify_gate(
    gate: GateSystem,
    samples: int = 1000,
    seed: int = 0,
    orbit_size: int = 1,
) -> GateClassification:
    """Classify one gate: triple ideal, parity, survey, witnesses, verdict."""
    if gate.nx * gate.ny > CLASSIFY_MAX_CELLS:
        raise CapacityError(
            f"gate classification is capped at {CLASSIFY_MAX_CELLS} joint outcomes"
        )
    ideal = coinformation_content([gate.x, gate.y, gate.z])
    survey = sign_survey(ideal, samples, seed)
    parity_class: ParityClass | None = None
    witness_positive = witness_negative = None
    if ideal.is_empty:
        verdict = ZERO_COINFORMATION
    else:
        parity_class = classify_parity(ideal)
        parities = ideal.generator_parities()
        if parity_class.tag == STRONGLY_MIXED:
            witness_positive, witness_negative = witness_distributions(ideal)
            verdict = MIXED_SIGN
        elif parities == {1}:
            if (
                parity_class.tag == CERTIFIED_ODD
                and survey.positive == 0
                and survey.negative > 0
            ):
                verdict = ALWAYS_NEGATIVE
            else:
                raise RuntimeError(
                    f"odd-generated gate ideal resisted classification: "
                    f"parity={parity_class.tag}, survey +{survey.positive}/-{survey.negative}"
                )
        else:
            if survey.negative == 0:
                verdict = ALWAYS_NONNEGATIVE_OR_ZERO
            else:
                raise RuntimeError(
                    "pair-generated gate ideal produced a negative sample; "
                    "this falsifies the expected sign structure"
                )
    return GateClassification(
        nx=gate.nx,
        ny=gate.ny,
        table=first_occurrence_relabel(gate.table),
        orbit_size=orbit_size,
        ideal=ideal,
        degree_profile=ideal.degree_profile(),
        parity=parity_class,
        survey=survey,
        verdict=verdict,
        witness_positive=witness_positive,
        witness_negative=witness_negative,
        seed=seed,
    )


def canonical_classes(nx: int, ny: int) -> list[tuple[tuple[int, ...], int]]:
    """Canonical gate tables with orbit sizes, covering every output structure."""
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


def check_census_arguments(nx: int, ny: int, samples: int) -> None:
    """Reject census arguments before any work: ValueError below the
    minimum, CapacityError above the caps."""
    if nx < 1 or ny < 1:
        raise ValueError("census sides need at least one symbol")
    if samples < 1:
        raise ValueError("surveys need at least one sample")
    if nx > CENSUS_MAX_SIDE or ny > CENSUS_MAX_SIDE:
        raise CapacityError(f"census sides are capped at {CENSUS_MAX_SIDE}")
    if samples > CENSUS_MAX_SAMPLES:
        raise CapacityError(f"census surveys are capped at {CENSUS_MAX_SAMPLES} samples")


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
    check_census_arguments(nx, ny, samples)
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
