"""Seeded command lists for the three benchmark workloads.

A workload is a fixed list of `logdec` command lines (one pass), made
from the workload seed before anything runs.  Every pass repeats the
same list, so the mix of inputs never depends on how fast the program
is.  System files are written to the run's work directory; the program
sees only those files and the command arguments.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

LABELS = "abcdefghijklmnopqrstuvwx"
VARIABLE_NAMES = ("X", "Y", "Z", "W")

CENSUS_SHAPES = ((2, 2), (2, 3), (3, 3))
CENSUS_SAMPLES = 1000
# One listing per size; n=16 (the listing cap) is left out because a
# single n=14 listing already takes several seconds.
DECOMPOSE_SIZES = (10, 11, 12, 13, 14)
DECOMPOSE_VARIABLE_SIZE = 12
DECOMPOSE_SAMPLED_ATOMS = 6
# Above 20 outcomes mu_ideal leaves the mu_table kernel and effectively hangs.
STRUCTURE_SIZES = (16, 17, 18, 19, 20)
STRUCTURE_VARIABLE_COUNTS = (2, 3, 4)


@dataclass
class Op:
    """One CLI invocation, with the count of work items it reports and its check."""

    argv: list[str]
    items: Callable[[dict], int]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    # Checks spanning the reports of one pass: op index -> mismatch messages.
    pass_check: Callable[[list], dict[int, list[str]]] = field(
        default=lambda reports: {}
    )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def random_system(rng: np.random.Generator, n: int, k: int) -> dict:
    """n outcomes with Dirichlet(1) weights and k variables of 2 to 4 nonempty blocks."""
    variables = {}
    for name in VARIABLE_NAMES[:k]:
        b = int(rng.integers(2, 5))
        blocks = list(range(b)) + [int(x) for x in rng.integers(0, b, n - b)]
        rng.shuffle(blocks)
        variables[name] = blocks
    p = [float(x) for x in rng.dirichlet(np.ones(n))]
    return {"outcomes": list(LABELS[:n]), "p": p, "variables": variables}


def _write(workdir: str, name: str, system: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system, fh)
    return path


def census(seed: int, workdir: str) -> Workload:
    ops = []
    for idx, (nx, ny) in enumerate(CENSUS_SHAPES):
        shape_seed = int(_rng(seed, 1, idx).integers(2**31))
        argv = ["census", "--nx", str(nx), "--ny", str(ny), "--samples",
                str(CENSUS_SAMPLES), "--seed", str(shape_seed), "--json"]

        def check(rep, nx=nx, ny=ny, shape_seed=shape_seed):
            return checks.check_census(rep, nx, ny, CENSUS_SAMPLES, shape_seed)

        ops.append(Op(argv, lambda rep: len(rep["results"]["classes"]), check))

    def pass_check(reports):
        if any(rep is None for rep in reports):
            return {}
        errs = checks.check_census_pass(reports)
        return {0: errs} if errs else {}

    return Workload(ops, pass_check)


def decompose(seed: int, workdir: str) -> Workload:
    ops = []
    for idx, n in enumerate(DECOMPOSE_SIZES):
        rng = _rng(seed, 2, idx)
        system = random_system(rng, n, int(rng.integers(2, 5)))
        path = _write(workdir, f"decompose-{n}.json", system)
        variables = [None]
        if n == DECOMPOSE_VARIABLE_SIZE:
            variables.append(str(rng.choice(list(system["variables"]))))
        for var in variables:
            argv = ["decompose", "--file", path, "--json"]
            if var is None:
                count = (1 << n) - n - 1
            else:
                argv += ["--variable", var]
                count = len(checks.crossing_atoms(n, system["variables"][var]))
            sample = sorted(int(x) for x in rng.choice(count - 1, DECOMPOSE_SAMPLED_ATOMS, replace=False))
            # The last row is the largest listed atom, where cancellation is worst.
            sample.append(count - 1)

            def check(rep, system=system, var=var, sample=sample):
                return checks.check_decompose(rep, system, var, sample)

            ops.append(Op(argv, lambda rep: len(rep["results"]["atoms"]), check))
    return Workload(ops)


def structure(seed: int, workdir: str) -> Workload:
    ops = []
    shapes = itertools.product(STRUCTURE_SIZES, STRUCTURE_VARIABLE_COUNTS)
    for idx, (n, k) in enumerate(shapes):
        system = random_system(_rng(seed, 3, idx), n, k)
        path = _write(workdir, f"structure-{n}-{k}.json", system)
        gens = checks.minimal_generators(n, list(system["variables"].values()), max(2, k))

        def check_coinfo(rep, system=system, gens=gens):
            return checks.check_coinfo(rep, system, gens)

        ops.append(Op(["coinfo", "--file", path, "--structure", "--json"],
                      lambda rep: 1, check_coinfo))
        if len({g.bit_count() % 2 for g in gens}) == 2:

            def check_witness(rep, system=system, gens=gens):
                return checks.check_witness(rep, system, gens)

            ops.append(Op(["witness", "--file", path, "--json"], lambda rep: 1, check_witness))
    return Workload(ops)


WORKLOADS = {"census": census, "decompose": decompose, "structure": structure}
