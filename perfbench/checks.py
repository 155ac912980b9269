"""Reference computations and output checks for the logdec benchmark.

Nothing here calls logdec.  Entropies come from numpy over common
refinements of block assignments, atom measures from a 60-digit mpmath
alternating sum, and gate classes from this file's own enumeration of
set partitions.  Each check returns a list of mismatch messages; an
empty list means the report passed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import mpmath
import numpy as np

# Tolerances.  Reports carry 12 significant digits, and logdec's own
# comparison tolerance is 1e-9 (measure.EQ_TOL).
VALUE_TOL = 1e-9
# A listed atom measure against the 60-digit reference: relative part
# for the 12-digit rounding and float error, absolute part for atoms
# whose measure is near zero.
ATOM_REL_TOL = 1e-9
ATOM_ABS_TOL = 1e-12
# Summing thousands of rounded atom measures: the error scales with the
# mass that cancels, so the bound is relative to sum(|mu|).
SUM_REL_TOL = 1e-10

STRONGLY_MIXED = "StronglyMixed"
XOR_2X2 = (2, 2, (0, 1, 1, 0))
PURE_TAGS = {0: {"CertifiedEven", "Undetermined"}, 1: {"CertifiedOdd", "Undetermined"}}


# ---------------------------------------------------------------------------
# Entropies and co-information
# ---------------------------------------------------------------------------


def joint_labels(columns) -> np.ndarray:
    """Block index of the common refinement of several block assignments."""
    stacked = np.asarray(columns, dtype=np.int64).reshape(len(columns), -1)
    _, inverse = np.unique(stacked, axis=1, return_inverse=True)
    return inverse.reshape(-1)


def entropies(weight_rows, labels) -> np.ndarray:
    """Shannon entropy in bits of one partition, per weight row."""
    w = np.atleast_2d(np.asarray(weight_rows, dtype=np.float64))
    onehot = np.zeros((w.shape[1], int(labels.max()) + 1))
    onehot[np.arange(w.shape[1]), labels] = 1.0
    q = w @ onehot
    safe = np.where(q > 0.0, q, 1.0)
    return -np.sum(np.where(q > 0.0, q * np.log2(safe), 0.0), axis=1)


def coinformation(weight_rows, variables) -> np.ndarray:
    """Alternating sum of joint entropies: I(X1;...;Xk), per weight row."""
    total = 0.0
    k = len(variables)
    for r in range(1, k + 1):
        for subset in itertools.combinations(variables, r):
            sign = 1.0 if r % 2 == 1 else -1.0
            total = total + sign * entropies(weight_rows, joint_labels(subset))
    return np.atleast_1d(total)


def entropy(p, blocks) -> float:
    return float(entropies(p, joint_labels([blocks]))[0])


def close(value: float, ref: float, tol: float = VALUE_TOL) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def mask_of(atom: str, labels: str) -> int:
    """Bit pattern of an atom printed with one-character outcome labels."""
    mask = 0
    for ch in atom:
        mask |= 1 << labels.index(ch)
    return mask


def block_masks(blocks) -> list[int]:
    masks: dict[int, int] = {}
    for i, b in enumerate(blocks):
        masks[b] = masks.get(b, 0) | 1 << i
    return list(masks.values())


def crosses(mask: int, masks: list[int]) -> bool:
    """True when the atom is not inside one block (the block masks of a variable)."""
    return all(mask & ~bm for bm in masks)


def crossing_atoms(n: int, blocks) -> set[int]:
    masks = block_masks(blocks)
    return {m for m in range(1 << n) if m.bit_count() >= 2 and crosses(m, masks)}


def mu_reference(p, mask: int) -> mpmath.mpf:
    """Atom measure as a 60-digit alternating sum of s*log2(s) over member subsets."""
    with mpmath.workdps(60):
        members = [mpmath.mpf(p[i]) for i in range(len(p)) if mask >> i & 1]
        d = len(members)
        sums = [mpmath.mpf(0)]
        sizes = [0]
        for w in members:
            sums += [s + w for s in sums]
            sizes += [r + 1 for r in sizes]
        ln2 = mpmath.log(2)
        total = mpmath.mpf(0)
        for s, r in zip(sums[1:], sizes[1:]):
            term = s * mpmath.log(s) / ln2
            total += term if (d - r) % 2 == 0 else -term
        return total


def minimal_generators(n: int, variables, max_degree: int) -> set[int]:
    """Minimal atoms crossing every variable, by scanning degrees 2..max_degree.

    An atom belongs to the intersection of contents when it crosses the
    blocks of every variable; it is a minimal generator when no atom one
    outcome smaller does.
    """
    per_variable = [block_masks(b) for b in variables]
    members: set[int] = set()
    gens = set()
    for d in range(2, max_degree + 1):
        for combo in itertools.combinations(range(n), d):
            mask = sum(1 << i for i in combo)
            if all(crosses(mask, masks) for masks in per_variable):
                members.add(mask)
                if not any(mask & ~(1 << i) in members for i in combo):
                    gens.add(mask)
    return gens


# ---------------------------------------------------------------------------
# Gate classes
# ---------------------------------------------------------------------------


def bell(m: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _relabel(values) -> tuple[int, ...]:
    seen: dict = {}
    return tuple(seen.setdefault(v, len(seen)) for v in values)


def _set_partitions(m: int):
    """Set partitions of m cells as block-index tuples, each exactly once."""
    if m == 0:
        yield ()
        return
    for head in _set_partitions(m - 1):
        top = max(head, default=-1)
        for b in range(top + 2):
            yield head + (b,)


@lru_cache(maxsize=None)
def gate_classes(nx: int, ny: int) -> dict[tuple[int, ...], int]:
    """Canonical (least relabelled) table of every gate class, with orbit size."""
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    perms = [
        [rows[i] * ny + cols[j] for i, j in cells]
        for rows in itertools.permutations(range(nx))
        for cols in itertools.permutations(range(ny))
    ]
    seen: set = set()
    classes = {}
    for table in _set_partitions(nx * ny):
        if table in seen:
            continue
        orbit = {_relabel([table[k] for k in perm]) for perm in perms}
        seen |= orbit
        classes[min(orbit)] = len(orbit)
    return classes


def gate_variables(nx: int, ny: int, table) -> list[list[int]]:
    cells = range(nx * ny)
    return [[c // ny for c in cells], [c % ny for c in cells], list(table)]


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def check_census(report: dict, nx: int, ny: int, samples: int, seed: int) -> list[str]:
    """One `census --json` report against the benchmark's own enumeration."""
    errs = []
    res = report["results"]
    rows = res["classes"]
    if (res["nx"], res["ny"], res["samples"]) != (nx, ny, samples):
        errs.append(f"census {nx}x{ny}: shape or samples echoed wrong")
    if sum(r["orbit_size"] for r in rows) != bell(nx * ny):
        errs.append(f"census {nx}x{ny}: orbit sizes do not sum to Bell({nx * ny})")
    expected = gate_classes(nx, ny)
    tables = [tuple(r["table"]) for r in rows]
    if len(tables) != len(expected) or set(tables) != set(expected):
        errs.append(f"census {nx}x{ny}: {len(rows)} classes, expected {len(expected)}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(nx * ny), size=64)
    for r in rows:
        table = tuple(r["table"])
        tag = f"census {nx}x{ny} {','.join(map(str, table))}"
        if expected.get(table) != r["orbit_size"]:
            errs.append(f"{tag}: not a canonical table with orbit size {r['orbit_size']}")
            continue
        s = r["survey"]
        if s["positive"] + s["negative"] + s["zero"] != s["samples"] or s["samples"] != samples:
            errs.append(f"{tag}: survey counts do not add up to {samples}")
        wrong_side = {"AlwaysNonnegativeOrZero": "negative", "AlwaysNegative": "positive"}
        if r["verdict"] in wrong_side and s[wrong_side[r["verdict"]]]:
            errs.append(f"{tag}: {r['verdict']} but the survey saw the other sign")
        variables = gate_variables(nx, ny, table)
        for side, sign in (("witness_positive", 1), ("witness_negative", -1)):
            if side in r:
                errs += _check_witness(tag, side, r[side]["p"], r[side]["mu"], sign, variables)
        verdict = r["verdict"]
        if verdict == "MixedSign" and not ("witness_positive" in r and "witness_negative" in r):
            errs.append(f"{tag}: MixedSign without a witness for each sign")
        if verdict in ("AlwaysNonnegativeOrZero", "AlwaysNegative", "ZeroCoinformation"):
            values = coinformation(weights, variables)
            if verdict == "AlwaysNonnegativeOrZero" and values.min() < -VALUE_TOL:
                errs.append(f"{tag}: AlwaysNonnegativeOrZero but co-information {values.min():.3g}")
            if verdict == "AlwaysNegative" and values.max() >= -VALUE_TOL:
                errs.append(f"{tag}: AlwaysNegative but co-information {values.max():.3g}")
            if verdict == "ZeroCoinformation" and np.abs(values).max() > VALUE_TOL:
                errs.append(f"{tag}: ZeroCoinformation but co-information {values.max():.3g}")
    count = sum(1 for x in rows if x["verdict"] == "AlwaysNegative")
    if res["always_negative_classes"] != count:
        errs.append(f"census {nx}x{ny}: always_negative_classes does not match the rows")
    return errs


def check_census_pass(reports: list[dict]) -> list[str]:
    """Across the shapes of one pass, the only AlwaysNegative class is the 2x2 XOR."""
    negatives = [
        (rep["results"]["nx"], rep["results"]["ny"], tuple(r["table"]))
        for rep in reports
        for r in rep["results"]["classes"]
        if r["verdict"] == "AlwaysNegative"
    ]
    if negatives != [XOR_2X2]:
        return [f"AlwaysNegative classes in the pass are {negatives}, expected only the 2x2 XOR"]
    return []


def _check_witness(tag, side, p, mu, sign, variables) -> list[str]:
    errs = []
    if sign * mu <= 0.0:
        errs.append(f"{tag}: {side} has mu {mu!r} of the wrong sign")
    ref = float(coinformation(p, variables)[0])
    if not close(mu, ref):
        errs.append(f"{tag}: {side} mu {mu!r} but the entropy sum gives {ref!r}")
    return errs


def check_decompose(report: dict, system: dict, variable: str | None, sample: list[int]) -> list[str]:
    """One `decompose --json` report: atom set, sign law, totals and 60-digit samples.

    `sample` holds indices into the listed rows to check against mu_reference.
    """
    errs = []
    labels = "".join(system["outcomes"])
    n = len(labels)
    p = system["p"]
    res = report["results"]
    rows = res["atoms"]
    masks = [mask_of(r["atom"], labels) for r in rows]
    if variable is None:
        expected = {m for m in range(1 << n) if m.bit_count() >= 2}
    else:
        expected = crossing_atoms(n, system["variables"][variable])
    if len(masks) != len(expected) or set(masks) != expected:
        errs.append(f"decompose n={n}: listed atoms are not the expected {len(expected)}")
    for m, r in zip(masks, rows):
        if r["degree"] != m.bit_count():
            errs.append(f"decompose n={n}: atom {r['atom']} listed with degree {r['degree']}")
        elif r["mu"] * (-1) ** r["degree"] <= 0.0:
            errs.append(f"decompose n={n}: atom {r['atom']} has mu {r['mu']!r}, against (-1)^degree")
    for name, blocks in system["variables"].items():
        h = entropy(p, blocks)
        tot = res["totals"].get(name)
        if tot is None or not close(tot["mu_content"], h) or not close(tot["entropy"], h):
            errs.append(f"decompose n={n}: totals of {name} disagree with H = {h!r}")
        if variable is not None and name != variable:
            continue
        bms = block_masks(blocks)
        crossing = [r["mu"] for m, r in zip(masks, rows) if crosses(m, bms)]
        total = sum(crossing)
        tol = VALUE_TOL + SUM_REL_TOL * sum(abs(x) for x in crossing)
        if abs(total - h) > tol:
            errs.append(f"decompose n={n}: mu over {name}'s atoms sums to {total!r}, H = {h!r}")
    for k in sample:
        r = rows[k]
        ref = mu_reference(p, masks[k])
        if abs(r["mu"] - ref) > ATOM_ABS_TOL + ATOM_REL_TOL * abs(ref):
            errs.append(f"decompose n={n}: atom {r['atom']} mu {r['mu']!r}, 60-digit {float(ref)!r}")
    return errs


def check_coinfo(report: dict, system: dict, generators: set[int]) -> list[str]:
    """One `coinfo --structure --json` report against entropies and the reference generators."""
    errs = []
    labels = "".join(system["outcomes"])
    variables = list(system["variables"].values())
    k = len(variables)
    res = report["results"]
    st = res["structure"]
    ref = float(coinformation(system["p"], variables)[0])
    for key, value in (("coinformation", res["coinformation"]), ("structure.mu", st["mu"])):
        if not close(value, ref):
            errs.append(f"coinfo: {key} = {value!r}, entropy sum {ref!r}")
    degrees = st["degrees"]
    masks = [mask_of(g, labels) for g in st["generators"]]
    if set(masks) != generators or len(masks) != len(generators):
        errs.append(f"coinfo: {len(masks)} generators, expected {len(generators)}")
    if degrees != sorted(m.bit_count() for m in masks):
        errs.append("coinfo: degrees do not match the generators")
    if any(d > max(2, k) for d in degrees):
        errs.append(f"coinfo: generator degree above max(2, {k})")
    parities = {d % 2 for d in degrees}
    tag = st["parity"]
    if not degrees:
        if tag is not None:
            errs.append("coinfo: empty ideal with a parity tag")
    elif (tag == STRONGLY_MIXED) != (len(parities) == 2):
        errs.append(f"coinfo: tag {tag} for degree parities {sorted(parities)}")
    elif len(parities) == 1 and tag not in PURE_TAGS[parities.pop()]:
        errs.append(f"coinfo: tag {tag} contradicts the generator parity")
    return errs


def check_witness(report: dict, system: dict, generators: set[int]) -> list[str]:
    """One `witness --json` report: each side's sign, checked by the entropy sum."""
    errs = []
    labels = "".join(system["outcomes"])
    variables = list(system["variables"].values())
    res = report["results"]
    if {mask_of(g, labels) for g in res["generators"]} != generators:
        errs.append("witness: generators differ from the reference")
    for side, sign in (("positive", 1), ("negative", -1)):
        w = res[side]
        errs += _check_witness("witness", side, w["p"], w["mu"], sign, variables)
        if sign * w["coinformation"] <= 0.0:
            errs.append(f"witness: {side} co-information {w['coinformation']!r} of the wrong sign")
    return errs
