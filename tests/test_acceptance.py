"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances and sample counts are pinned here and are not calibration knobs.
"""

import itertools
import time

import numpy as np

from logdec import (
    Distribution,
    OutcomeSpace,
    all_partitions,
    census,
    coinformation_content,
    coinformation_numeric,
    content,
    content_bruteforce,
    count_expressions,
    entropy,
    enumerate_complex,
    ideal_to_variables,
    mu_atom,
    mu_ideal,
    named_gate,
    single_generator_sign,
)
from logdec.gates import ALWAYS_NEGATIVE, ZERO_COINFORMATION
from logdec.parity import CERTIFIED_ODD

from conftest import A, random_distribution, random_ideal, random_partition

SEED = 987654321

_census_cache: dict = {}


def _census(nx, ny):
    if (nx, ny) not in _census_cache:
        _census_cache[(nx, ny)] = census(nx, ny, samples=1000, seed=SEED)
    return _census_cache[(nx, ny)]


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} - {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_or_gate_regression():
    start = time.perf_counter()
    g = named_gate("or:2x2")
    parts = [g.x, g.y, g.z]
    uniform = coinformation_numeric(Distribution.uniform(g.space), parts)
    biased = coinformation_numeric(
        Distribution(g.space, (0.45, 0.05, 0.05, 0.45)), parts
    )
    ideal = coinformation_content(parts)
    uniform_mu = mu_ideal(Distribution.uniform(g.space), ideal)
    elapsed = time.perf_counter() - start
    ok = (
        abs(uniform - (-0.19)) <= 0.005
        and abs(biased - 0.52) <= 0.005
        and abs(uniform_mu - uniform) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        "or-gate co-information regression",
        ok,
        f"uniform={uniform:+.4f}, biased={biased:+.4f}, {elapsed:.3f}s",
    )


def test_criterion_2_measure_matches_entropy_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        sp = OutcomeSpace(n)
        k = int(rng.integers(2, 4))
        parts = [random_partition(rng, sp) for _ in range(k)]
        dist = random_distribution(rng, sp)
        checks = [
            (mu_ideal(dist, content(p)), entropy(dist, p)) for p in parts
        ]
        for a, b in itertools.combinations(range(k), 2):
            checks.append(
                (
                    mu_ideal(dist, coinformation_content([parts[a], parts[b]])),
                    coinformation_numeric(dist, [parts[a], parts[b]]),
                )
            )
        if k == 3:
            checks.append(
                (
                    mu_ideal(dist, coinformation_content(parts)),
                    coinformation_numeric(dist, parts),
                )
            )
        worst = max(worst, max(abs(x - y) for x, y in checks))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        "measure equals entropy oracle on 500 random systems",
        ok,
        f"worst |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_structural_generator_bounds():
    rng = np.random.default_rng(SEED + 1)
    violations = 0

    # (a) pair intersections generated by pairs: exhaustive to n=5
    for n in range(2, 6):
        sp = OutcomeSpace(n)
        parts = list(all_partitions(sp))
        for x, y in itertools.product(parts, parts):
            if any(d != 2 for d in coinformation_content([x, y]).degree_profile()):
                violations += 1
    # ... and 500 random pairs for n = 6..8
    for _ in range(500):
        n = int(rng.integers(6, 9))
        sp = OutcomeSpace(n)
        x, y = random_partition(rng, sp), random_partition(rng, sp)
        if any(d != 2 for d in coinformation_content([x, y]).degree_profile()):
            violations += 1

    # (b) degree bounded by the variable count for 3 and 4 variables
    for m in (3, 4):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            sp = OutcomeSpace(n)
            parts = [random_partition(rng, sp) for _ in range(m)]
            if any(d > m for d in coinformation_content(parts).degree_profile()):
                violations += 1

    # (c) pair-generated contents equal the brute-force scan, exhaustive to n=6
    for n in range(2, 7):
        sp = OutcomeSpace(n)
        for part in all_partitions(sp):
            if content(part).enumerate() != content_bruteforce(part):
                violations += 1

    _report(
        "generator structure at desk scale",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_4_sign_laws_and_limits():
    rng = np.random.default_rng(SEED + 2)
    violations = 0

    # sign of single-generator ideals and of bare atoms: (-1)**degree
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        sp = OutcomeSpace(n)
        dist = random_distribution(rng, sp, floor=0.01)
        d = int(rng.integers(2, n + 1))
        members = rng.choice(n, size=d, replace=False)
        g = int(sum(1 << int(i) for i in members))
        try:
            if single_generator_sign(dist, g) != (-1) ** d:
                violations += 1
        except AssertionError:
            violations += 1
        if (-1.0) ** d * mu_atom(dist, g) <= 0.0:
            violations += 1

    # adding an outcome can only shrink the magnitude
    for _ in range(10_000):
        d = int(rng.integers(3, 7))
        w = list(rng.uniform(0.05, 1.0, size=d - 1))
        tau = float(rng.uniform(0.01, 2.0))
        low = mu_atom(Distribution(OutcomeSpace(d - 1), tuple(w)), (1 << (d - 1)) - 1)
        high = mu_atom(Distribution(OutcomeSpace(d), tuple(w + [tau])), (1 << d) - 1)
        if not abs(high) < abs(low):
            violations += 1

    # vanishing limit: a 1e-9 member weight keeps |mu| under 1e-6
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        w = list(rng.uniform(0.1, 1.0, size=d))
        w[0] = 1e-9
        if abs(mu_atom(Distribution(OutcomeSpace(d), tuple(w)), (1 << d) - 1)) >= 1e-6:
            violations += 1

    # limit at infinity: a 1e6 member weight lands on the atom beneath
    for _ in range(1000):
        d = int(rng.integers(3, 7))
        w = list(rng.uniform(0.1, 1.0, size=d - 1))
        low = mu_atom(Distribution(OutcomeSpace(d - 1), tuple(w)), (1 << (d - 1)) - 1)
        high = mu_atom(Distribution(OutcomeSpace(d), tuple(w + [1e6])), (1 << d) - 1)
        if not abs(abs(high) - abs(low)) < 1e-3:
            violations += 1

    _report("sign laws and limit behaviour", violations == 0, f"violations={violations}")


def test_criterion_5_gate_census_uniqueness():
    start = time.perf_counter()
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
    negatives = []
    problems = []
    for nx, ny in shapes:
        from logdec.gates import expected_class_total

        if sum(c.orbit_size for c in _census(nx, ny)) != expected_class_total(nx, ny):
            problems.append(f"{nx}x{ny}: orbit sizes do not cover every structure")
        for c in _census(nx, ny):
            if c.survey.samples < 1000:
                problems.append(f"{nx}x{ny} {c.table}: survey too small")
            if c.verdict == ALWAYS_NEGATIVE:
                negatives.append(((nx, ny), c))
            nonconstant = len(set(c.table)) > 1
            if (
                nonconstant
                and c.verdict != ALWAYS_NEGATIVE
                and 2 not in c.degree_profile
                and c.verdict != ZERO_COINFORMATION
            ):
                problems.append(f"{nx}x{ny} {c.table}: no pair generator")
    elapsed = time.perf_counter() - start

    ok = len(negatives) == 1 and not problems and elapsed < 600.0
    if negatives:
        (shape, c) = negatives[0]
        xor_ok = (
            shape == (2, 2)
            and c.table == (0, 1, 1, 0)
            and c.parity is not None
            and c.parity.tag == CERTIFIED_ODD
            and dict(c.parity.certificate)
            == {A("123"): 1, A("124"): 1, A("134"): 1, A("234"): 1, A("1234"): -3}
            and c.survey.negative == c.survey.samples
        )
        ok = ok and xor_ok
    _report(
        "gate census: the 2x2 parity gate is the unique always-negative class",
        ok,
        f"negatives={len(negatives)}, problems={len(problems)}, {elapsed:.1f}s",
    )


def test_criterion_6_mixed_gate_witnesses():
    failures = 0
    mixed_total = 0
    for nx, ny in [(2, 2), (3, 2)]:
        for c in _census(nx, ny):
            if c.verdict != "MixedSign":
                continue
            mixed_total += 1
            pos, neg = c.witness_positive, c.witness_negative
            if pos is None or neg is None:
                failures += 1
                continue
            if not mu_ideal(pos.dist, c.ideal) > 1e-8:
                failures += 1
            if not mu_ideal(neg.dist, c.ideal) < -1e-8:
                failures += 1
    _report(
        "both-sign witnesses for every mixed census gate",
        failures == 0 and mixed_total > 0,
        f"mixed classes={mixed_total}, failures={failures}",
    )


def test_criterion_7_ideal_variable_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        sp = OutcomeSpace(n)
        ideal = random_ideal(rng, sp, max_generators=3)
        parts = ideal_to_variables(ideal)
        if coinformation_content(parts) != ideal:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(
        "ideal -> variables -> co-information round trip",
        ok,
        f"failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_8_expression_counting():
    ok = True
    details = []
    for n in (2, 3, 4):
        atoms = enumerate_complex(OutcomeSpace(n))
        explicit = sum(
            1 for r in range(len(atoms) + 1) for _ in itertools.combinations(atoms, r)
        )
        formula = 2 ** (2**n - n - 1)
        details.append(f"n={n}: {explicit}")
        ok = ok and explicit == count_expressions(n) == formula
    ok = ok and count_expressions(5) == 2 ** (2**5 - 5 - 1) == 2**26
    _report("entropy-expression counting", ok, "; ".join(details))
