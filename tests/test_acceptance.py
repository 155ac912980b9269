"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances and sample counts are pinned here and are not calibration knobs.
"""

import functools
import itertools
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np

from logdec import (
    Distribution,
    Ideal,
    OutcomeSpace,
    build_gate,
    canonical_classes,
    census,
    classify_parity,
    coinformation_content,
    coinformation_numeric,
    content,
    content_bruteforce,
    count_expressions,
    entropy,
    enumerate_complex,
    exact_sign,
    ideal_to_variables,
    mu_atom,
    mu_ideal,
    named_gate,
    witness_distributions,
)
from logdec.commands import _witness_measure, parse_system
from logdec.core import common_coarsening, common_refinement
from logdec.gates import ALWAYS_NEGATIVE, ZERO_COINFORMATION
from logdec.parity import CERTIFIED_ODD, STRONGLY_MIXED, UNDETERMINED

from conftest import (
    A,
    all_partitions,
    bell_number,
    integer_distribution,
    random_distribution,
    random_ideal,
    random_partition,
)

SEED = 987654321

_census_cache: dict = {}


def _census(nx, ny):
    if (nx, ny) not in _census_cache:
        _census_cache[(nx, ny)] = list(census(nx, ny, samples=1000, seed=SEED))
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

    # sign of single-generator ideals, exactly at integer weights, and of
    # bare atoms: (-1)**degree
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        sp = OutcomeSpace(n)
        dist = random_distribution(rng, sp, floor=0.01)
        d = int(rng.integers(2, n + 1))
        members = rng.choice(n, size=d, replace=False)
        g = int(sum(1 << int(i) for i in members))
        if exact_sign(Ideal(sp, [g]), rng.integers(1, 21, size=n)) != (-1) ** d:
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
        if sum(c.orbit_size for c in _census(nx, ny)) != bell_number(nx * ny):
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
                and 2 not in c.ideal.degree_profile()
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
    # Every witness is integer weights under which exact_sign gives the
    # ideal's measure the witness's sign; the float measure at those
    # weights over their total has that sign, and the entropy route
    # matches it.  Every positive witness is the pair construction of
    # test_criterion_5_xor_uniqueness_is_exact: K = 2, 4, ..., 32 on the
    # two cells of a degree-2 generator and 1 elsewhere.
    failures = 0
    mixed_total = 0
    ks: dict[int, int] = {}
    for nx, ny in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for c in _census(nx, ny):
            if c.verdict != "MixedSign":
                continue
            mixed_total += 1
            pos, neg = c.witness_positive, c.witness_negative
            if pos is None or neg is None:
                failures += 1
                continue
            gate = build_gate(nx, ny, c.table)
            for side, w in ((1, pos), (-1, neg)):
                dist = integer_distribution(c.ideal.space, w)
                mu = mu_ideal(dist, c.ideal)
                if exact_sign(c.ideal, w) != side or not side * mu > 0:
                    failures += 1
                if abs(coinformation_numeric(dist, [gate.x, gate.y, gate.z]) - mu) > 1e-9:
                    failures += 1
            k = max(pos)
            pair = sum(1 << i for i, x in enumerate(pos) if x == k)
            if set(pos) != {1, k} or k not in (2, 4, 8, 16, 32) or pair.bit_count() != 2:
                failures += 1
            elif pair not in c.ideal.generators:
                failures += 1
            ks[k] = ks.get(k, 0) + 1
    _report(
        "both-sign witnesses for every mixed census gate",
        failures == 0 and mixed_total > 0,
        f"mixed classes={mixed_total}, failures={failures}, positive K counts {sorted(ks.items())}",
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


def _golden_systems(*names):
    golden = Path(__file__).resolve().parent / "golden"
    return {name: parse_system((golden / f"system-{name}.json").read_text()) for name in names}


def _joins(parts) -> list:
    """The common refinements of every nonempty family of `parts`, by
    family size: X, Y, Z, XY, XZ, YZ, XYZ for three variables."""
    return [
        functools.reduce(common_refinement, family)
        for r in range(1, len(parts) + 1)
        for family in itertools.combinations(parts, r)
    ]


def _joint_entropies(system) -> list[float]:
    return [entropy(system.dist, join) for join in _joins(list(system.variables.values()))]


def _same_imeasure(system, joint_bits) -> bool:
    """The seven joint entropies of X, Y, Z are joint_bits and the
    co-information is 0, so the whole I-measure is fixed."""
    coinfo = coinformation_numeric(system.dist, list(system.variables.values()))
    return np.allclose(_joint_entropies(system), joint_bits, rtol=0, atol=1e-12) and abs(coinfo) < 1e-12


def test_criterion_9_systems_the_imeasure_cannot_tell_apart():
    # James and Crutchfield (2017), "Multivariate dependence beyond Shannon
    # information": the dyadic and triadic systems on 8 equally likely
    # outcomes have the same seven joint entropies, hence the same
    # I-measure, yet their co-information ideals differ.
    systems = _golden_systems("dyadic", "triadic")
    details = []
    ok = True
    for system in systems.values():
        ok = ok and _same_imeasure(system, [2, 2, 2, 3, 3, 3, 3])
    dyadic = coinformation_content(list(systems["dyadic"].variables.values()))
    ok = ok and dyadic.degree_profile() == (2,) * 16
    ok = ok and classify_parity(dyadic).tag == UNDETERMINED
    triadic_parts = list(systems["triadic"].variables.values())
    triadic = coinformation_content(triadic_parts)
    ok = ok and triadic.degree_profile() == (2,) * 16 + (3,) * 8
    ok = ok and classify_parity(triadic).tag == STRONGLY_MIXED
    details.append(f"dyadic {dyadic.degree_profile().count(2)} pairs")
    for w, expected in zip(witness_distributions(triadic), (0.068996, -0.019174)):
        dist = integer_distribution(triadic.space, w)
        mu = mu_ideal(dist, triadic)
        ok = ok and abs(mu - expected) < 1e-6
        ok = ok and abs(coinformation_numeric(dist, triadic_parts) - mu) < 1e-9
        details.append(f"triadic witness mu={mu:+.6f}")
    _report("one I-measure, two co-information ideals", ok, "; ".join(details))


def test_criterion_9_on_four_outcomes():
    # The smallest such pair: X = {12|34} and Y = {13|2|4} on 4 equally
    # likely outcomes, with Z = {1|23|4} (mixed) or Z = {1|24|3} (even).
    systems = _golden_systems("4-mixed", "4-even")
    ok = all(_same_imeasure(system, [1, 1.5, 1.5, 2, 2, 2, 2]) for system in systems.values())
    ideals = {name: coinformation_content(list(s.variables.values())) for name, s in systems.items()}
    ok = ok and set(ideals["4-mixed"].generators) == {A("14"), A("24"), A("123")}
    ok = ok and classify_parity(ideals["4-mixed"]).tag == STRONGLY_MIXED
    ok = ok and set(ideals["4-even"].generators) == {A("14"), A("23")}
    ok = ok and classify_parity(ideals["4-even"]).tag == UNDETERMINED
    _report("one I-measure, two co-information ideals on 4 outcomes", ok, f"{ideals}")


def _split_classes(n: int) -> tuple[int, dict]:
    """Every triple (X, Y, Z) of partitions of n equally likely outcomes,
    X up to relabelling (one per block-size multiset), keyed on its seven
    joint entropies made exact: the product of b**b over a join's block
    sizes b.  Returns the triple count and, per key, the set of generator
    parities of its co-information ideals."""
    parts = list(all_partitions(OutcomeSpace(n)))
    xs = {tuple(sorted(len(b) for b in p.blocks())): p for p in parts}
    keys: dict = {}
    for x, y, z in itertools.product(xs.values(), parts, parts):
        key = tuple(math.prod(len(b) ** len(b) for b in j.blocks()) for j in _joins([x, y, z]))
        parities = frozenset(coinformation_content([x, y, z]).generator_parities())
        keys.setdefault(key, set()).add(parities)
    return len(xs) * len(parts) ** 2, keys


def test_criterion_9_split_entropy_classes_up_to_five_outcomes():
    # Equal keys mean the whole I-measure agrees.  A key is split when its
    # systems' co-information ideals differ in generator parity: 4 of 263
    # keys at n = 4 and 77 of 1488 at n = 5, each holding exactly one
    # pure-even and one mixed parity set.
    start = time.perf_counter()
    counts = {}
    ok = True
    for n in (4, 5):
        systems, keys = _split_classes(n)
        split = [parities for parities in keys.values() if len(parities) > 1]
        counts[n] = (systems, len(keys), len(split))
        ok = ok and all(parities == {frozenset({0}), frozenset({0, 1})} for parities in split)
    elapsed = time.perf_counter() - start
    ok = ok and counts == {4: (1125, 263, 4), 5: (18928, 1488, 77)}
    _report("I-measure classes split by parity on 4 and 5 outcomes", ok, f"{counts}, {elapsed:.1f}s")


def test_criterion_9_parity_does_not_fix_the_sign_on_five_outcomes():
    # Two systems on 5 equally likely outcomes with the same seven joint
    # entropies, so the same I-measure and the same negative
    # co-information.  The mixed one is XOR on a-d with e alone.  The even
    # one's ideal has only pair generators, yet its measure is negative at
    # the uniform weights and positive at its witness: parity alone is no
    # sign certificate.
    systems = _golden_systems("5-even", "5-mixed")
    ok = np.allclose(*map(_joint_entropies, systems.values()), rtol=0, atol=1e-12)
    ideals = {name: coinformation_content(list(s.variables.values())) for name, s in systems.items()}
    even, mixed = ideals["5-even"], ideals["5-mixed"]
    ok = ok and set(even.generators) == {A("23"), A("14"), A("15"), A("45")}
    ok = ok and even.generator_parities() == {0} and classify_parity(even).tag == UNDETERMINED
    ok = ok and set(mixed.generators) == {
        A(g) for g in ("15", "25", "35", "45", "123", "124", "134", "234")
    }
    ok = ok and classify_parity(mixed).tag == STRONGLY_MIXED
    details = []
    for name, system in systems.items():
        parts = list(system.variables.values())
        sizes = [[len(b) for b in join.blocks()] for join in _joins(parts)]
        with mpmath.workdps(60):
            # I(X;Y;Z) from the entropies of X, Y, Z, XY, XZ, YZ, XYZ, each
            # log2 5 - sum of b log2 b / 5 over its block sizes b
            exact = mpmath.fsum(
                sign * (mpmath.log(5, 2) - mpmath.fsum(b * mpmath.log(b, 2) for b in join) / 5)
                for sign, join in zip((1, 1, 1, -1, -1, -1, 1), sizes)
            )
        coinfo = coinformation_numeric(system.dist, parts)
        ok = ok and abs(coinfo - exact) < 1e-12 and abs(coinfo + 0.0780719051126) < 1e-12
        details.append(f"{name}: {ideals[name]} co-information {coinfo:+.12f}")
    positive, negative = witness_distributions(even)
    ok = ok and exact_sign(even, (1,) * 5) == -1
    ok = ok and positive == (1, 4, 4, 1, 1) and negative is None and exact_sign(even, positive) == 1
    _report("a pure-even ideal of both signs on 5 outcomes", ok, "; ".join(details))


def _superset_moebius(ideal) -> list[int]:
    """c(U) = sum over members T >= U of (-1)**|T - U|, from the membership
    table of every mask, one outcome bit at a time."""
    n = ideal.space.n
    c = [0] * (1 << n)
    for t in ideal.enumerate():
        c[t] = 1
    for b in range(n):
        for u in range(1 << n):
            if not u >> b & 1:
                c[u] -= c[u | 1 << b]
    return c


def _exact_sign(c: list[int], masses: list[int]) -> tuple[int, int]:
    """Sign of mu under the weights k / D, given the integer mass k_U of every
    mask U (so D is the full mask's), and the larger compared integer's bit
    length.

    D * mu = sum c_U k_U log2 k_U - T log2 D with T = sum c_U k_U, so the
    sign compares two integers: the product of k_U ** (c_U k_U) over
    c_U > 0 times D ** max(0, -T) against the product of k_U ** (-c_U k_U)
    over c_U < 0 times D ** max(0, T).
    """
    total = masses[-1]
    t = sum(cu * m for cu, m in zip(c, masses))
    above, below = total ** max(0, -t), total ** max(0, t)
    for cu, m in zip(c, masses):
        if cu > 0:
            above *= m ** (cu * m)
        elif cu < 0:
            below *= m ** (-cu * m)
    return (above > below) - (above < below), max(above, below).bit_length()


def test_criterion_9_triadic_witness_signs_are_exact():
    # The triadic witnesses of criterion 9 at their integer weights: 2 on
    # the cells of a pair generator or of a triple and 1 elsewhere.  The
    # sign is decided by comparing integers, with coefficients from a
    # superset-Moebius pass over the membership table, independent of the
    # measure's expansion; exact_sign, mu_ideal, the measure that `witness`
    # reports and a 60-digit evaluation of the same sum agree with it.
    golden = Path(__file__).resolve().parent / "golden"
    system = parse_system((golden / "system-triadic.json").read_text())
    ideal = coinformation_content(list(system.variables.values()))
    space = ideal.space
    coeffs = _superset_moebius(ideal)
    ok = True
    details = []
    witnesses = witness_distributions(ideal)
    for k, expected_sign, expected_mu in zip(witnesses, (1, -1), (0.068996, -0.019174)):
        masses = [sum(x for i, x in enumerate(k) if u >> i & 1) for u in range(1 << space.n)]
        sign, bits = _exact_sign(coeffs, masses)
        total = masses[-1]
        value = mu_ideal(Distribution(space, [x / total for x in k]), ideal)
        with mpmath.workdps(60):
            t = sum(cu * m for cu, m in zip(coeffs, masses))
            scaled = mpmath.fsum(cu * m * mpmath.log(m, 2) for cu, m in zip(coeffs, masses) if m)
            exact = (scaled - t * mpmath.log(total, 2)) / total
        ok = ok and sign == expected_sign == exact_sign(ideal, k)
        ok = ok and value == _witness_measure(ideal, k)[1] and abs(value - expected_mu) < 1e-6
        ok = ok and abs(mpmath.mpf(value) - exact) < 1e-12
        details.append(f"weights {k}: sign {sign:+d} ({bits} bits)")
    _report("exact signs of the triadic witnesses", ok, "; ".join(details))


def _pair_witness(nx, ny, table):
    """The pair lemma on one gate: None when no two cells differ in row,
    column and output.  Otherwise (ideal, weights, problem): the gate's
    co-information ideal and, for the first such pair, weight K on its
    cells and 1 elsewhere at the first K = 2, 4, ..., 32 of exact sign +1,
    or a problem when the pair is no generator or no such K exists."""
    n = nx * ny
    pair = next(
        (
            (a, b)
            for a, b in itertools.combinations(range(n), 2)
            if a // ny != b // ny and a % ny != b % ny and table[a] != table[b]
        ),
        None,
    )
    if pair is None:
        return None
    gate = build_gate(nx, ny, table)
    ideal = coinformation_content([gate.x, gate.y, gate.z])
    mask = 1 << pair[0] | 1 << pair[1]
    if mask not in ideal.generators:
        return ideal, None, f"{pair} is no generator"
    for k in (2, 4, 8, 16, 32):
        weights = [k if mask >> i & 1 else 1 for i in range(n)]
        if exact_sign(ideal, weights) == 1:
            return ideal, weights, None
    return ideal, None, "not positive by K = 32"


def test_criterion_5_xor_uniqueness_is_exact():
    # The census proof with no survey.  Two cells that differ in row,
    # column and output split X, Y and Z, so their pair is a degree-2
    # generator of the co-information ideal, and weight K on its cells and
    # 1 elsewhere makes the measure positive once K is large: no such class
    # is always negative.  The constants and the 2x2 XOR are the only
    # classes without such a pair.  Each sign is decided exactly and
    # checked against the superset-Moebius oracle.
    start = time.perf_counter()
    no_pair, problems, largest_k, proved = [], [], 0, 0
    for nx, ny in ((2, 2), (2, 3), (3, 3)):
        for table, _ in canonical_classes(nx, ny):
            found = _pair_witness(nx, ny, table)
            if found is None:
                no_pair.append(table)
                continue
            ideal, weights, problem = found
            if problem:
                problems.append(f"{nx}x{ny} {table}: {problem}")
                continue
            k = max(weights)
            largest_k, proved = max(largest_k, k), proved + 1
            masses = [
                sum(w for i, w in enumerate(weights) if u >> i & 1) for u in range(1 << nx * ny)
            ]
            if _exact_sign(_superset_moebius(ideal), masses)[0] != 1:
                problems.append(f"{nx}x{ny} {table}: the oracle disagrees at K = {k}")
    elapsed = time.perf_counter() - start
    constants = [(0,) * 4, (0,) * 6, (0,) * 9]
    ok = sorted(no_pair) == sorted(constants + [(0, 1, 1, 0)]) and not problems
    _report(
        "exact census: only the constants and the 2x2 XOR lack a positive pair",
        ok,
        f"{proved} proved, largest K {largest_k}, no pair {no_pair}, "
        f"problems {problems[:3]}, {elapsed:.1f}s",
    )


def _coinformation_60_digits(ny, table, weights) -> mpmath.mpf:
    """I(X;Y;Z) of a gate at integer cell weights over their total, as the
    alternating sum of the seven joint entropies at 60 digits."""
    labels = [(c // ny, c % ny, z) for c, z in enumerate(table)]
    with mpmath.workdps(60):
        total = mpmath.mpf(sum(weights))

        def h(keys):
            mass: dict = {}
            for label, w in zip(labels, weights):
                key = tuple(label[i] for i in keys)
                mass[key] = mass.get(key, 0) + w
            return -mpmath.fsum(m / total * mpmath.log(m / total, 2) for m in mass.values())

        return mpmath.fsum(
            (-1) ** (len(keys) + 1) * h(keys)
            for r in (1, 2, 3)
            for keys in itertools.combinations(range(3), r)
        )


def test_criterion_5_pair_witnesses_on_random_gates():
    # The pair lemma of test_criterion_5_xor_uniqueness_is_exact beyond the
    # census: on 300 nonconstant gates from random.Random(0) (2-6 rows, at
    # most 24 cells, 2-6 output values), a pair of cells that differ in
    # row, column and output exists, its mask generates the co-information
    # ideal, weight K on it and 1 elsewhere is exactly positive by K = 32,
    # and a 60-digit entropy sum agrees.
    start = time.perf_counter()
    rnd = random.Random(0)
    gates, problems, largest_k, smallest = 0, [], 0, mpmath.inf
    while gates < 300:
        nx = rnd.randint(2, 6)
        ny = rnd.randint(2, 24 // nx)
        values = rnd.randint(2, 6)
        table = [rnd.randrange(values) for _ in range(nx * ny)]
        if len(set(table)) < 2:
            continue
        gates += 1
        found = _pair_witness(nx, ny, table)
        problem = "no pair" if found is None else found[2]
        if problem:
            problems.append(f"{nx}x{ny} {table}: {problem}")
            continue
        weights = found[1]
        k = max(weights)
        largest_k = max(largest_k, k)
        value = _coinformation_60_digits(ny, table, weights)
        smallest = min(smallest, value)
        if not value > 0:
            problems.append(f"{nx}x{ny} {table}: 60-digit co-information {value} at K = {k}")
    elapsed = time.perf_counter() - start
    _report(
        "exact positive pair witnesses on random gates up to 24 cells",
        not problems and elapsed < 30.0,
        f"{gates} gates, largest K {largest_k}, smallest co-information "
        f"{mpmath.nstr(smallest, 3)} bits, problems {problems[:3]}, {elapsed:.1f}s",
    )


def _atom_bitset(ideal) -> int:
    """The ideal's atoms as one integer: bit m is set when atom m is a member."""
    return sum(1 << a for a in ideal.enumerate())


def _partition_lattice(parts) -> list:
    """The partitions that `parts` generate under common refinement and
    common coarsening."""
    closed, fresh = set(parts), list(parts)
    while fresh:
        a = fresh.pop()
        for b in list(closed):
            for c in (common_refinement(a, b), common_coarsening(a, b)):
                if c not in closed:
                    closed.add(c)
                    fresh.append(c)
    return sorted(closed, key=lambda p: p.block_of)


def _region_certificate(parts):
    """At most two disjoint regions R(A, B | C) = content(A) & content(B)
    minus content(C), with A, B and C from the lattice of `parts` and C
    also trivial (None, no content), whose union is the co-information
    ideal's atom set; None when there are none."""
    target = _atom_bitset(coinformation_content(parts))
    lattice = _partition_lattice(parts)
    contents = {p: _atom_bitset(content(p)) for p in lattice}
    contents[None] = 0
    regions: dict = {}
    for a, b in itertools.combinations_with_replacement(lattice, 2):
        for c in [None, *lattice]:
            region = contents[a] & contents[b] & ~contents[c]
            if region and region & ~target == 0:
                regions.setdefault(region, (a, b, c))
    if target in regions:
        return [regions[target]]
    for region, abc in regions.items():
        if target & ~region in regions:
            return [abc, regions[target & ~region]]
    return None


def _conditional_mutual_information(dist, a, b, c) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) from entropies of common
    refinements; a trivial C (None) has H(C) = 0."""

    def h(*parts):
        parts = [p for p in parts if p is not None]
        return entropy(dist, functools.reduce(common_refinement, parts)) if parts else 0.0

    return h(a, c) + h(b, c) - h(a, b, c) - h(c)


def test_criterion_5_pure_even_classes_have_region_certificates():
    # Yeung's set-region argument (1991) carried over to atom sets: each
    # region R(A, B | C) has measure I(A;B|C) >= 0, so an ideal that is a
    # disjoint union of regions is nonnegative everywhere.  Every pure-even
    # census class is one region or two, by atom-set identity; the
    # regions' I(A;B|C), from entropies alone, sum to mu of the ideal at
    # seeded Dirichlet weights.  The dyadic and 4-outcome even systems of
    # criterion 9 get certificates, their mixed partners none.
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    counts, worst = {}, 0.0
    cases = []
    for nx, ny in ((2, 2), (2, 3), (3, 3)):
        for table, _ in canonical_classes(nx, ny):
            gate = build_gate(nx, ny, table)
            cases.append((f"{nx}x{ny}", [gate.x, gate.y, gate.z]))
    golden = _golden_systems("dyadic", "4-even", "triadic", "4-mixed")
    cases += [(name, list(s.variables.values())) for name, s in golden.items()]
    for name, parts in cases:
        ideal = coinformation_content(parts)
        if name not in golden and ideal.generator_parities() != {0}:
            continue
        certificate = _region_certificate(parts)
        size = len(certificate) if certificate else 0
        counts[name, size] = counts.get((name, size), 0) + 1
        for _ in range(3 if certificate else 0):
            w = rng.dirichlet(np.ones(ideal.space.n))
            dist = Distribution(ideal.space, tuple(float(x) for x in w))
            total = sum(_conditional_mutual_information(dist, *r) for r in certificate)
            worst = max(worst, abs(total - mu_ideal(dist, ideal)))
    elapsed = time.perf_counter() - start
    expected = {
        ("2x2", 1): 5, ("2x3", 1): 14, ("3x3", 1): 57, ("3x3", 2): 12,
        ("dyadic", 2): 1, ("4-even", 1): 1, ("triadic", 0): 1, ("4-mixed", 0): 1,
    }
    ok = counts == expected and worst <= 1e-12
    _report(
        "region certificates for every pure-even census class and the even golden systems",
        ok,
        f"{sorted(counts.items())}, worst entropy-route gap {worst:.1e}, {elapsed:.1f}s",
    )
