"""The signed merge-loss measure on atoms and atom sets, plus Shannon entropy.

mu of an atom is the alternating sum of x*log2(x) over the nonempty
member subsets: the Moebius inversion of the entropy lost when the
atom's outcomes are merged into one event.  Its sign on an atom of
degree d with positive member weights is (-1)**d.  Summed over the full
content of a variable it recovers the Shannon entropy, which this module
also computes directly as the independent oracle.  Ideals are measured
through one integer expansion over subset masses, derived from their
generators (see Bulk evaluation).

Evaluation conventions: base-2 logarithms, double precision, subsets in
ascending bit-pattern order.  Atoms with a zero-weight member measure
exactly 0 (the continuous extension).  The one comparison tolerance is
EQ_TOL = 1e-9: a measure within EQ_TOL of 0 is taken to have no sign
that double precision resolves, so sign surveys count it as zero.  Under
integer weights, exact_sign decides the sign with no tolerance at all.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from typing import TYPE_CHECKING, Iterable

from .core import (
    CapacityError,
    Distribution,
    Partition,
    as_int,
    as_tuple,
    atom_bits,
    first_occurrence_relabel,
    same_space,
)
from .ideals import EXPANSION_WORK_CAP, Ideal, step_meter

if TYPE_CHECKING:
    import numpy as np

EQ_TOL = 1e-9

_TABLE_MAX_N = 20


def mu_atom(dist: Distribution, atom: int) -> float:
    """Measure of one atom under the given weights.

    Normalization is not required.  Raises ValueError on anything that
    is not an atom of the space (OutcomeSpace.check_atom).  Returns
    exactly 0.0 when any member weight is zero.
    """
    w = [dist.weights[i] for i in atom_bits(dist.space.check_atom(atom))]
    d = len(w)
    if any(x == 0.0 for x in w):
        return 0.0
    total = 0.0
    for sub in range(1, 1 << d):
        s = 0.0
        r = 0
        for k in range(d):
            if sub >> k & 1:
                s += w[k]
                r += 1
        term = s * math.log2(s)
        total += term if (d - r) % 2 == 0 else -term
    return total


def mu_set(dist: Distribution, atoms: Iterable[int]) -> float:
    """Sum of mu over the set of the given atoms, each counted once, in
    ascending bit-pattern order; anything that is not an atom of the
    space is a ValueError."""
    atoms = as_tuple(atoms, "mu_set takes a sequence of atoms", dist.space.check_atom)
    return sum((mu_atom(dist, a) for a in sorted(set(atoms))), 0.0)


def entropy(dist: Distribution, part: Partition) -> float:
    """Shannon entropy of a variable in bits; requires a normalized distribution."""
    same_space(dist, part)
    if not dist.normalized:
        raise ValueError("entropy requires a normalized distribution")
    total = 0.0
    for mask in part.block_masks:
        q = dist.mass(mask)
        if q > 0.0:
            total -= q * math.log2(q)
    return total


def merge_loss(dist: Distribution, atom: int) -> float:
    """Entropy lost when the atom's outcomes are merged into one event."""
    space = dist.space
    atom = space.check_atom(atom)
    first = atom_bits(atom)[0]
    merged = Partition(
        space,
        first_occurrence_relabel(first if atom >> i & 1 else i for i in range(space.n)),
    )
    return entropy(dist, Partition.discrete(space)) - entropy(dist, merged)


# ---------------------------------------------------------------------------
# Bulk evaluation.
#
# Over an ideal I the atoms' alternating sums collect into
#     mu(I) = sum over U of c_I(U) * xlog2x(m(U)),  m(U) the weight of U,
#     c_I(U) = sum over T in I with T >= U of (-1)**|T - U|.
# The masks outside I form a down-set D, the union of the boxes below
# its maximal elements M_1..M_k, and c_I = delta_full - c_D.  The
# superset-Moebius transform of one box is the delta at its top, so c_D
# follows box by box by inclusion-exclusion:
#     F += delta_M - (F pushed forward by A -> A & M).
# c_I is thus nonzero only on intersections of maximal non-members (for
# a co-information ideal, blocks of joint partitions), and no 2**n table
# is built: every ideal measure goes through this expansion.  mu_table
# lists every atom (subset masses, x*log2(x), subset Moebius transform)
# and stays capped at 20 outcomes.
# ---------------------------------------------------------------------------


def _numpy():
    """numpy, imported on first use.

    logdec makes no BLAS call, but OpenBLAS starts its thread pool when
    numpy loads, and a second thread costs CPU time, not wall time (a 2x2
    census on 2 cores: 0.13 s of CPU with one, 0.21 s with two).  OpenBLAS
    reads OPENBLAS_NUM_THREADS once, at that load, so it is set to 1 for
    that import alone (unless the user chose a value) and the environment
    is left as it was.
    """
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy

    return numpy


def xlog2x(m: np.ndarray) -> np.ndarray:
    """Elementwise m * log2(m), with 0 * log 0 = 0, in one new array."""
    np = _numpy()
    positive = m > 0.0
    out = np.zeros(m.shape, dtype=np.float64)
    np.log2(m, out=out, where=positive)
    np.multiply(m, out, out=out, where=positive)
    return out


def mu_table(dist: Distribution) -> np.ndarray:
    """mu of every mask under the distribution's weights (indexed by bit
    pattern); 0 at degrees below 2.  Normalization is not required."""
    np = _numpy()
    n = dist.space.n
    if n > _TABLE_MAX_N:
        raise CapacityError(f"the measure table is capped at {_TABLE_MAX_N} outcomes, got {n}")
    w = np.asarray(dist.weights, dtype=np.float64)
    m = np.zeros(1 << n, dtype=np.float64)
    for k in range(n):
        step = 1 << k
        np.add(m[:step], w[k], out=m[step : 2 * step])
    t = xlog2x(m)
    for b in range(n):
        step = 1 << b
        v = t.reshape(-1, 2 * step)
        v[:, step:] -= v[:, :step]
    t[[0] + [1 << k for k in range(n)]] = 0.0
    return t


@functools.lru_cache(maxsize=1)
def _ideal_expansion(ideal: Ideal) -> tuple[tuple[int, int], ...]:
    """The masks U where c_I(U) is nonzero with those integer coefficients,
    ascending by mask.

    Cached, so that a census class (survey and two witnesses) or a
    witness schedule builds its ideal's expansion once.  Raises
    CapacityError once the work, with the Berge pass that finds the
    maximal non-members, passes ideals.EXPANSION_WORK_CAP.
    """
    spend = step_meter("the ideal's expansion")
    f: dict[int, int] = {}
    for top in ideal.maximal_non_members(spend):
        # f += delta_top - (f pushed forward by A -> A & top)
        spend(len(f))
        pushed = {top: -1}
        for a, c in f.items():
            b = a & top
            pushed[b] = pushed.get(b, 0) + c
        spend(len(pushed))
        for b, c in pushed.items():
            left = f.get(b, 0) - c
            if left:
                f[b] = left
            else:
                f.pop(b, None)
    full = ideal.space.full_mask
    coeffs = {u: -c for u, c in f.items()}
    coeffs[full] = coeffs.get(full, 0) + 1
    return tuple(sorted((u, c) for u, c in coeffs.items() if c))


def mu_ideal_batch(weight_rows: np.ndarray, ideal: Ideal) -> np.ndarray:
    """Measure of one ideal under many weight vectors at once.

    Each row's masses are accumulated and summed on its own, so a row's
    value does not depend on its batch; rows go in chunks of at most
    2**20 masses, the size of the largest table.
    """
    np = _numpy()
    n = ideal.space.n
    W = np.asarray(weight_rows, dtype=np.float64).reshape(-1, n)
    expansion = _ideal_expansion(ideal)
    if not expansion:
        return np.zeros(W.shape[0], dtype=np.float64)
    support = np.array([u for u, _ in expansion], dtype=np.int64)
    coeffs = np.array([c for _, c in expansion], dtype=np.int64)
    members = [(support >> i & 1).astype(bool) for i in range(n)]
    chunk = max(1, (1 << _TABLE_MAX_N) // support.size)
    values = []
    for rows in np.split(W, range(chunk, W.shape[0], chunk)):
        m = np.zeros((rows.shape[0], support.size), dtype=np.float64)
        for i, member in enumerate(members):
            m[:, member] += rows[:, i : i + 1]
        values.append((xlog2x(m) * coeffs).sum(axis=1))
    return np.concatenate(values)


def mu_ideal(dist: Distribution, ideal: Ideal) -> float:
    """Measure of an ideal: the sum of mu over its denoted atoms.

    Each mass is Distribution.mass, added in ascending outcome order, and
    the terms are summed with math.fsum.
    """
    same_space(dist, ideal)
    terms = []
    for u, c in _ideal_expansion(ideal):
        m = dist.mass(u)
        if m > 0.0:
            terms.append(c * (m * math.log2(m)))
    return math.fsum(terms)


def exact_sign(ideal: Ideal, weights: Iterable[int]) -> int:
    """Sign of the ideal's measure under nonnegative integer weights, one
    per outcome: -1, 0 or 1, with no rounding.

    With M_U the weight of U, D the total and C = sum c_I(U) M_U,
    D * mu(I) = sum c_I(U) M_U log2 M_U - C log2 D, so the sign compares
    the products of the powers M_U ** (c_I(U) M_U) and D ** -C of each
    exponent sign.  Their estimated bits, sum |exponent| * bit_length(base),
    are checked first: past ideals.EXPANSION_WORK_CAP bits, CapacityError.
    """
    read = functools.partial(as_int, rule="exact weights are integers")
    weights = as_tuple(weights, "exact weights are a sequence of integers", read)
    if len(weights) != ideal.space.n:
        raise ValueError("exact weights need one weight per outcome")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    powers = []
    for u, c in _ideal_expansion(ideal):
        m = sum(w for i, w in enumerate(weights) if u >> i & 1)
        powers.append((m, c * m))
    powers.append((sum(weights), -sum(e for _, e in powers)))
    if sum(abs(e) * m.bit_length() for m, e in powers) > EXPANSION_WORK_CAP:
        raise CapacityError(f"the exact sign would exceed its cap of {EXPANSION_WORK_CAP} bits")
    above = math.prod(m**e for m, e in powers if e > 0)
    below = math.prod(m**-e for m, e in powers if e < 0)
    return (above > below) - (above < below)
