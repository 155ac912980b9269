"""The signed merge-loss measure on atoms and atom sets, plus Shannon entropy.

mu of an atom is the alternating sum of x*log2(x) over the nonempty
member subsets: the Moebius inversion of the entropy lost when the
atom's outcomes are merged into one event.  Its sign on an atom of
degree d with positive member weights is (-1)**d.  Summed over the full
content of a variable it recovers the Shannon entropy, which this module
also computes directly as the independent oracle.

Evaluation conventions: base-2 logarithms, double precision, subsets in
ascending bit-pattern order.  Atoms with a zero-weight member measure
exactly 0 (the continuous extension).  The one comparison tolerance is
EQ_TOL = 1e-9: a measure within EQ_TOL of 0 is taken to have no sign
that double precision resolves, so sign surveys count it as zero and
single_generator_sign refuses to name one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AtomSet,
    CapacityError,
    Distribution,
    Partition,
    atom_bits,
    degree,
    first_occurrence_relabel,
)
from .ideals import Ideal

EQ_TOL = 1e-9

_TABLE_MAX_N = 20


def mu_atom(dist: Distribution, atom: int) -> float:
    """Measure of one atom under the given weights.

    Normalization is not required.  Raises ValueError on atoms of degree
    below 2.  Returns exactly 0.0 when any member weight is zero.
    """
    d = degree(atom)
    if d < 2:
        raise ValueError("the measure is defined on atoms of degree >= 2")
    members = atom_bits(atom)
    w = [dist.weights[i] for i in members]
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


def mu_set(dist: Distribution, atom_set: AtomSet) -> float:
    """Sum of mu over an atom set, in ascending bit-pattern order."""
    return sum(mu_atom(dist, a) for a in sorted(atom_set.atoms))


def entropy(dist: Distribution, part: Partition) -> float:
    """Shannon entropy of a variable in bits; requires a normalized distribution."""
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
    if degree(atom) < 2:
        raise ValueError("merging needs at least two outcomes")
    space = dist.space
    first = atom_bits(atom)[0]
    merged = Partition(
        space,
        first_occurrence_relabel(first if atom >> i & 1 else i for i in range(space.n)),
    )
    return entropy(dist, Partition.discrete(space)) - entropy(dist, merged)


# ---------------------------------------------------------------------------
# Bulk evaluation over the whole subset lattice.
#
# For n <= 20 the measure of every atom is computed at once with two DP
# sweeps over the 2**n masks: subset masses, x*log2(x), then the signed
# Moebius transform, for many weight rows at once; mu_table and mu_ideal
# are its one-row case.  This is what makes ideal measures, surveys and
# witness searches cheap; per-atom values agree with mu_atom to float
# precision and the equivalence is pinned by tests.  Above the cap the
# kernel raises CapacityError before any work.
# ---------------------------------------------------------------------------


def xlog2x(m: np.ndarray) -> np.ndarray:
    """Elementwise m * log2(m), with 0 * log 0 = 0, in one new array."""
    positive = m > 0.0
    out = np.zeros(m.shape, dtype=np.float64)
    np.log2(m, out=out, where=positive)
    np.multiply(m, out, out=out, where=positive)
    return out


def check_table_capacity(n: int) -> None:
    """Raise CapacityError when n outcomes exceed the measure table's cap."""
    if n > _TABLE_MAX_N:
        raise CapacityError(f"the measure table is capped at {_TABLE_MAX_N} outcomes, got {n}")


def _below_degree_two(n: int) -> list[int]:
    """The masks of degree 0 and 1."""
    return [0] + [1 << k for k in range(n)]


def mu_table_batch(weight_rows: np.ndarray) -> np.ndarray:
    """mu of every mask for many weight vectors at once; rows index samples."""
    W = np.asarray(weight_rows, dtype=np.float64)
    s, n = W.shape
    check_table_capacity(n)
    m = np.zeros((s, 1 << n), dtype=np.float64)
    for k in range(n):
        step = 1 << k
        np.add(m[:, :step], W[:, k : k + 1], out=m[:, step : 2 * step])
    t = xlog2x(m)
    for b in range(n):
        step = 1 << b
        v = t.reshape(s, -1, 2 * step)
        v[:, :, step:] -= v[:, :, :step]
    t[:, _below_degree_two(n)] = 0.0
    return t


def mu_table(weights) -> np.ndarray:
    """mu of every mask (indexed by bit pattern); 0 at degrees below 2."""
    return mu_table_batch(np.asarray(weights, dtype=np.float64)[None, :])[0]


def ideal_member_flags(ideal: Ideal) -> np.ndarray:
    """Boolean table over all masks: membership in the ideal, degree >= 2 only."""
    n = ideal.space.n
    flags = np.zeros(1 << n, dtype=bool)
    for g in ideal.generators:
        flags[g] = True
    for b in range(n):
        step = 1 << b
        v = flags.reshape(-1, 2 * step)
        v[:, step:] |= v[:, :step]
    flags[_below_degree_two(n)] = False
    return flags


def mu_ideal_batch(weight_rows: np.ndarray, ideal: Ideal) -> np.ndarray:
    """Measure of one ideal under many weight vectors at once.

    Each row is summed on its own, so a row's value does not depend on
    the rows batched with it.
    """
    W = np.asarray(weight_rows, dtype=np.float64)
    if ideal.is_empty:
        return np.zeros(W.shape[0], dtype=np.float64)
    flags = ideal_member_flags(ideal)
    return np.array([row[flags].sum() for row in mu_table_batch(W)], dtype=np.float64)


def mu_ideal(dist: Distribution, ideal: Ideal) -> float:
    """Measure of an ideal: the sum of mu over its denoted atoms."""
    if ideal.is_empty:
        return 0.0
    if dist.space != ideal.space:
        raise ValueError("distribution and ideal live on different spaces")
    return float(mu_ideal_batch([dist.weights], ideal)[0])
