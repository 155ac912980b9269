import numpy as np
import pytest

from logdec import Distribution, Ideal, OutcomeSpace, Partition


def A(labels: str) -> int:
    """Atom mask from digit labels, e.g. A("124") -> bits 0, 1, 3."""
    return sum(1 << (int(ch) - 1) for ch in labels)


def random_partition(rng, space: OutcomeSpace) -> Partition:
    k = int(rng.integers(1, space.n + 1))
    raw = rng.integers(0, k, size=space.n)
    seen = {}
    return Partition(space, [seen.setdefault(int(b), len(seen)) for b in raw])


def random_distribution(rng, space: OutcomeSpace, floor: float = 0.0) -> Distribution:
    w = rng.dirichlet(np.ones(space.n))
    if floor:
        w = (w + floor) / (1.0 + floor * space.n)
    return Distribution(space, tuple(float(x) for x in w))


def integer_distribution(space: OutcomeSpace, weights) -> Distribution:
    """Integer weights, such as a witness's, over their total."""
    total = sum(weights)
    return Distribution(space, [k / total for k in weights])


def random_atom(rng, space: OutcomeSpace, min_degree: int = 2, max_degree: int | None = None) -> int:
    max_degree = max_degree or space.n
    d = int(rng.integers(min_degree, max_degree + 1))
    members = rng.choice(space.n, size=d, replace=False)
    return int(sum(1 << int(i) for i in members))


def random_ideal(rng, space: OutcomeSpace, max_generators: int = 3) -> Ideal:
    k = int(rng.integers(1, max_generators + 1))
    gens = [random_atom(rng, space) for _ in range(k)]
    return Ideal(space, gens)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
