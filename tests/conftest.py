import numpy as np
import pytest

import crrd
from crrd.measures import MITerm

#: Every valid term shape: B in {1}, {2}, {1,2}; every condition disjoint
#: from B; every side information (or none).
ALL_TERMS = tuple(
    MITerm(b, y, d)
    for b in ((1,), (2,), (1, 2))
    for d in ((), (1,), (2,))
    if not set(d) & set(b)
    for y in (None, 1, 2))


@pytest.fixture(scope="session")
def hamming2():
    return crrd.DistortionMetric.hamming(2)


@pytest.fixture(scope="session")
def erased_full():
    """Binary source with one blind decoder: erasure probs (1, 0.35)."""
    return crrd.build_erased_source(crrd.BinaryErasureSpec(1.0, 0.35))


@pytest.fixture(scope="session")
def erased_half():
    """Binary source with erasure probs (0.5, 0.35)."""
    return crrd.build_erased_source(crrd.BinaryErasureSpec(0.5, 0.35))


def bsc_chain_source(e1: float, e2: float) -> crrd.JointSource:
    """X ~ Ber(1/2), Y1 = BSC(e1)(X), Y2 = BSC(e2)(Y1); chain X - Y1 - Y2."""
    mass = np.zeros((2, 2, 2))
    for x in range(2):
        for y1 in range(2):
            for y2 in range(2):
                p1 = 1 - e1 if y1 == x else e1
                p2 = 1 - e2 if y2 == y1 else e2
                mass[x, y1, y2] = 0.5 * p1 * p2
    return crrd.JointSource(mass)


def random_source(rng: np.random.Generator, nx=2, ny1=2, ny2=2) -> crrd.JointSource:
    return crrd.JointSource(rng.dirichlet(np.ones(nx * ny1 * ny2)).reshape(nx, ny1, ny2))


def random_channel(rng: np.random.Generator, nx=2, m1=2, m2=2) -> crrd.TestChannel:
    cond = np.stack([rng.dirichlet(np.ones(m1 * m2)).reshape(m1, m2)
                     for _ in range(nx)])
    return crrd.TestChannel(cond)
