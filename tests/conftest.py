"""Shared fixtures: seeded RNG and random exchangeable joints; the hypothesis profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from alphanml import CountVector, count_vectors, log_multiplicities

# Tier-1 draws the same hypothesis examples on every run. CI reruns the suite with
# --hypothesis-profile=random and a printed --hypothesis-seed, so a failing draw can be replayed.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def make_exchangeable(rng):
    """Factory for random exchangeable joints over length-n sequences.

    Draws a Dirichlet weight for every type class and spreads it uniformly
    over the class, returning a callable from CountVector to the log of the
    per-sequence probability. Repeated calls draw fresh joints from the
    fixture's seeded generator, so the suite is reproducible.
    """

    def make(n: int, m: int):
        counts = count_vectors(n, m)
        weights = rng.dirichlet(np.ones(counts.shape[0]))
        cells = zip(counts.tolist(), log_multiplicities(counts).tolist(), weights)
        table = {CountVector(tuple(row)): float(np.log(w)) - lm for row, lm, w in cells}

        def joint(cv: CountVector) -> float:
            return table[cv]

        return joint

    return make
