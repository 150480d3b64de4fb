from __future__ import annotations

import random

import pytest

from gridhfk.errors import MultiComponentClosure
from gridhfk.gridkit import (
    GridDiagram,
    LaurentPoly,
    alexander_polynomial,
    component_count,
    parse_braid,
)
from gridhfk.simplifier import minimize

# Braid words for the knots used as fixtures, verified against the Alexander
# polynomial oracle in test_gridkit (and pinned there with the literature
# values).
BRAIDS = {
    "unknot": [1],
    "trefoil": [1, 1, 1],
    "figure8": [1, -2, 1, -2],
    "5_2": [1, 1, 1, 2, -1, 2],
    "8_19": [1, 2, 1, 2, 1, 2, 1, 2],
    "8_20": [1, 1, 1, -2, -1, -1, -1, -2],
    "8_21": [1, 1, 1, 2, -1, -1, 2, 2],
}


def random_grid(n: int, rng: random.Random) -> GridDiagram:
    """A uniformly sampled valid one-component grid diagram of size ``n``."""
    rows = list(range(n))
    while True:
        xs = rows[:]
        os = rows[:]
        rng.shuffle(xs)
        rng.shuffle(os)
        if any(x == o for x, o in zip(xs, os)):
            continue
        g = GridDiagram(tuple(xs), tuple(os))
        if component_count(g) == 1:
            return g


def random_knot_grid(rng: random.Random, max_n: int) -> GridDiagram:
    """A nontrivial knot of grid size at most ``max_n``.

    `random_grid` almost always draws the unknot; this is the minimized
    closure of a random 3-strand braid word, drawn again until the closure
    is one component, fits and has Alexander polynomial other than 1.
    Every grid of size 4 or less is the unknot, so ``max_n`` is at least 5.
    """
    while True:
        word = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(3, 9))]
        try:
            g = minimize(parse_braid(word))
        except MultiComponentClosure:
            continue
        if g.n <= max_n and alexander_polynomial(g) != LaurentPoly.one():
            return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260815)
