from __future__ import annotations

import random

import pytest

from references import plus_generator

from gridhfk.domains_paths import PathEngine
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


def stabilize(g: GridDiagram, r0: int, ci: int, kind: str = "XO") -> GridDiagram:
    """Split row ``r0`` into two rows and insert a fresh column at position ``ci``.

    ``kind`` chooses the markings of the fresh column bottom-to-top: ``"XO"``
    puts X at the lower new row (the old row's X moves to the upper one),
    ``"OX"`` the reverse.  Every insertion position yields the same knot; the
    new column is a destabilization site, inverting the move.
    """
    n = g.n
    if not 0 <= r0 < n:
        raise ValueError(f"row {r0} out of range")
    if not 0 <= ci <= n:
        raise ValueError(f"insertion position {ci} out of range")
    if kind not in ("XO", "OX"):
        raise ValueError(f"unknown stabilization kind {kind!r}")
    xs = []
    os = []
    for c in range(n):
        x = g.xs[c]
        o = g.os[c]
        if x > r0 or (x == r0 and kind == "XO"):
            x += 1
        if o > r0 or (o == r0 and kind == "OX"):
            o += 1
        xs.append(x)
        os.append(o)
    if kind == "XO":
        xs.insert(ci, r0)
        os.insert(ci, r0 + 1)
    else:
        xs.insert(ci, r0 + 1)
        os.insert(ci, r0)
    return GridDiagram(tuple(xs), tuple(os))


def cyclic_row_shift(g: GridDiagram, k: int = 1) -> GridDiagram:
    """Move every marking up by ``k`` rows around the torus."""
    n = g.n
    k %= n
    return GridDiagram(
        tuple((r + k) % n for r in g.xs),
        tuple((r + k) % n for r in g.os),
    )


def cyclic_col_shift(g: GridDiagram, k: int = 1) -> GridDiagram:
    """Move every marking right by ``k`` columns around the torus."""
    n = g.n
    k %= n
    return GridDiagram(
        tuple(g.xs[(c - k) % n] for c in range(n)),
        tuple(g.os[(c - k) % n] for c in range(n)),
    )


def format_grid_text(g: GridDiagram) -> str:
    """A grid in the three-line format `gridkit.parse_grid_text` reads."""
    return f"{g.n}\nX: {' '.join(map(str, g.xs))}\nO: {' '.join(map(str, g.os))}\n"


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
        if g.n <= max_n and alexander_polynomial(g) != LaurentPoly({0: 1}):
            return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260815)


@pytest.fixture
def unmirrored_bottom_slice(monkeypatch):
    """Adds a free generator to the path engine's lowest Alexander slice.

    The genus scan from the bottom then stops at a slice that cannot mirror
    the top one: either it lies below the mirror position, or it has one
    rank more than the top slice there.
    """
    short_complex = PathEngine.short_complex

    def patched(self, ring="Z", keep_a2=None):
        cx = short_complex(self, ring, keep_a2)
        lowest = min(self.short_cfg.slice_sizes)
        if keep_a2 is not None and lowest in keep_a2:
            cx = plus_generator(cx, (), lowest, 0)
        return cx

    monkeypatch.setattr(PathEngine, "short_complex", patched)
