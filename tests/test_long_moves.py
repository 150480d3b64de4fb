"""`LongMoves.row` against a direct per-target implementation.

The reference below recomputes every sign from dominance counts of the
whole generator and scans every point and puncture for emptiness, target by
target, with no per-row or per-point caching.  `LongMoves.row`, read
through `encode` and `decode`, must agree with it entry for entry; Z/2
complexes take these rows mod 2.
"""

from __future__ import annotations

import random
from math import factorial

import pytest

from conftest import BRAIDS, random_grid, random_knot_grid
from gridhfk.chains import Gen, LongMoves, _bigon_targets, oval_generators
from gridhfk.errors import RectangleCornerMissing
from gridhfk.gridkit import SCALE, dominance_count, parse_braid
from gridhfk.ovalgeo import build_config, select_best_config
from gridhfk.simplifier import minimize


def reference_bigon_sign(x: Gen, kind: str, key: int) -> int:
    e = dominance_count(x, x)
    if kind in ("top", "bottom"):  # across vertical oval `key`
        for p in x:
            if p[0] // SCALE < key and p[0] % SCALE == 7:
                e += 1
    else:  # across horizontal oval `key`: all vertical ovals come first
        for p in x:
            if p[0] % SCALE == 7:
                e += 1
            if p[1] // SCALE < key and p[1] % SCALE == 6:
                e += 1
    return -1 if e % 2 else 1


def reference_rect_sign(x: Gen, y: Gen) -> int:
    (a, b), (c, d) = sorted(set(x) - set(y))
    slice_d = [p for p in x if p[1] <= d]
    slice_bd = [p for p in x if b < p[1] <= d]
    below = sum(1 for p in x if a < p[0] <= c and p[1] <= b)
    e = dominance_count(x, tuple(slice_d))
    if below % 2:
        e += dominance_count(x, tuple(slice_bd)) + 1
    return -1 if e % 2 else 1


def reference_row(moves: LongMoves, x: Gen) -> dict[Gen, int]:
    frame = moves.frame
    xs = set(x)
    out: dict[Gen, int] = {}
    for idx, p in enumerate(x):
        for q, kind, key in _bigon_targets(frame, p):
            y = list(x)
            y[idx] = q
            out[tuple(sorted(y))] = reference_bigon_sign(x, kind, key)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            p, q = x[i], x[j]
            if (p[0] - q[0]) * (p[1] - q[1]) <= 0:
                continue
            x1, x2 = p[0], q[0]
            y1, y2 = p[1], q[1]
            if any(x1 < u < x2 and y1 < v < y2 for u, v in frame.punctures):
                continue
            if any(
                x1 < u < x2 and y1 < v < y2 for u, v in xs if (u, v) not in (p, q)
            ):
                continue
            nw, se = (x1, y2), (x2, y1)
            assert nw in moves.id_of and se in moves.id_of
            y = list(x)
            y[i], y[j] = nw, se
            target = tuple(sorted(y))
            out[target] = reference_rect_sign(x, target)
    return out


def decoded_row(moves: LongMoves, x: Gen) -> dict[Gen, int]:
    """`LongMoves.row` of a generator given and returned as point tuples."""
    return {moves.decode(y): c for y, c in moves.row(moves.encode(x)).items()}


def random_generator(config, rng: random.Random) -> Gen:
    """A uniformly random generator of a full-height configuration."""
    cols = config.kept_cols()
    rows = config.kept_rows()
    rng.shuffle(rows)
    points = [rng.choice(config.points[c, r]) for c, r in zip(cols, rows)]
    return tuple(sorted(points))


def test_ids_follow_point_order(rng):
    g = random_knot_grid(rng, 7)
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    assert moves.points == sorted(moves.id_of)
    for _ in range(200):
        x = random_generator(config, rng)
        ids = moves.encode(x)
        assert list(ids) == sorted(ids) and moves.decode(ids) == x


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_generator_of_random_long_configs(n, rng):
    # every grid of size 4 or less is the unknot; the size-5 draws are
    # trefoils
    for _ in range(2):
        g = random_grid(n, rng) if n < 5 else random_knot_grid(rng, 5)
        assert g.n == n
        config = build_config(g, select_best_config(g).omit, "long")
        moves = LongMoves(config)
        rows = 0
        for x, _ in oval_generators(config):
            assert decoded_row(moves, x) == reference_row(moves, x), (g, x)
            rows += 1
        assert rows == 4 ** (n - 1) * factorial(n - 1)


@pytest.mark.parametrize(
    "word, n",
    [(BRAIDS["5_2"], 7), (BRAIDS["8_20"], 8), ([1] * 7, 9)],
    ids=["5_2", "8_20", "7_1"],
)
def test_sampled_generators(word, n):
    g = minimize(parse_braid(word))
    assert g.n == n
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    rng = random.Random(52)
    entries = rectangles = 0
    signs: set[int] = set()
    for _ in range(3000):
        x = random_generator(config, rng)
        row = decoded_row(moves, x)
        assert row == reference_row(moves, x), x
        entries += len(row)
        rectangles += sum(1 for y in row if len(set(x) - set(y)) == 2)
        signs |= set(row.values())
    # both move kinds and both signs are exercised
    assert 0 < rectangles < entries
    assert signs == {-1, 1}


def test_missing_corner_is_a_typed_failure(rng):
    g = random_grid(4, rng)
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    x = next(
        moves.encode(x)
        for x, _ in oval_generators(config)
        if any(len(set(x) - set(y)) == 2 for y in reference_row(moves, x))
    )
    moves.id_of = {}
    with pytest.raises(RectangleCornerMissing):
        moves.row(x)
