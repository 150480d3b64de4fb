"""`LongMoves.rows` against a direct per-target implementation.

The reference below recomputes every sign from dominance counts of the
whole generator and scans every point and puncture for emptiness, target by
target, with no per-row or per-point caching.  The batched rows of
`LongMoves.rows`, read through `encode` and `references.decode`, must
agree with it entry for entry and in the same order; Z/2 complexes take
these rows mod 2.
"""

from __future__ import annotations

import random
from math import factorial

import numpy as np
import pytest

from conftest import BRAIDS, random_grid, random_knot_grid
from references import decode, dominance_count
from gridhfk.chains import Gen, LongMoves, oval_generators
from gridhfk.errors import FlipTargetMissing, GridTooLarge, RectangleCornerMissing
from gridhfk.gridkit import SCALE, Point, parse_braid
from gridhfk.ovalgeo import build_config, select_best_config
from gridhfk.simplifier import minimize


def reference_flips(config, p: Point) -> list[tuple[Point, str, int]]:
    """The cap flips of the point ``p``, each ``(new point, which oval it
    crosses, that oval's column or row)``, across its vertical oval first.

    From the first (left, lower) wall a point flips across the far cap, from
    the second across the near one; any puncture inside the swept part of
    the oval blocks the flip.
    """
    px, py = p
    c, r = px // SCALE, py // SCALE
    vo, ho = config.v_ovals[c], config.h_ovals[r]
    punctures = config.grid.punctures()
    out = []
    lo, hi, q = (py, vo.y2, (vo.x2, py)) if px == vo.x1 else (vo.y1, py, (vo.x1, py))
    if not any(vo.x1 < u < vo.x2 and lo < v < hi for u, v in punctures):
        out.append((q, "vertical", c))
    lo, hi, q = (px, ho.x2, (px, ho.y2)) if py == ho.y1 else (ho.x1, px, (px, ho.y1))
    if not any(lo < u < hi and ho.y1 < v < ho.y2 for u, v in punctures):
        out.append((q, "horizontal", r))
    return out


def reference_bigon_sign(x: Gen, kind: str, key: int) -> int:
    e = dominance_count(x, x)
    if kind == "vertical":  # across vertical oval `key`
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
    config = moves.config
    punctures = config.grid.punctures()
    xs = set(x)
    out: dict[Gen, int] = {}
    for idx, p in enumerate(x):
        for q, kind, key in reference_flips(config, p):
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
            if any(x1 < u < x2 and y1 < v < y2 for u, v in punctures):
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


def decoded_rows(moves: LongMoves, gens: list[Gen]) -> list[list[tuple[Gen, int]]]:
    """`LongMoves.rows` of some generators, one batch, as ordered point-tuple entries."""
    owner, target, sign = moves.rows(moves.encode(gens))
    assert (np.diff(owner) >= 0).all()  # grouped by owner, in order
    rows: list[list[tuple[Gen, int]]] = [[] for _ in gens]
    for o, y, c in zip(owner.tolist(), target.tolist(), sign.tolist()):
        rows[o].append((decode(moves, y), c))
    return rows


def assert_rows_match(moves: LongMoves, gens: list[Gen]) -> list[list]:
    rows = decoded_rows(moves, gens)
    for x, row in zip(gens, rows):
        assert row == list(reference_row(moves, x).items()), x
    return rows


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
        ids = moves.encode([x])[0].tolist()
        assert ids == sorted(ids) and decode(moves, ids) == x


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_generator_of_random_long_configs(n, rng):
    # every grid of size 4 or less is the unknot; the size-5 draws are
    # trefoils
    for _ in range(2):
        g = random_grid(n, rng) if n < 5 else random_knot_grid(rng, 5)
        assert g.n == n
        config = build_config(g, select_best_config(g).omit, "long")
        moves = LongMoves(config)
        gens = [x for x, _ in oval_generators(config)]
        assert_rows_match(moves, gens)
        assert len(gens) == 4 ** (n - 1) * factorial(n - 1)


def test_sampled_generators_of_random_size_six_configs(rng):
    for _ in range(2):
        g = random_knot_grid(rng, 6)
        config = build_config(g, select_best_config(g).omit, "long")
        moves = LongMoves(config)
        assert_rows_match(moves, [random_generator(config, rng) for _ in range(500)])


def test_packed_keys_sort_like_point_tuples(rng):
    g = random_knot_grid(rng, 6)
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    gens = sorted({random_generator(config, rng) for _ in range(2000)})
    ids = moves.encode(gens)
    keys = moves.pack(ids)
    assert (np.diff(keys) > 0).all()
    assert (moves.unpack(keys) == ids).all()


@pytest.mark.parametrize(
    "word, n",
    [(word, None) for word in BRAIDS.values()] + [([1] * 7, 9)],
    ids=[*BRAIDS, "7_1"],
)
def test_sampled_generators(word, n):
    g = minimize(parse_braid(word))
    assert n is None or g.n == n
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    rng = random.Random(52)
    gens = [random_generator(config, rng) for _ in range(3000)]
    rows = assert_rows_match(moves, gens)
    entries = sum(map(len, rows))
    rectangles = sum(
        1 for x, row in zip(gens, rows) for y, _ in row if len(set(x) - set(y)) == 2
    )
    signs = {c for row in rows for _, c in row}
    # both move kinds and both signs are exercised, past the one-column
    # unknot
    assert (0 < rectangles < entries and signs == {-1, 1}) or g.n == 2


def test_grids_past_the_packing_limit_are_refused():
    # 13 columns: 12 kept columns of 48 points each need more than 63 bits
    g = parse_braid([1] * 11)
    assert g.n == 13
    with pytest.raises(GridTooLarge):
        LongMoves(build_config(g, select_best_config(g).omit, "long"))


def test_missing_corner_is_a_typed_failure(rng):
    g = random_grid(4, rng)
    config = build_config(g, select_best_config(g).omit, "long")
    moves = LongMoves(config)
    x = next(
        moves.encode([x])[0]
        for x, _ in oval_generators(config)
        if any(len(set(x) - set(y)) == 2 for y in reference_row(moves, x))
    )
    # the empty rectangles are tabulated on first use, from the point ids
    moves.id_of = {}
    with pytest.raises(RectangleCornerMissing):
        moves.rows(np.array([x]))


def test_missing_flip_target_is_a_typed_failure():
    # a short vertical oval meets only the horizontal ovals that reach its
    # walls, so some free flip of a short configuration has no target
    g = parse_braid(BRAIDS["trefoil"])
    config = build_config(g, select_best_config(g).omit, "short")
    points = config.all_points()
    assert any(q not in points for p in points for q, _, _ in reference_flips(config, p))
    with pytest.raises(FlipTargetMissing):
        LongMoves(config)
