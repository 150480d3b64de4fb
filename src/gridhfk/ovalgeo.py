"""Oval systems attached to a grid diagram, and the geometry connecting them.

Fixing a marked cell ``(c0, r0)`` of the grid (an O-marking, the *omission*),
every other column ``c`` contributes a thin vertical oval and every other row
``r`` a thin horizontal oval.  In scaled coordinates the ovals are boundaries
of rectangles:

* vertical oval of column ``c``: ``[10c+3, 10c+7] x [y1, y2]``
* horizontal oval of row ``r``:  ``[x1, x2] x [10r+4, 10r+6]``

In the *long* configuration every oval spans the whole square (``y1, y2 = 0,
10n`` resp. ``x1, x2 = 0, 10n``); in the *short* configuration it stops just
past the two markings of its own column or row (``y1, y2 = 10 rmin + 3,
10 rmax + 7`` resp. ``x1, x2 = 10 cmin + 4, 10 cmax + 6``).  Because vertical
ovals have half-width 2 and horizontal ones half-width 1, every transversal
intersection anywhere in either configuration is a crossing of a vertical
oval *wall* (``x = 3, 7 mod 10``) with a horizontal oval *wall* (``y = 4, 6
mod 10``); caps never meet anything.

The *retraction schedule* shrinks the long ovals to the short ones one tip at
a time: vertical ovals first in column order, then horizontal ones in row
order, each retracting its farther-travelling tip first.  Whenever a tip
sweeps past a wall of a transversal oval, the two crossings on that wall die
together - one *event*.  Events are emitted in this global order and each is
normalized so that its first point has singleton Maslov grading one above its
second; the points surviving all events are exactly the short-configuration
intersection points.

The :class:`Arrangement` refines the square by all wall and cap coordinates,
labels the connected pieces of the oval complement, and provides the corner
multiplicities and puncture incidences from which flow domains are
reconstructed.  The Euler count for a system of closed curves meeting
transversally in double points,

    pieces = crossings + curve components + 1,

checks its labelling; nothing here runs it, the tests do
(`references.euler_discrepancy`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import AlexanderConstantInvalid, InvalidOmission, ScheduleAssertionFailed
from .gridkit import (
    CENTER,
    SCALE,
    GridDiagram,
    Point,
    column_span,
    grading_constants,
    grading_terms,
    transpose,
)

#: Half-widths of the vertical / horizontal ovals in scaled coordinates.
V_HALF = 2
H_HALF = 1


@dataclass(frozen=True)
class Oval:
    """Boundary of the thin rectangle ``[x1, x2] x [y1, y2]``."""

    x1: int
    x2: int
    y1: int
    y2: int


@dataclass(frozen=True)
class OvalConfig:
    """A full system of ovals for one grid, omission and style.

    Its per-point grading terms and constant (from the kernel of
    `gridkit`: `grading_terms`, `grading_constants`) and its generator
    counts are built on first use and kept (a `cached_property` writes to
    ``__dict__``, which freezing leaves open).
    """

    grid: GridDiagram
    omit: tuple[int, int]  # (column, row) of the omitted marking
    style: str  # "long" or "short"
    v_ovals: dict[int, Oval]
    h_ovals: dict[int, Oval]
    #: intersection points per (column, row) pair, sorted
    points: dict[tuple[int, int], tuple[Point, ...]]

    def kept_cols(self) -> list[int]:
        return sorted(self.v_ovals)

    def kept_rows(self) -> list[int]:
        return sorted(self.h_ovals)

    def all_points(self) -> list[Point]:
        return sorted(p for pts in self.points.values() for p in pts)

    # -- gradings: a constant plus one term per point

    @cached_property
    def _terms(self) -> tuple[dict[Point, int], dict[Point, int]]:
        points = self.all_points()
        m, a2 = grading_terms(self.grid, points)
        return dict(zip(points, m.tolist())), dict(zip(points, a2.tolist()))

    @property
    def m_of(self) -> dict[Point, int]:
        """Per point, its Maslov term: minus the O's strictly NE or SW of it."""
        return self._terms[0]

    @property
    def a2_of(self) -> dict[Point, int]:
        """Per point, its doubled Alexander term: minus twice its winding number."""
        return self._terms[1]

    @cached_property
    def const2(self) -> int:
        """The doubled Alexander grading of the empty tuple: even, as every
        point adds an even term and Alexander gradings are integers."""
        const2 = grading_constants(self.grid)[1]
        if const2 % 2:
            raise AlexanderConstantInvalid("odd doubled-Alexander constant")
        return const2

    # -- counting generators

    @cached_property
    def column_choices(self) -> list[list[tuple[int, list[tuple[Point, int]]]]]:
        """Per kept column, ``(row index, [(point, a2 term)])`` of each kept
        row whose oval meets it: the branches of the generator walk."""
        cols, rows = self.kept_cols(), self.kept_rows()
        # a generator matches every kept column to its own kept row
        if len(cols) != len(rows):
            raise InvalidOmission(
                f"omitting {self.omit} leaves {len(cols)} vertical and "
                f"{len(rows)} horizontal ovals; the configuration must be square"
            )
        return [
            [
                (ri, [(p, self.a2_of[p]) for p in self.points[c, r]])
                for ri, r in enumerate(rows)
                if (c, r) in self.points
            ]
            for c in cols
        ]

    @cached_property
    def rest_sums(self) -> list[dict[int, int]]:
        """For each bitmask of used rows, the a2 sums the remaining columns reach.

        Columns are matched in order, so a mask with ``d`` bits set has matched
        the first ``d`` columns; its entry maps each sum of the terms of
        columns ``d..k-1`` over the unused rows to its number of generators.
        Built bottom-up from the full mask: setting a bit raises the mask.
        """
        choices = self.column_choices
        full = (1 << len(choices)) - 1
        table: list[dict[int, int]] = [{} for _ in range(full)] + [{0: 1}]
        for mask in range(full - 1, -1, -1):
            sums = table[mask]
            for ri, pts in choices[mask.bit_count()]:
                if mask >> ri & 1:
                    continue
                below = table[mask | 1 << ri]
                for _, w in pts:
                    for s, count in below.items():
                        sums[s + w] = sums.get(s + w, 0) + count
        return table

    @cached_property
    def slice_sizes(self) -> dict[int, int]:
        """Generators per nonempty a2 slice, by a2 ascending, listing none."""
        sums = self.rest_sums[0]
        return {self.const2 + s: sums[s] for s in sorted(sums)}


def line_walls(k: int, half: int) -> tuple[int, int]:
    """The two walls of an oval around grid line ``k`` with half-width ``half``."""
    mid = SCALE * k + CENTER
    return mid - half, mid + half


def omission_candidates(g: GridDiagram) -> list[tuple[int, int]]:
    """Cells eligible as the omitted marking: the O-marked cells, sorted."""
    return sorted((c, g.os[c]) for c in range(g.n))


def on_boundary(g: GridDiagram, cell: tuple[int, int]) -> bool:
    """Whether ``cell`` lies in column 0 or n−1 or in row 0 or n−1.

    Every kept column and row of the long configuration has an oval whose
    caps lie on the border of the square, so the region outside the square
    holds the omitted marking exactly when that marking is on the boundary;
    otherwise that region has no basepoint, the diagram is not nice in the
    Sarkar–Wang sense, and the bigons and rectangles `LongMoves` counts miss
    the domains that cover it.
    """
    edge = (0, g.n - 1)
    return cell[0] in edge or cell[1] in edge


def build_config(g: GridDiagram, omit: tuple[int, int], style: str) -> OvalConfig:
    """Construct the oval system for one omission and style."""
    n = g.n
    c0, r0 = omit
    if g.os[c0] != r0 and g.xs[c0] != r0:
        raise InvalidOmission(f"cell {omit} carries no marking")
    if style not in ("long", "short"):
        raise ValueError(f"unknown style {style!r}")

    def caps(grid: GridDiagram, k: int, half: int) -> tuple[int, int]:
        """Where the oval around column ``k`` of ``grid`` ends: at the sides
        of the square, or just past the two markings of its column."""
        if style == "long":
            return 0, SCALE * n
        lo, up = column_span(grid, k)
        return line_walls(lo, half)[0], line_walls(up, half)[1]

    # a row of g is a column of its transpose
    t = transpose(g)
    v_ovals = {c: Oval(*line_walls(c, V_HALF), *caps(g, c, V_HALF))
               for c in range(n) if c != c0}
    h_ovals = {r: Oval(*caps(t, r, H_HALF), *line_walls(r, H_HALF))
               for r in range(n) if r != r0}

    points: dict[tuple[int, int], tuple[Point, ...]] = {}
    for c, vo in v_ovals.items():
        for r, ho in h_ovals.items():
            # walls ascend, so the points come out sorted
            pts = tuple(
                (wx, wy)
                for wx in (vo.x1, vo.x2)
                for wy in (ho.y1, ho.y2)
                if ho.x1 < wx < ho.x2 and vo.y1 < wy < vo.y2
            )
            if pts:
                points[(c, r)] = pts
    return OvalConfig(g, omit, style, v_ovals, h_ovals, points)


def select_best_config(g: GridDiagram) -> OvalConfig:
    """The short configuration with the fewest generators over the boundary O's.

    Only O's `on_boundary` are tried: at most four, and column 0 always
    holds one.  Generators are counted slice by slice without listing any
    (`OvalConfig.slice_sizes`); the returned configuration keeps its
    count, so a `PathEngine` built on it never counts again.  Ties go to
    the lexicographically least cell.
    """
    configs = (
        build_config(g, omit, "short")
        for omit in omission_candidates(g)
        if on_boundary(g, omit)
    )
    return min(configs, key=lambda config: sum(config.slice_sizes.values()))


# --------------------------------------------------------------------------
# The retraction schedule from the long to the short configuration.


@dataclass(frozen=True)
class Event:
    """One retraction step killing the pair of crossings on one wall.

    ``p1``/``p2`` are the dying points, normalized so the Maslov grading of
    ``p1`` alone exceeds that of ``p2`` alone by one.
    """

    oval_kind: str  # which oval retracted ("V" or "H")
    oval_index: int
    p1: Point
    p2: Point


def retraction_schedule(
    g: GridDiagram, omit: tuple[int, int]
) -> tuple[OvalConfig, OvalConfig, list[Event]]:
    """Long and short configurations plus the ordered list of events.

    Validates the bookkeeping: every event kills a live pair with Maslov
    gradings differing by one, and the survivors are exactly the short
    configuration's points.
    """
    long_cfg = build_config(g, omit, "long")
    short_cfg = build_config(g, omit, "short")
    m_of = long_cfg.m_of
    alive = set(long_cfg.all_points())
    events: list[Event] = []

    def emit(kind: str, index: int, pa: Point, pb: Point) -> None:
        in_a, in_b = pa in alive, pb in alive
        if not in_a and not in_b:
            return
        if in_a != in_b:
            raise ScheduleAssertionFailed(
                f"points {pa}, {pb} on one wall died at different times"
            )
        alive.discard(pa)
        alive.discard(pb)
        ma, mb = m_of[pa], m_of[pb]
        if ma == mb + 1:
            p1, p2 = pa, pb
        elif mb == ma + 1:
            p1, p2 = pb, pa
        else:
            raise ScheduleAssertionFailed(
                f"pair {pa}, {pb} has Maslov gap {ma - mb}, expected +-1"
            )
        events.append(Event(kind, index, p1, p2))

    h_walls = sorted(w for r in short_cfg.kept_rows() for w in line_walls(r, H_HALF))
    v_walls = sorted(w for c in short_cfg.kept_cols() for w in line_walls(c, V_HALF))
    size = SCALE * g.n

    def swept(lo: int, hi: int, walls: list[int]) -> list[int]:
        # the walls beyond the short oval [lo, hi], in sweep order: the tip
        # with farther to travel retracts first (the higher one on a tie)
        upper = [w for w in reversed(walls) if w > hi]
        lower = [w for w in walls if w < lo]
        return upper + lower if size - hi >= lo else lower + upper

    for c in short_cfg.kept_cols():
        vo = short_cfg.v_ovals[c]
        for z in swept(vo.y1, vo.y2, h_walls):
            emit("V", c, (vo.x1, z), (vo.x2, z))
    for r in short_cfg.kept_rows():
        ho = short_cfg.h_ovals[r]
        for w in swept(ho.x1, ho.x2, v_walls):
            emit("H", r, (w, ho.y1), (w, ho.y2))

    survivors = set(short_cfg.all_points())
    if alive != survivors:
        raise ScheduleAssertionFailed(
            f"retraction survivors disagree with the short configuration: "
            f"{sorted(alive ^ survivors)}"
        )
    total = len(long_cfg.all_points())
    if 2 * len(events) + len(survivors) != total:
        raise ScheduleAssertionFailed("event/survivor count violates conservation")
    return long_cfg, short_cfg, events


# --------------------------------------------------------------------------
# The planar arrangement cut out by the ovals.

#: Offsets inside a cell of the refinement: its edge and the walls of both oval kinds.
_REFINE = (0, *line_walls(0, V_HALF), *line_walls(0, H_HALF))


class Arrangement:
    """The square refined along all oval walls, with pieces labelled."""

    def __init__(self, config: OvalConfig):
        self.config = config
        n = config.grid.n
        hi = SCALE * n
        breaks = {SCALE * k + d for k in range(n) for d in _REFINE}
        breaks.add(hi)
        # Sentinel cells beyond the square represent the unbounded region,
        # which long ovals (whose caps lie on the window border) cut away
        # from the interior pieces.  Both axes are refined at the same
        # coordinates.
        self.coords = [-CENTER] + sorted(breaks) + [hi + CENTER]
        m = self.cells = len(self.coords) - 1  # cells along either axis

        # Blocked cell adjacencies: wall_v[i][j] blocks (i-1,j)<->(i,j),
        # wall_h[i][j] blocks (i,j-1)<->(i,j).
        wall_v = [[False] * m for _ in range(m + 1)]
        wall_h = [[False] * (m + 1) for _ in range(m)]
        for oval in (*config.v_ovals.values(), *config.h_ovals.values()):
            ix1, ix2 = self._index(oval.x1), self._index(oval.x2)
            iy1, iy2 = self._index(oval.y1), self._index(oval.y2)
            for ix in (ix1, ix2):
                for j in range(iy1, iy2):
                    wall_v[ix][j] = True
            for iy in (iy1, iy2):
                for i in range(ix1, ix2):
                    wall_h[i][iy] = True

        # Label connected pieces of the complement by flood fill.
        piece = [[-1] * m for _ in range(m)]
        count = 0
        for i0 in range(m):
            for j0 in range(m):
                if piece[i0][j0] >= 0:
                    continue
                stack = [(i0, j0)]
                piece[i0][j0] = count
                while stack:
                    i, j = stack.pop()
                    for a, b, is_open in (
                        (i - 1, j, i > 0 and not wall_v[i][j]),
                        (i + 1, j, i + 1 < m and not wall_v[i + 1][j]),
                        (i, j - 1, j > 0 and not wall_h[i][j]),
                        (i, j + 1, j + 1 < m and not wall_h[i][j + 1]),
                    ):
                        if is_open and piece[a][b] < 0:
                            piece[a][b] = count
                            stack.append((a, b))
                count += 1
        self._piece = piece
        self.piece_count = count

    def _index(self, z: int) -> int:
        i = bisect_left(self.coords, z)
        if i >= len(self.coords) or self.coords[i] != z:
            raise ValueError(f"{z} is not a refinement coordinate")
        return i

    def piece_of_point(self, p: Point) -> int:
        """Piece containing an interior point (never on a refinement line)."""
        x, y = p
        coords = self.coords
        i = bisect_left(coords, x)
        j = bisect_left(coords, y)
        if (i < len(coords) and coords[i] == x) or (j < len(coords) and coords[j] == y):
            raise ValueError(f"point {p} lies on a refinement line")
        return self._piece[i - 1][j - 1]

    def corner_pieces(self, p: Point) -> tuple[int, int, int, int]:
        """Pieces at the NE, NW, SW, SE quadrants of a crossing point."""
        i, j = self._index(p[0]), self._index(p[1])
        return (
            self._piece[i][j],
            self._piece[i - 1][j],
            self._piece[i - 1][j - 1],
            self._piece[i][j - 1],
        )

    def puncture_pieces(self) -> dict[Point, int]:
        """Piece containing each marking of the grid."""
        return {q: self.piece_of_point(q) for q in self.config.grid.punctures()}

    def unbounded_piece(self) -> int:
        """Label of the region outside the window."""
        return self._piece[0][0]
