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
reconstructed.  Its internal consistency check is the Euler count for a
system of closed curves meeting transversally in double points:

    pieces = crossings + curve components + 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvalidOmission, ScheduleAssertionFailed
from .gridkit import CENTER, SCALE, GridDiagram, Point, dominance_count

#: Half-widths of the vertical / horizontal ovals in scaled coordinates.
V_HALF = 2
H_HALF = 1


@dataclass(frozen=True)
class Oval:
    """Boundary of the thin rectangle ``[x1, x2] x [y1, y2]``."""

    kind: str  # "V" or "H"
    index: int  # column (V) or row (H)
    x1: int
    x2: int
    y1: int
    y2: int

    def contains(self, p: Point) -> bool:
        """Strict interior membership."""
        return self.x1 < p[0] < self.x2 and self.y1 < p[1] < self.y2


@dataclass(frozen=True)
class OvalConfig:
    """A full system of ovals for one grid, omission and style."""

    grid: GridDiagram
    omit: tuple[int, int]  # (column, row) of the omitted marking
    style: str  # "long" or "short"
    v_ovals: dict[int, Oval]
    h_ovals: dict[int, Oval]
    #: intersection points per (column, row) pair, sorted
    points: dict[tuple[int, int], tuple[Point, ...]]

    @property
    def n(self) -> int:
        return self.grid.n

    def kept_cols(self) -> list[int]:
        return sorted(self.v_ovals)

    def kept_rows(self) -> list[int]:
        return sorted(self.h_ovals)

    def ovals(self) -> list[Oval]:
        return [self.v_ovals[c] for c in self.kept_cols()] + [
            self.h_ovals[r] for r in self.kept_rows()
        ]

    def all_points(self) -> list[Point]:
        out = []
        for pts in self.points.values():
            out.extend(pts)
        return sorted(out)


def column_span(g: GridDiagram, c: int) -> tuple[int, int]:
    """(min, max) row of the two markings in column ``c``."""
    a, b = g.xs[c], g.os[c]
    return (a, b) if a < b else (b, a)


def row_span(g: GridDiagram, r: int) -> tuple[int, int]:
    """(min, max) column of the two markings in row ``r``."""
    a = g.xs.index(r)
    b = g.os.index(r)
    return (a, b) if a < b else (b, a)


def omission_candidates(g: GridDiagram) -> list[tuple[int, int]]:
    """Cells eligible as the omitted marking: the O-marked cells, sorted."""
    return sorted((c, g.os[c]) for c in range(g.n))


def build_config(g: GridDiagram, omit: tuple[int, int], style: str) -> OvalConfig:
    """Construct the oval system for one omission and style."""
    n = g.n
    c0, r0 = omit
    if g.os[c0] != r0 and g.xs[c0] != r0:
        raise InvalidOmission(f"cell {omit} carries no marking")
    if style not in ("long", "short"):
        raise ValueError(f"unknown style {style!r}")
    hi = SCALE * n

    v_ovals: dict[int, Oval] = {}
    for c in range(n):
        if c == c0:
            continue
        if style == "long":
            y1, y2 = 0, hi
        else:
            rmin, rmax = column_span(g, c)
            y1, y2 = SCALE * rmin + CENTER - V_HALF, SCALE * rmax + CENTER + V_HALF
        v_ovals[c] = Oval("V", c, SCALE * c + CENTER - V_HALF, SCALE * c + CENTER + V_HALF, y1, y2)

    h_ovals: dict[int, Oval] = {}
    for r in range(n):
        if r == r0:
            continue
        if style == "long":
            x1, x2 = 0, hi
        else:
            cmin, cmax = row_span(g, r)
            x1, x2 = SCALE * cmin + CENTER - H_HALF, SCALE * cmax + CENTER + H_HALF
        h_ovals[r] = Oval("H", r, x1, x2, SCALE * r + CENTER - H_HALF, SCALE * r + CENTER + H_HALF)

    points: dict[tuple[int, int], tuple[Point, ...]] = {}
    for c, vo in v_ovals.items():
        for r, ho in h_ovals.items():
            pts = [
                (wx, wy)
                for wx in (vo.x1, vo.x2)
                for wy in (ho.y1, ho.y2)
                if ho.x1 < wx < ho.x2 and vo.y1 < wy < vo.y2
            ]
            if pts:
                points[(c, r)] = tuple(sorted(pts))
    return OvalConfig(g, omit, style, v_ovals, h_ovals, points)


def generator_count(config: OvalConfig) -> int:
    """Number of matchings weighted by available points: a small permanent."""
    cols = config.kept_cols()
    rows = config.kept_rows()
    m = len(rows)
    weights = [[len(config.points.get((c, r), ())) for r in rows] for c in cols]
    dp = [0] * (1 << m)
    dp[0] = 1
    for mask in range(1 << m):
        if dp[mask] == 0:
            continue
        i = bin(mask).count("1")
        if i == len(cols):
            continue
        row_w = weights[i]
        for j in range(m):
            bit = 1 << j
            if mask & bit or row_w[j] == 0:
                continue
            dp[mask | bit] += dp[mask] * row_w[j]
    return dp[(1 << m) - 1]


def select_best_config(g: GridDiagram) -> OvalConfig:
    """The short configuration with the fewest generators over all omissions.

    Ties break toward the lexicographically least omitted cell, making the
    choice deterministic.
    """
    configs = (build_config(g, omit, "short") for omit in omission_candidates(g))
    return min(configs, key=generator_count)


# --------------------------------------------------------------------------
# The retraction schedule from the long to the short configuration.


def singleton_maslov(o_punctures: list[Point], p: Point) -> int:
    """Maslov grading of a single point against the O-markings."""
    return (
        -dominance_count([p], o_punctures)
        - dominance_count(o_punctures, [p])
        + dominance_count(o_punctures, o_punctures)
    )


@dataclass(frozen=True)
class Event:
    """One retraction step killing the pair of crossings on one wall.

    ``p1``/``p2`` are the dying points, normalized so the singleton Maslov
    grading of ``p1`` exceeds that of ``p2`` by one.
    """

    oval_kind: str  # which oval retracted ("V" or "H")
    oval_index: int
    wall: int  # the swept wall coordinate (y of an H-wall / x of a V-wall)
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
    o_punct = g.o_punctures()
    alive = set(long_cfg.all_points())
    events: list[Event] = []

    def emit(kind: str, index: int, wall: int, pa: Point, pb: Point) -> None:
        in_a, in_b = pa in alive, pb in alive
        if not in_a and not in_b:
            return
        if in_a != in_b:
            raise ScheduleAssertionFailed(
                f"points {pa}, {pb} on one wall died at different times"
            )
        alive.discard(pa)
        alive.discard(pb)
        ma = singleton_maslov(o_punct, pa)
        mb = singleton_maslov(o_punct, pb)
        if ma == mb + 1:
            p1, p2 = pa, pb
        elif mb == ma + 1:
            p1, p2 = pb, pa
        else:
            raise ScheduleAssertionFailed(
                f"pair {pa}, {pb} has Maslov gap {ma - mb}, expected +-1"
            )
        events.append(Event(kind, index, wall, p1, p2))

    hi = SCALE * g.n
    h_walls = sorted(
        w for r in short_cfg.kept_rows() for w in (SCALE * r + CENTER - H_HALF, SCALE * r + CENTER + H_HALF)
    )
    v_walls = sorted(
        w for c in short_cfg.kept_cols() for w in (SCALE * c + CENTER - V_HALF, SCALE * c + CENTER + V_HALF)
    )

    for c in short_cfg.kept_cols():
        vo = short_cfg.v_ovals[c]
        xl, xr = vo.x1, vo.x2
        top_travel = hi - vo.y2
        bottom_travel = vo.y1 - 0
        # (description, swept walls in sweep order)
        top = [z for z in reversed(h_walls) if z > vo.y2]
        bottom = [z for z in h_walls if z < vo.y1]
        phases = [top, bottom] if top_travel >= bottom_travel else [bottom, top]
        for walls in phases:
            for z in walls:
                emit("V", c, z, (xl, z), (xr, z))

    for r in short_cfg.kept_rows():
        ho = short_cfg.h_ovals[r]
        yb, yt = ho.y1, ho.y2
        right_travel = hi - ho.x2
        left_travel = ho.x1 - 0
        right = [w for w in reversed(v_walls) if w > ho.x2]
        left = [w for w in v_walls if w < ho.x1]
        phases = [right, left] if right_travel >= left_travel else [left, right]
        for walls in phases:
            for w in walls:
                emit("H", r, w, (w, yb), (w, yt))

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

_REFINE = (0, 3, 4, 6, 7)


class Arrangement:
    """The square refined along all oval walls, with pieces labelled.

    ``extra_breaks`` adds refinement lines (never through punctures); the
    labelled piece structure is independent of such refinements, which the
    tests verify through :meth:`piece_invariant`.
    """

    def __init__(self, config: OvalConfig, extra_breaks: tuple[int, ...] = ()):
        self.config = config
        n = config.n
        hi = SCALE * n
        breaks = {SCALE * k + d for k in range(n) for d in _REFINE}
        breaks.add(hi)
        breaks.update(b for b in extra_breaks if 0 <= b <= hi)
        # Sentinel cells beyond the square represent the unbounded region,
        # which long ovals (whose caps lie on the window border) cut away
        # from the interior pieces.
        self.bx = [-CENTER] + sorted(breaks) + [hi + CENTER]
        self.by = list(self.bx)
        nx = len(self.bx) - 1
        ny = len(self.by) - 1
        self.nx, self.ny = nx, ny

        # Blocked cell adjacencies: wall_v[i][j] blocks (i-1,j)<->(i,j),
        # wall_h[i][j] blocks (i,j-1)<->(i,j).
        wall_v = [[False] * ny for _ in range(nx + 1)]
        wall_h = [[False] * (ny + 1) for _ in range(nx)]
        for oval in config.ovals():
            ix1, ix2 = self._ix(oval.x1), self._ix(oval.x2)
            iy1, iy2 = self._iy(oval.y1), self._iy(oval.y2)
            for ix in (ix1, ix2):
                for j in range(iy1, iy2):
                    wall_v[ix][j] = True
            for iy in (iy1, iy2):
                for i in range(ix1, ix2):
                    wall_h[i][iy] = True

        # Label connected pieces of the complement by flood fill.
        piece = [[-1] * ny for _ in range(nx)]
        count = 0
        for i0 in range(nx):
            for j0 in range(ny):
                if piece[i0][j0] >= 0:
                    continue
                stack = [(i0, j0)]
                piece[i0][j0] = count
                while stack:
                    i, j = stack.pop()
                    if i > 0 and not wall_v[i][j] and piece[i - 1][j] < 0:
                        piece[i - 1][j] = count
                        stack.append((i - 1, j))
                    if i + 1 < nx and not wall_v[i + 1][j] and piece[i + 1][j] < 0:
                        piece[i + 1][j] = count
                        stack.append((i + 1, j))
                    if j > 0 and not wall_h[i][j] and piece[i][j - 1] < 0:
                        piece[i][j - 1] = count
                        stack.append((i, j - 1))
                    if j + 1 < ny and not wall_h[i][j + 1] and piece[i][j + 1] < 0:
                        piece[i][j + 1] = count
                        stack.append((i, j + 1))
                count += 1
        self._piece = piece
        self.piece_count = count

    def _ix(self, x: int) -> int:
        i = bisect_left(self.bx, x)
        if i >= len(self.bx) or self.bx[i] != x:
            raise ValueError(f"{x} is not a refinement coordinate")
        return i

    def _iy(self, y: int) -> int:
        j = bisect_left(self.by, y)
        if j >= len(self.by) or self.by[j] != y:
            raise ValueError(f"{y} is not a refinement coordinate")
        return j

    def piece_of_point(self, p: Point) -> int:
        """Piece containing an interior point (never on a refinement line)."""
        x, y = p
        i = bisect_left(self.bx, x)
        j = bisect_left(self.by, y)
        if (i < len(self.bx) and self.bx[i] == x) or (j < len(self.by) and self.by[j] == y):
            raise ValueError(f"point {p} lies on a refinement line")
        return self._piece[i - 1][j - 1]

    def corner_pieces(self, p: Point) -> tuple[int, int, int, int]:
        """Pieces at the NE, NW, SW, SE quadrants of a crossing point."""
        i = self._ix(p[0])
        j = self._iy(p[1])
        return (
            self._piece[i][j],
            self._piece[i - 1][j],
            self._piece[i - 1][j - 1],
            self._piece[i][j - 1],
        )

    def corner_index(self, domain: dict[int, int], p: Point) -> int:
        """``a_NE + a_SW - a_NW - a_SE`` of a domain at a crossing point."""
        ne, nw, sw, se = self.corner_pieces(p)
        get = domain.get
        return get(ne, 0) + get(sw, 0) - get(nw, 0) - get(se, 0)

    def puncture_pieces(self) -> dict[Point, int]:
        """Piece containing each marking of the grid."""
        return {q: self.piece_of_point(q) for q in self.config.grid.punctures()}

    def unbounded_piece(self) -> int:
        """Label of the region outside the window."""
        return self._piece[0][0]

    def crossing_count(self) -> int:
        return len(self.config.all_points())

    def component_count(self) -> int:
        """Connected components of the union of all ovals."""
        ovals = self.config.ovals()
        ids = {(o.kind, o.index): k for k, o in enumerate(ovals)}
        parent = list(range(len(ovals)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (c, r) in self.config.points:
            a, b = find(ids[("V", c)]), find(ids[("H", r)])
            if a != b:
                parent[a] = b
        return len({find(k) for k in range(len(ovals))})

    def euler_discrepancy(self) -> int:
        """Zero when the piece count satisfies the transversal-curves Euler formula."""
        return self.piece_count - (self.crossing_count() + self.component_count() + 1)

    def periodic_domain(self, oval: Oval) -> dict[int, int]:
        """Multiplicity-one domain filling the inside of one oval."""
        domain: dict[int, int] = {}
        for i in range(self.nx):
            if not (oval.x1 <= self.bx[i] and self.bx[i + 1] <= oval.x2):
                continue
            for j in range(self.ny):
                if oval.y1 <= self.by[j] and self.by[j + 1] <= oval.y2:
                    domain[self._piece[i][j]] = 1
        return domain

    def validate_periodic_domains(self) -> None:
        """Each oval's inside has zero corner indices and exactly two punctures."""
        punctures = self.config.grid.punctures()
        crossings = self.config.all_points()
        for oval in self.config.ovals():
            domain = self.periodic_domain(oval)
            inside = [q for q in punctures if oval.contains(q)]
            if len(inside) != 2:
                raise ScheduleAssertionFailed(
                    f"{oval.kind}{oval.index} contains {len(inside)} punctures, expected 2"
                )
            for p in crossings:
                if self.corner_index(domain, p) != 0:
                    raise ScheduleAssertionFailed(
                        f"periodic domain of {oval.kind}{oval.index} has a corner at {p}"
                    )

    def piece_invariant(self) -> tuple:
        """Refinement-independent fingerprint of the labelled arrangement.

        Each piece is described by its incidences to crossing points (with
        the quadrant direction) and the punctures inside it; the multiset of
        descriptions is invariant under adding refinement lines.
        """
        desc: dict[int, set] = {k: set() for k in range(self.piece_count)}
        for p in self.config.all_points():
            for quadrant, piece in zip("NE NW SW SE".split(), self.corner_pieces(p)):
                desc[piece].add((p, quadrant))
        for q, piece in self.puncture_pieces().items():
            desc[piece].add(("puncture", q))
        return tuple(sorted(tuple(sorted(map(repr, s))) for s in desc.values()))

    def ascii_art(self) -> str:
        """Rows top to bottom; each refinement cell prints its piece label."""
        charset = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        g = self.config.grid
        xmark = {(SCALE * c + CENTER, SCALE * r + CENTER): "X" for c, r in enumerate(g.xs)}
        omark = {(SCALE * c + CENTER, SCALE * r + CENTER): "O" for c, r in enumerate(g.os)}
        cell_mark = {}
        for q, label in list(xmark.items()) + list(omark.items()):
            i = bisect_left(self.bx, q[0]) - 1
            j = bisect_left(self.by, q[1]) - 1
            cell_mark[(i, j)] = label
        lines = []
        for j in range(self.ny - 1, -1, -1):
            row = []
            for i in range(self.nx):
                label = cell_mark.get((i, j))
                row.append(label or charset[self._piece[i][j] % len(charset)])
            lines.append("".join(row))
        return "\n".join(lines)
