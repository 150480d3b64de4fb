"""Grid diagrams for knots: representation, moves, and a classical oracle.

A grid diagram of size ``n`` places one ``X`` and one ``O`` marking in every
row and every column of an ``n x n`` array so that no cell carries both
markings.  Joining ``X`` to ``O`` in every column and ``O`` to ``X`` in every
row (vertical segments crossing over horizontal ones) draws a closed oriented
rectilinear curve in the plane: the knot.  Rows are indexed bottom to top and
columns left to right, so ``xs[c]`` / ``os[c]`` is the row of the ``X`` / ``O``
in column ``c``.

All geometry in this package lives on a ten-fold scaled integer lattice: the
marking in column ``c``, row ``r`` becomes the puncture ``(10c+5, 10r+5)``,
and the curve runs along lines whose coordinates are ``5 mod 10``.  Every
later construction (intersection points of auxiliary curves, sub-cell
evaluation points for winding numbers) then has exact integer coordinates and
no floating point enters any computation.

Besides the moves generating grid equivalence (commutation of adjacent
parallel lines, destabilization; cyclic permutation through `canonical_key`),
the module computes the Alexander polynomial from the matrix of winding
numbers, used throughout the test-suite as an independent oracle: with
``w(i, j)`` the winding number of the curve around the lattice point
``(i, j)``,

    det [ t^{w(i,j)} ]_{i,j = 0..n-1}  =  +- t^s (1-t)^{n-1} Delta(t)

where ``Delta`` is the symmetric Alexander polynomial normalized so that
``Delta(t) = Delta(1/t)`` and ``Delta(1) = 1``.  The determinant is one
integer (`alexander_polynomial`), taken by an elimination of its own: Delta
checks the Euler characteristic of tables whose torsion
`reducer.smith_invariant_factors` computes, so the two share no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import (
    CoincidentDecorations,
    DegenerateDeterminant,
    EmptyWord,
    IllegalCastling,
    MultiComponent,
    MultiComponentClosure,
    NotPermutation,
    PointOnDiagram,
    TooSmall,
)

#: Lattice pitch of the scaled integer coordinates.
SCALE = 10
#: Offset of a cell-center puncture inside its scaled cell.
CENTER = 5

Point = tuple[int, int]


@dataclass(frozen=True)
class GridDiagram:
    """An ``n x n`` grid diagram; ``xs[c]``/``os[c]`` is the row of X/O in column ``c``."""

    xs: tuple[int, ...]
    os: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.xs)

    def x_punctures(self) -> list[Point]:
        """Scaled centers of the X-marked cells."""
        return [(SCALE * c + CENTER, SCALE * r + CENTER) for c, r in enumerate(self.xs)]

    def o_punctures(self) -> list[Point]:
        """Scaled centers of the O-marked cells."""
        return [(SCALE * c + CENTER, SCALE * r + CENTER) for c, r in enumerate(self.os)]

    def punctures(self) -> list[Point]:
        return self.x_punctures() + self.o_punctures()


def validate(g: GridDiagram) -> None:
    """Raise unless ``g`` is a size >= 2 grid diagram of a one-component knot."""
    n = len(g.xs)
    if len(g.os) != n:
        raise NotPermutation("X and O data have different lengths")
    if n < 2:
        raise TooSmall(f"grid size {n} is below the minimum 2")
    if sorted(g.xs) != list(range(n)) or sorted(g.os) != list(range(n)):
        raise NotPermutation("rows of X/O markings must form permutations")
    for c in range(n):
        if g.xs[c] == g.os[c]:
            raise CoincidentDecorations(f"column {c} carries X and O in the same cell")
    k = component_count(g)
    if k != 1:
        raise MultiComponent(f"diagram traces {k} closed curves, expected 1")


def component_count(g: GridDiagram) -> int:
    """Number of closed curves traced by the diagram.

    Following the curve from column ``c`` through its O to the X in the
    same row lands in the column of that X, so the curves are the cycles of
    that permutation of the columns.
    """
    x_col_of_row = transpose(g).xs
    return _cycle_count([x_col_of_row[r] for r in g.os])


# --------------------------------------------------------------------------
# The curve in scaled coordinates and winding numbers around off-curve points.


def vertical_segments(g: GridDiagram) -> list[tuple[int, int, int, bool]]:
    """Per column: ``(x, y_low, y_high, goes_down)`` oriented from X to O."""
    out = []
    for c in range(g.n):
        yx = SCALE * g.xs[c] + CENTER
        yo = SCALE * g.os[c] + CENTER
        out.append((SCALE * c + CENTER, min(yx, yo), max(yx, yo), yo < yx))
    return out


def horizontal_segments(g: GridDiagram) -> list[tuple[int, int, int, bool]]:
    """Per row: ``(y, x_low, x_high, goes_left)`` oriented from O to X."""
    t = transpose(g)
    out = []
    for r in range(g.n):
        xx = SCALE * t.xs[r] + CENTER
        xo = SCALE * t.os[r] + CENTER
        out.append((SCALE * r + CENTER, min(xx, xo), max(xx, xo), xx < xo))
    return out


def winding_number(g: GridDiagram, point: Point) -> int:
    """Winding number of the oriented curve around a point off the curve.

    Counted by intersecting the horizontal ray running left from ``point``
    with the vertical segments of the curve: a downward segment crossing the
    ray contributes ``+1``, an upward one ``-1``.
    """
    px, py = point
    w = 0
    for x, ylo, yhi, down in vertical_segments(g):
        if x == px and ylo <= py <= yhi:
            raise PointOnDiagram(f"point {point} lies on a vertical segment")
        if x < px and ylo < py < yhi:
            w += 1 if down else -1
    for y, xlo, xhi, _left in horizontal_segments(g):
        if y == py and xlo <= px <= xhi:
            raise PointOnDiagram(f"point {point} lies on a horizontal segment")
    return w


def winding_matrix(g: GridDiagram) -> list[list[int]]:
    """``w[i][j]``: the winding number around the lattice point ``(SCALE*i, SCALE*j)``.

    The same numbers as `winding_number`, from one sweep over the columns:
    the ray running left from a point in column ``i`` crosses exactly the
    vertical segments of the columns before ``i``, so row ``i + 1`` is row
    ``i`` plus what segment ``i`` adds at each height.  Lattice points lie
    off the curve, whose lines sit at ``CENTER`` mod ``SCALE``.
    """
    heights = [SCALE * j for j in range(g.n)]
    w = [[0] * g.n]
    for _x, ylo, yhi, down in vertical_segments(g)[:-1]:
        step = 1 if down else -1
        w.append([v + step if ylo < y < yhi else v for v, y in zip(w[-1], heights)])
    return w


def dominance_count(first: Iterable[Point], second: Iterable[Point]) -> int:
    """Number of pairs ``(p, q)`` with ``p`` strictly southwest of ``q``.

    Counts pairs from ``first x second`` with both coordinates strictly
    increasing; the bilinear building block of the combinatorial gradings.
    """
    qs = list(second)
    total = 0
    for ax, ay in first:
        for bx, by in qs:
            if ax < bx and ay < by:
                total += 1
    return total


def alexander2_dominance(
    points: tuple[Point, ...],
    x_punct: tuple[Point, ...],
    o_punct: tuple[Point, ...],
    n: int,
) -> int:
    """Doubled Alexander grading of a cell or oval generator, by dominance counts.

    Linear in ``points`` beyond the ``points == ()`` constant, so each point
    adds a term of its own: minus twice its winding number.
    """
    return (
        dominance_count(points, x_punct)
        + dominance_count(x_punct, points)
        - dominance_count(points, o_punct)
        - dominance_count(o_punct, points)
        - dominance_count(x_punct, x_punct)
        + dominance_count(o_punct, o_punct)
        - (n - 1)
    )


# --------------------------------------------------------------------------
# The Alexander polynomial oracle, over the integers.


class LaurentPoly:
    """An integer Laurent polynomial, stored sparsely as exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int]):
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def support(self) -> tuple[int, int]:
        """(lowest, highest) exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has empty support")
        return min(self.terms), max(self.terms)

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c:+d}")
            elif e == 1:
                bits.append(f"{c:+d}*t")
            else:
                bits.append(f"{c:+d}*t^{e}")
        return "".join(bits)


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination.

    Each step turns the trailing block into 2 x 2 minors through the pivot,
    divided exactly by the previous pivot: minors of the input, so integers.
    A zero pivot is swapped for a nonzero entry below it; none means 0.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def alexander_polynomial(g: GridDiagram) -> LaurentPoly:
    """The symmetric Alexander polynomial of the knot presented by ``g``.

    The determinant of the winding matrix ``[t^{w(i,j)}]`` (`winding_matrix`)
    equals ``+- t^s (1-t)^{n-1} Delta(t)``.  With every exponent lowered by
    the least winding number (which only moves ``s``, and the centering below
    discards ``s``), the matrix is evaluated at ``t = 2^b`` (Kronecker
    substitution).  A coefficient of the determinant is a signed count of
    permutations, below ``n! <= n^n < 2^(b-1)`` for ``b = n * n.bit_length()
    + 1``, so the integer's signed base ``2^b`` digits are the coefficients.

    They are divided exactly by ``(1-t)^{n-1}``: ``p`` is ``(1-t) q``
    exactly when its coefficients sum to zero, and those of ``q`` are then
    the partial sums of those of ``p``, without the last.  The remaining
    unit is fixed by ``Delta(t) = Delta(1/t)`` and ``Delta(1) = 1``.
    """
    n = g.n
    w = winding_matrix(g)
    low = min(map(min, w))
    b = n * n.bit_length() + 1
    det = bareiss_determinant([[1 << (b * (e - low)) for e in row] for row in w])
    if not det:
        raise DegenerateDeterminant("winding matrix determinant vanished")
    digit, half = (1 << b) - 1, 1 << (b - 1)
    while not det & digit:
        det >>= b
    coeffs = []
    while det:
        coeffs.append(((det + half) & digit) - half)
        det = (det - coeffs[-1]) >> b
    for _ in range(n - 1):
        if sum(coeffs):
            raise DegenerateDeterminant("determinant not divisible by (1-t)^(n-1)")
        coeffs = list(accumulate(coeffs))[:-1]
    if len(coeffs) % 2 == 0:
        raise DegenerateDeterminant("determinant support cannot be centered")
    unit = sum(coeffs)
    if unit == -1:
        coeffs = [-c for c in coeffs]
    elif unit != 1:
        raise DegenerateDeterminant(f"normalized value at t=1 is {unit}, expected a unit")
    if coeffs != coeffs[::-1]:
        raise DegenerateDeterminant("normalized polynomial is not symmetric")
    return LaurentPoly(dict(enumerate(coeffs, -(len(coeffs) // 2))))


# --------------------------------------------------------------------------
# Moves generating grid equivalence.


def transpose(g: GridDiagram) -> GridDiagram:
    """Reflect across the main diagonal, exchanging the roles of rows and columns."""
    n = g.n
    xs = [0] * n
    os = [0] * n
    for c in range(n):
        xs[g.xs[c]] = c
        os[g.os[c]] = c
    return GridDiagram(tuple(xs), tuple(os))


def _span(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def castle_columns(g: GridDiagram, c: int) -> GridDiagram:
    """Exchange adjacent columns ``c`` and ``c+1``.

    Legal only when the two columns' marking intervals are disjoint or
    strictly nested with four distinct endpoints; interleaved intervals would
    change the knot and raise :class:`IllegalCastling`.
    """
    n = g.n
    if not 0 <= c <= n - 2:
        raise ValueError(f"column index {c} out of range for size {n}")
    a1, b1 = _span(g.xs[c], g.os[c])
    a2, b2 = _span(g.xs[c + 1], g.os[c + 1])
    if len({a1, b1, a2, b2}) < 4:
        raise IllegalCastling(f"columns {c},{c + 1} share a marking row")
    disjoint = b1 < a2 or b2 < a1
    nested = (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)
    if not (disjoint or nested):
        raise IllegalCastling(f"columns {c},{c + 1} have interleaved markings")
    xs = list(g.xs)
    os = list(g.os)
    xs[c], xs[c + 1] = xs[c + 1], xs[c]
    os[c], os[c + 1] = os[c + 1], os[c]
    return GridDiagram(tuple(xs), tuple(os))


def castle_rows(g: GridDiagram, r: int) -> GridDiagram:
    """Exchange adjacent rows ``r`` and ``r+1`` under the same legality rule."""
    return transpose(castle_columns(transpose(g), r))


def column_destabilization_sites(g: GridDiagram) -> list[int]:
    """Columns whose X and O sit in adjacent rows."""
    return [c for c in range(g.n) if abs(g.xs[c] - g.os[c]) == 1]


def row_destabilization_sites(g: GridDiagram) -> list[int]:
    """Rows whose X and O sit in adjacent columns."""
    return column_destabilization_sites(transpose(g))


def destabilize_column(g: GridDiagram, c: int) -> GridDiagram:
    """Delete column ``c`` (whose markings are vertically adjacent) and merge its two rows."""
    n = g.n
    if n <= 2:
        raise TooSmall("cannot destabilize a grid of size 2")
    if abs(g.xs[c] - g.os[c]) != 1:
        raise ValueError(f"column {c} is not a destabilization site")
    m = min(g.xs[c], g.os[c])

    def remap(r: int) -> int:
        if r > m + 1:
            return r - 1
        if r >= m:
            return m
        return r

    xs = tuple(remap(g.xs[d]) for d in range(n) if d != c)
    os = tuple(remap(g.os[d]) for d in range(n) if d != c)
    return GridDiagram(xs, os)


def destabilize_row(g: GridDiagram, r: int) -> GridDiagram:
    """Delete row ``r`` (whose markings are horizontally adjacent) and merge its two columns."""
    t = transpose(g)
    if abs(t.xs[r] - t.os[r]) != 1:
        raise ValueError(f"row {r} is not a destabilization site")
    return transpose(destabilize_column(t, r))


def canonical_key(g: GridDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically least ``(xs, os)`` over all cyclic translates of ``g``.

    The least translate must have ``xs[0] == 0``, which fixes the row shift
    for each of the ``n`` column shifts; only those candidates are compared.
    """
    n = g.n
    xs2 = g.xs + g.xs
    os2 = g.os + g.os

    def translate(dc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        dr = -xs2[dc] % n
        xs = tuple((r + dr) % n for r in xs2[dc : dc + n])
        os = tuple((r + dr) % n for r in os2[dc : dc + n])
        return xs, os

    return min(translate(dc) for dc in range(n))


def generalized_destabilizations(g: GridDiagram) -> list[GridDiagram]:
    """Destabilizations unlocked by sliding one line monotonically via castlings.

    Each returned diagram is the result of sliding a single column (or row)
    left/right (down/up) through legal castlings and destabilizing at a site
    that appears along the way.  Results are deduplicated by canonical key in
    a deterministic order.
    """
    seen: dict[tuple, GridDiagram] = {}

    def record(h: GridDiagram) -> None:
        if h.n <= 2:
            return
        for c in column_destabilization_sites(h):
            d = destabilize_column(h, c)
            seen.setdefault(canonical_key(d), d)
        for r in row_destabilization_sites(h):
            d = destabilize_row(h, r)
            seen.setdefault(canonical_key(d), d)

    n = g.n
    for castle in (castle_columns, castle_rows):
        for start in range(n):
            for step in (1, -1):
                h = g
                pos = start
                while 0 <= pos + step <= n - 1:
                    try:
                        h = castle(h, pos if step > 0 else pos - 1)
                    except IllegalCastling:
                        break
                    pos += step
                    record(h)
    return list(seen.values())


# --------------------------------------------------------------------------
# Braid words and the text format.


def parse_braid(letters: Iterable[int], peel: bool = True) -> GridDiagram:
    """Grid diagram of the closure of a braid word.

    Letters are nonzero integers: ``i`` is the positive generator crossing
    strands ``i`` and ``i+1``, ``-i`` its inverse.  The braid runs downward
    with every strand in its own column; at each crossing the strand passing
    underneath leaves its column, jogs horizontally past the overpassing
    column (crossings in a grid are always vertical over horizontal), and
    continues in a fresh column inserted next to it.  The closure arcs nest
    around the left side.  The raw diagram has size ``2k + len(word)`` for
    ``k`` strands and is then greedily destabilized.
    """
    word = list(letters)
    if not word:
        raise EmptyWord("braid word has no letters")
    for a in word:
        if not isinstance(a, int) or a == 0:
            raise ValueError(f"braid letters must be nonzero integers, got {a!r}")
    k = max(abs(a) for a in word) + 1
    ell = len(word)

    strand_at = list(range(k))
    for a in word:
        i = abs(a) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    if _cycle_count(strand_at) != 1:
        raise MultiComponentClosure(
            f"closure of the word has {_cycle_count(strand_at)} components"
        )

    # Vertical pieces: ids 0..k-1 enter at the top, id k+j is born at letter j,
    # ids k+ell+p are the nested closure arcs.  ``order`` tracks the left-to-
    # right arrangement of braid-zone columns; the order of the columns under
    # the active positions always matches the position order.
    top_row = {p: k + ell + p for p in range(k)}
    bot_row: dict[int, int] = {}
    order = list(range(k))
    cur = list(range(k))
    for j, a in enumerate(word):
        i = abs(a) - 1
        jog = k + ell - 1 - j
        fresh = k + j
        if a > 0:
            over, under = cur[i], cur[i + 1]
            order.insert(order.index(over), fresh)
            cur[i], cur[i + 1] = fresh, over
        else:
            over, under = cur[i + 1], cur[i]
            order.insert(order.index(over) + 1, fresh)
            cur[i], cur[i + 1] = over, fresh
        bot_row[under] = jog
        top_row[fresh] = jog
    for p in range(k):
        bot_row[cur[p]] = k - 1 - p

    full_order = [k + ell + p for p in range(k - 1, -1, -1)] + order
    n = 2 * k + ell
    xs = [0] * n
    os = [0] * n
    for col, pid in enumerate(full_order):
        if pid >= k + ell:
            p = pid - (k + ell)
            xs[col] = k - 1 - p
            os[col] = k + ell + p
        else:
            xs[col] = top_row[pid]
            os[col] = bot_row[pid]
    g = GridDiagram(tuple(xs), tuple(os))
    validate(g)
    return greedy_destabilize(g) if peel else g


def _cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    count = 0
    for s in range(len(perm)):
        if seen[s]:
            continue
        count += 1
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t]
    return count


def greedy_destabilize(g: GridDiagram) -> GridDiagram:
    """Destabilize repeatedly, using castling-assisted sites when no direct one exists."""
    while g.n > 2:
        sites = column_destabilization_sites(g)
        if sites:
            g = destabilize_column(g, sites[0])
            continue
        rows = row_destabilization_sites(g)
        if rows:
            g = destabilize_row(g, rows[0])
            continue
        assisted = generalized_destabilizations(g)
        if not assisted:
            break
        g = assisted[0]
    return g


def parse_grid_text(text: str) -> GridDiagram:
    """Parse the three-line grid format: size, then ``X:`` and ``O:`` row lists."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise ValueError("grid text needs a size line plus X: and O: lines")
    n = int(lines[0])

    def marks(line: str, tag: str) -> tuple[int, ...]:
        head, sep, rest = line.partition(":")
        if not sep or head.strip().upper() != tag:
            raise ValueError(f"expected a line starting with {tag!r}, got {line!r}")
        vals = tuple(int(tok) for tok in rest.split())
        if len(vals) != n:
            raise ValueError(f"{tag} line has {len(vals)} entries, expected {n}")
        return vals

    g = GridDiagram(marks(lines[1], "X"), marks(lines[2], "O"))
    validate(g)
    return g


def grids_related_by_moves(g: GridDiagram) -> Iterator[GridDiagram]:
    """All diagrams one castling or destabilization away.

    Cyclic shifts are left out: they keep the `canonical_key`.
    """
    n = g.n
    for c in range(n - 1):
        try:
            yield castle_columns(g, c)
        except IllegalCastling:
            pass
    for r in range(n - 1):
        try:
            yield castle_rows(g, r)
        except IllegalCastling:
            pass
    if n > 2:
        for c in column_destabilization_sites(g):
            yield destabilize_column(g, c)
        for r in row_destabilization_sites(g):
            yield destabilize_row(g, r)
