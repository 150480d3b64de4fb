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

Grid equivalence is generated by castling (exchanging adjacent parallel
lines), stabilization and its inverse, and cyclic permutation, which
`canonical_key` absorbs.  `moves` yields, lazily and in one fixed order,
the diagrams a search may step to without enlarging the grid: castlings,
direct destabilizations, then the destabilizations that sliding one line
unlocks.  The braid parser's peel follows the first smaller one, reading
the destabilizations alone; `simplifier.minimize` searches them all.
Each rule is written once, for columns: a row of a diagram is a column of
its `transpose`, so the moves of rows are those of columns on the
transpose, taken once per diagram, and transposed back.

The module also computes the Alexander polynomial from the matrix of winding
numbers, used throughout the test-suite as an independent oracle: with
``w(i, j)`` the winding number of the curve around the lattice point
``(i, j)``,

    det [ t^{w(i,j)} ]_{i,j = 0..n-1}  =  +- t^s (1-t)^{n-1} Delta(t)

where ``Delta`` is the symmetric Alexander polynomial normalized so that
``Delta(t) = Delta(1/t)`` and ``Delta(1) = 1``.  The determinant is one
integer (`alexander_polynomial`), taken by an elimination of its own: Delta
checks the Euler characteristic of tables whose torsion
`reducer.smith_invariant_factors` computes, so the two share no kernel.
The gradings of every generator are counted here too, on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CoincidentDecorations,
    DegenerateDeterminant,
    EmptyWord,
    IllegalCastling,
    MultiComponent,
    MultiComponentClosure,
    NotPermutation,
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
# The span of each line's markings, and winding numbers around lattice points.


def column_span(g: GridDiagram, c: int) -> tuple[int, int]:
    """(min, max) row of the two markings in column ``c``."""
    a, b = g.xs[c], g.os[c]
    return (a, b) if a < b else (b, a)


def winding_matrix(g: GridDiagram) -> list[list[int]]:
    """``w[i][j]``: the winding number around the lattice point ``(SCALE*i, SCALE*j)``.

    The same numbers as a ray count at each point (the tests hold them
    against `references.winding_number`), from one sweep over the columns:
    the ray running left from a point in column ``i`` crosses exactly the
    vertical segments of the columns before ``i``, so row ``i + 1`` is row
    ``i`` plus what segment ``i`` adds at each height: ``+1`` for a segment
    running down from X to O, ``-1`` up, at the heights ``j`` its markings
    straddle (``lo < j <= hi`` for its `column_span`, as the curve's lines
    sit at ``CENTER`` mod ``SCALE`` and lattice points lie off them).
    """
    w = [[0] * g.n]
    for c in range(g.n - 1):
        lo, hi = column_span(g, c)
        step = 1 if g.os[c] < g.xs[c] else -1
        w.append([v + step if lo < j <= hi else v for j, v in enumerate(w[-1])])
    return w


# --------------------------------------------------------------------------
# Gradings (Manolescu–Ozsváth–Sarkar).  With ``I(a, b)`` the pairs of ``a x b``
# whose second point lies strictly northeast of the first, a generator ``x``
# has Maslov grading ``I(x, x) - I(x, O) - I(O, x) + I(O, O)`` (one more for a
# cell generator) and doubled Alexander grading ``const2`` plus a term per point.


def marking_counts(points: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Per row ``(x, y)`` of ``points``, the markings of ``marks`` strictly
    northeast or strictly southwest of it, in one comparison."""
    p, q = points[:, None, :], marks[None, :, :]
    return ((p < q).all(axis=2) | (q < p).all(axis=2)).sum(axis=1)


def grading_terms(g: GridDiagram, points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    """Per point (a list of them, or an integer array of rows ``(x, y)``),
    its Maslov term ``-I(p, O) - I(O, p)`` and its doubled Alexander term,
    which adds ``I(p, X) + I(X, p)``: minus twice its winding number."""
    pts = np.array(points, dtype=np.int64).reshape(-1, 2)
    m = -marking_counts(pts, np.array(g.o_punctures()))
    return m, m + marking_counts(pts, np.array(g.x_punctures()))


def grading_constants(g: GridDiagram) -> tuple[int, int]:
    """``(I(O, O), const2)``, with ``const2 = I(O, O) - I(X, X) - (n - 1)``
    the doubled Alexander grading of the empty tuple.  Each pair of O's is
    counted from both ends, so ``I(O, O)`` is half their counts' sum."""
    o, x = np.array(g.o_punctures()), np.array(g.x_punctures())
    o_pairs = int(marking_counts(o, o).sum()) // 2
    return o_pairs, o_pairs - int(marking_counts(x, x).sum()) // 2 - (g.n - 1)


def southwest_counts(bits: np.ndarray, upto: np.ndarray | None = None) -> np.ndarray:
    """Per point of each row, the earlier points of the row that lie lower.

    A row holds one generator's points in column order, each as the bit of
    its own row, so the prefix sums ``upto`` (formed unless given) are the
    unions of the points up to each, none below its own.  Summed, ``I(x, x)``.
    """
    upto = np.cumsum(bits, axis=1, dtype=bits.dtype) if upto is None else upto
    return np.bitwise_count(upto & (bits - 1)).astype(bits.dtype)


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


def castle_columns(g: GridDiagram, c: int) -> GridDiagram:
    """Exchange adjacent columns ``c`` and ``c+1``.

    Legal only when the two columns' marking intervals are disjoint or
    strictly nested with four distinct endpoints; interleaved intervals would
    change the knot and raise :class:`IllegalCastling`.
    """
    n = g.n
    if not 0 <= c <= n - 2:
        raise ValueError(f"column index {c} out of range for size {n}")
    a1, b1 = column_span(g, c)
    a2, b2 = column_span(g, c + 1)
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


def column_destabilization_sites(g: GridDiagram) -> list[int]:
    """Columns whose X and O sit in adjacent rows."""
    return [c for c in range(g.n) if abs(g.xs[c] - g.os[c]) == 1]


def destabilize_column(g: GridDiagram, c: int) -> GridDiagram:
    """Delete column ``c`` (whose markings are vertically adjacent) and merge its two rows."""
    if g.n <= 2:
        raise TooSmall("cannot destabilize a grid of size 2")
    if abs(g.xs[c] - g.os[c]) != 1:
        raise ValueError(f"column {c} is not a destabilization site")
    m = min(g.xs[c], g.os[c])
    # rows m and m + 1 become row m, and every row above moves down one
    xs = tuple(r - (r > m) for d, r in enumerate(g.xs) if d != c)
    os = tuple(r - (r > m) for d, r in enumerate(g.os) if d != c)
    return GridDiagram(xs, os)


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


def moves(g: GridDiagram) -> Iterator[GridDiagram]:
    """The diagrams a search may step to from ``g``, lazily, in a fixed order.

    First the legal castlings, of columns then of rows, then `_shrinking_moves`.
    Duplicates are kept; cyclic shifts, which keep the `canonical_key`, are not moves.
    """
    t = transpose(g)
    yield from _both(g, t, _castlings)
    yield from _shrinking_moves(g, t)


def _shrinking_moves(g: GridDiagram, t: GridDiagram | None = None) -> Iterator[GridDiagram]:
    """The moves of ``g`` (whose transpose ``t`` a caller may hand over) to
    a smaller grid, as `moves` yields them.

    For ``n > 2``, the direct destabilizations, at column sites then row
    sites.  Then the destabilizations a slide unlocks: each diagram that
    sliding one column (then one row) reaches is destabilized at every site.
    """
    if g.n <= 2:
        return
    t = transpose(g) if t is None else t
    yield from _both(g, t, _destabilizations)
    for h in _slides(g):
        yield from _both(h, transpose(h), _destabilizations)
    for h in _slides(t):  # h is the transpose of the slid diagram
        yield from _both(transpose(h), h, _destabilizations)


def _both(g: GridDiagram, t: GridDiagram, rule) -> Iterator[GridDiagram]:
    """The diagrams ``rule`` makes from the columns of ``g``, then from its
    rows: the columns of its transpose ``t``, each result transposed back."""
    yield from rule(g)
    yield from map(transpose, rule(t))


def _castlings(g: GridDiagram) -> Iterator[GridDiagram]:
    for c in range(g.n - 1):
        try:
            h = castle_columns(g, c)
        except IllegalCastling:
            continue
        yield h


def _destabilizations(g: GridDiagram) -> Iterator[GridDiagram]:
    return (destabilize_column(g, c) for c in column_destabilization_sites(g))


def _slides(g: GridDiagram) -> Iterator[GridDiagram]:
    """The diagrams that sliding one column of ``g`` reaches: from each start
    in turn, right then left, one legal castling at a time."""
    n = g.n
    for start in range(n):
        for step in (1, -1):
            h, pos = g, start
            while 0 <= pos + step <= n - 1:
                try:
                    h = castle_columns(h, pos if step > 0 else pos - 1)
                except IllegalCastling:
                    break
                pos += step
                yield h


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
    """Follow the first diagram `_shrinking_moves` yields until there is none:
    a direct destabilization when there is one, else a slide-assisted one."""
    while (h := next(_shrinking_moves(g), None)) is not None:
        g = h
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

