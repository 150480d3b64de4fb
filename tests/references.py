"""Eager reference computations that the tests hold the pipeline against.

The calculator itself never builds the long oval complex whole: the path
engine pulls short rows lazily.  These references do the slow, direct
thing on small grids (or single Alexander slices) so the lazy route has
something independent to agree with:

* `tuple_event_pairs` and `reduce_faithful` cancel the long complex pair by
  pair in the order the retraction schedule prescribes, asserting every
  matched entry is a unit; `faithful_short` applies them to the whole long
  complex or to some of its Alexander slices;
* `long_gradings` grades a generator on the configuration of a `LongMoves`,
  and `decode` turns its point ids back into its points;
* `dominance_count` counts the pairs of two point sets with the second
  strictly northeast of the first, one pair at a time, and
  `alexander2_dominance` and `maslov` are the doubled Alexander and the
  Maslov gradings as sums of such counts: the references that the array
  gradings of `gridkit` (per point, `grading_terms`; per generator,
  `LongMoves.maslov` and the cell gradings) are checked against;
* `Laurent` is a `LaurentPoly` with the ring operations, and
  `laurent_determinant` a cofactor expansion over it: the reference the
  integer determinant behind `alexander_polynomial` is held against;
* `long_euler` is the graded Euler characteristic of the long complex as
  one small determinant; `enumerated_long_euler` sums it generator by
  generator, which is only affordable on small grids;
* `short_complex_digest` fingerprints a complex, insertion order included,
  so a short complex can be pinned bit for bit;
* `mos_generators` spells out the rectangle complex's generators as point
  tuples, so a complex keyed by permutation rank can be compared with one
  keyed by points;
* `generator_count` counts the generators of an oval configuration as a
  small permanent, independently of the row-mask table of
  `OvalConfig.slice_sizes`;
* `corner_index` reads a domain's corner index at a crossing, and
  `euler_discrepancy` and `validate_periodic_domains` check an oval
  arrangement against the Euler formula and the periodic domains of its
  ovals;
* `refilled` passes a complex filled entry by entry through
  `SparseComplex.from_arrays`, the one routine that checks a complex's
  gradings and ``d^2 = 0``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from gridhfk.chains import (
    LongMoves,
    SparseComplex,
    _permutations,
    long_complex,
    oval_generators,
)
from gridhfk.errors import NonUnitPivot, ScheduleAssertionFailed
from gridhfk.gridkit import (
    SCALE,
    GridDiagram,
    LaurentPoly,
    Point,
)
from gridhfk.ovalgeo import (
    Arrangement,
    Oval,
    OvalConfig,
    build_config,
    retraction_schedule,
)


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


def maslov(points: tuple[Point, ...], o_punct: tuple[Point, ...], shift: int) -> int:
    """Maslov grading from dominance counts against the O punctures.

    ``shift`` is +1 for cell generators and 0 for oval generators.
    """
    return (
        dominance_count(points, points)
        - dominance_count(points, o_punct)
        - dominance_count(o_punct, points)
        + dominance_count(o_punct, o_punct)
        + shift
    )


class Laurent(LaurentPoly):
    """A `LaurentPoly` with the ring operations; the other operand may be any `LaurentPoly`."""

    __slots__ = ()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "Laurent":
        return Laurent({exp: coeff})

    def __add__(self, other: LaurentPoly) -> "Laurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly) -> "Laurent":
        return self + -Laurent(other.terms)

    def __mul__(self, other: LaurentPoly) -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative power")
        result = Laurent.one()
        for _ in range(k):
            result = result * self
        return result

    def shifted(self, k: int) -> "Laurent":
        """Multiply by ``t^k``."""
        return Laurent({e + k: c for e, c in self.terms.items()})

    def inverse_t(self) -> "Laurent":
        """Substitute ``t -> 1/t``."""
        return Laurent({-e: c for e, c in self.terms.items()})

    def eval_at_unit(self, v: int) -> int:
        """Evaluate at ``t = v`` for ``v`` in ``{1, -1}``."""
        if v not in (1, -1):
            raise ValueError("only evaluation at a unit is supported")
        return sum(c * v ** (e % 2) for e, c in self.terms.items())


def laurent_determinant(matrix: list[list[LaurentPoly]]) -> Laurent:
    """Determinant by cofactor expansion memoized on the surviving column set."""
    n = len(matrix)
    memo: dict[int, dict[int, int]] = {}

    def det(row: int, mask: int) -> dict[int, int]:
        if row == n:
            return {0: 1}
        cached = memo.get(mask)
        if cached is not None:
            return cached
        total: dict[int, int] = {}
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            minor = det(row + 1, mask & ~bit)
            for e1, c1 in matrix[row][j].terms.items():
                for e2, c2 in minor.items():
                    total[e1 + e2] = total.get(e1 + e2, 0) + sign * c1 * c2
            sign = -sign
        memo[mask] = total
        return total

    return Laurent(det(0, (1 << n) - 1))


def reduce_faithful(
    cx: SparseComplex, pairs_by_event: list[tuple[list, list]]
) -> SparseComplex:
    """Cancel the scheduled pairs event by event.  In place.

    Every matched entry must be a unit when its turn comes; anything else
    means the schedule's bookkeeping does not match the complex and raises
    `ScheduleAssertionFailed`.
    """
    for t, (srcs, dsts) in enumerate(pairs_by_event):
        for a, b in zip(srcs, dsts):
            if a not in cx.rows or b not in cx.rows:
                raise ScheduleAssertionFailed(
                    f"event {t}: pair member already cancelled"
                )
            if cx.rows[a].get(b, 0) not in (1, -1):
                raise ScheduleAssertionFailed(
                    f"event {t}: matched entry {cx.rows[a].get(b, 0)} is not a unit"
                )
            try:
                cx.cancel_pair(a, b)
            except NonUnitPivot as exc:  # pragma: no cover - guarded above
                raise ScheduleAssertionFailed(str(exc)) from exc
    return cx


def tuple_event_pairs(gens, events) -> list[tuple[list, list]]:
    """Schedule pairs for a tuple-keyed complex.

    A generator dies at the first event killing one of its points; at that
    event it contains exactly one dying point and its partner replaces that
    point by the other one.
    """
    death = {}
    for t, ev in enumerate(events):
        death[ev.p1] = t
        death[ev.p2] = t
    out: list[tuple[list, list]] = [([], []) for _ in events]
    for x in gens:
        t = min((death.get(p, len(events)) for p in x), default=len(events))
        if t == len(events):
            continue
        ev = events[t]
        if ev.p1 in x:
            partner = tuple(sorted(ev.p2 if p == ev.p1 else p for p in x))
            out[t][0].append(x)
            out[t][1].append(partner)
    return out


def faithful_short(g, omit, keep_a2=None) -> SparseComplex:
    """The long complex (or its ``keep_a2`` slices), reduced along the schedule."""
    events = retraction_schedule(g, omit)[2]
    cx = long_complex(g, omit, keep_a2=keep_a2)
    return reduce_faithful(cx, tuple_event_pairs(list(cx.grading), events))


def long_gradings(moves: LongMoves, x) -> tuple[int, int]:
    """(a2, maslov) of a generator whose points lie on the configuration of ``moves``."""
    config = moves.config
    a2 = sum(config.a2_of[p] for p in x) + config.const2
    return a2, int(moves.maslov(moves.encode([x]))[0])


def decode(moves: LongMoves, ids) -> tuple:
    """The generator whose point ids, in the numbering of ``moves``, are ``ids``."""
    return tuple(map(moves.points.__getitem__, ids))


def enumerated_long_euler(g, omit) -> LaurentPoly:
    """Graded Euler characteristic of the long complex, one generator at a time."""
    moves = LongMoves(build_config(g, omit, "long"))
    terms: dict[int, int] = {}
    for x, _ in oval_generators(moves.config):
        a2, m = long_gradings(moves, x)
        terms[a2 // 2] = terms.get(a2 // 2, 0) + 1 - 2 * (m % 2)
    return LaurentPoly(terms)


def long_euler(g, omit) -> LaurentPoly:
    """Graded Euler characteristic of the long oval complex, in t = T^(a2/2).

    A generator matches the k kept columns to the k kept rows by a
    permutation s and picks one of the crossings of each matched oval pair.
    Its points sort by column and by row alike, so its self-dominance count
    is the number of non-inversions of s, which has the parity of
    C(k, 2) + inv(s); the dominance counts against the O markings and the
    per-point Alexander terms are sums over single points.  Summing
    (-1)^Maslov t^Alexander over all generators is therefore

        (-1)^(C(k, 2) + (k + 1) I(O, O)) t^(c/2) det F,

    where c is the doubled-Alexander constant and F[i][j] sums
    (-1)^m(p) t^(a2(p)/2) over the crossings p of the i-th kept column with
    the j-th kept row, m(p) being the Maslov grading of the single point p.
    """
    config = build_config(g, omit, "long")
    o_punct = g.o_punctures()
    matrix = []
    for c in config.kept_cols():
        row = []
        for r in config.kept_rows():
            terms: dict[int, int] = {}
            for p in config.points.get((c, r), ()):
                exp = config.a2_of[p] // 2
                terms[exp] = terms.get(exp, 0) + 1 - 2 * (maslov((p,), o_punct, 0) % 2)
            row.append(LaurentPoly(terms))
        matrix.append(row)
    k = len(config.kept_cols())
    ioo = maslov((), o_punct, 0)  # I(O, O)
    sign = 1 - 2 * ((k * (k - 1) // 2 + (k + 1) * ioo) % 2)
    return Laurent.monomial(config.const2 // 2, sign) * laurent_determinant(matrix)


def short_complex_digest(cx: SparseComplex) -> str:
    """SHA-256 of the ordered gradings, rows and columns of a complex."""
    h = hashlib.sha256()
    h.update(repr(list(cx.grading.items())).encode())
    h.update(repr([(x, list(row.items())) for x, row in cx.rows.items()]).encode())
    h.update(repr([(y, list(col.items())) for y, col in cx.cols.items()]).encode())
    return h.hexdigest()


def mos_generators(g: GridDiagram) -> list[tuple]:
    """Cell generators as point tuples, in lexicographic order of their permutations.

    Entry ``r`` is the generator `chains.mos_complex` keys by rank ``r``.
    """
    n = g.n
    points = [[(SCALE * c, SCALE * r) for r in range(n)] for c in range(n)]
    return [tuple(map(list.__getitem__, points, p)) for p in _permutations(n)[0].tolist()]


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


def corner_index(arr: Arrangement, domain: dict[int, int], p) -> int:
    """``a_NE + a_SW - a_NW - a_SE`` of a domain at a crossing point."""
    ne, nw, sw, se = arr.corner_pieces(p)
    get = domain.get
    return get(ne, 0) + get(sw, 0) - get(nw, 0) - get(se, 0)


def euler_discrepancy(arr: Arrangement) -> int:
    """Zero when the piece count satisfies the transversal-curves Euler formula.

    The formula: pieces = crossings + connected components of the union of
    the ovals + 1.
    """
    ovals = arr.config.ovals()
    ids = {(o.kind, o.index): k for k, o in enumerate(ovals)}
    parent = list(range(len(ovals)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c, r in arr.config.points:
        a, b = find(ids[("V", c)]), find(ids[("H", r)])
        if a != b:
            parent[a] = b
    components = len({find(k) for k in range(len(ovals))})
    return arr.piece_count - (len(arr.config.all_points()) + components + 1)


def periodic_domain(arr: Arrangement, oval: Oval) -> dict[int, int]:
    """Multiplicity-one domain filling the inside of one oval."""
    domain: dict[int, int] = {}
    coords = arr.coords
    for i in range(arr.cells):
        if not (oval.x1 <= coords[i] and coords[i + 1] <= oval.x2):
            continue
        for j in range(arr.cells):
            if oval.y1 <= coords[j] and coords[j + 1] <= oval.y2:
                domain[arr._piece[i][j]] = 1
    return domain


def validate_periodic_domains(arr: Arrangement) -> None:
    """Each oval's inside has zero corner indices and exactly two punctures."""
    punctures = arr.config.grid.punctures()
    crossings = arr.config.all_points()
    for oval in arr.config.ovals():
        domain = periodic_domain(arr, oval)
        inside = [
            q for q in punctures if oval.x1 < q[0] < oval.x2 and oval.y1 < q[1] < oval.y2
        ]
        if len(inside) != 2:
            raise ScheduleAssertionFailed(
                f"{oval.kind}{oval.index} contains {len(inside)} punctures, expected 2"
            )
        for p in crossings:
            if corner_index(arr, domain, p) != 0:
                raise ScheduleAssertionFailed(
                    f"periodic domain of {oval.kind}{oval.index} has a corner at {p}"
                )


def refilled(cx: SparseComplex) -> SparseComplex:
    """The same complex, insertion order included, built by `SparseComplex.from_arrays`.

    So a complex filled entry by entry is checked as an array-built one
    is: every entry keeping a2 and lowering the Maslov grading by one, and
    the boundary squaring to zero.
    """
    gens = list(cx.grading)
    index = {x: i for i, x in enumerate(gens)}
    a2, maslov = np.array(list(cx.grading.values()), dtype=np.int64).reshape(-1, 2).T
    entries = [(index[x], index[y], c) for x, row in cx.rows.items() for y, c in row.items()]
    src, dst, coeff = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return SparseComplex.from_arrays(cx.ring, gens, a2, maslov, src, dst, coeff)
