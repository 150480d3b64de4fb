"""Chain complexes over the grid: generators, gradings, boundary maps.

Two complexes are built from the same diagram:

* the **cell complex** (`mos_complex`): generators are the ``n!`` ways to
  place one point on each vertical and horizontal grid line, and the
  boundary counts empty rectangles on the torus.  Generators are keyed by
  the lexicographic rank of their permutations.  It is built from arrays
  over all permutations at once: gradings as dominance counts, and
  emptiness from one marking table per grid against per-size tables of
  swap targets and point-free rectangles (`_swap_tables`).  Signs come
  from a per-size table of spin lifts (`_spin_lifts`).  Both per-size
  tables are built once per process, on first use;
* the **long oval complex** (`long_complex`): generators place one point on
  each intersection of a vertical with a horizontal oval, and the boundary
  counts empty bigons (cap flips) and empty planar rectangles.  Only the
  tests and `hfkbench` build it, as a reference: a run forms only the rows
  its short rows reach, a batch of generators at a time (`LongMoves`, in
  `domains_paths.PathEngine`).

Both carry a Maslov grading (homological) and a doubled Alexander grading
``a2`` (stored doubled so that every value is an integer).  The Maslov
grading comes from a dominance-pair count against the O-markings, the
Alexander grading from dominance counts against both kinds of marking.
Per point of an oval generator the Alexander term is minus twice the
winding number there (asserted in tests).

`SparseComplex` is the shared container: a dict-of-dicts matrix with row
and column views, supporting unit-pivot cancellation, which is all the
reduction machinery needs.
"""

from __future__ import annotations

from collections.abc import Hashable
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

from .errors import (
    AlexanderConstantInvalid,
    BoundarySquareNonzero,
    DuplicateGenerator,
    GradingViolation,
    GridTooLarge,
    InvalidOmission,
    NonUnitPivot,
    RectangleCornerMissing,
    SignAssignmentFailed,
)
from .gridkit import (
    CENTER,
    SCALE,
    GridDiagram,
    Point,
    dominance_count,
)
from .ovalgeo import H_HALF, V_HALF, OvalConfig, build_config

#: An oval generator: the sorted tuple of its points (scaled coordinates).
Gen = tuple[Point, ...]


# --------------------------------------------------------------------------
# gradings


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
# sparse complexes


class SparseComplex:
    """A graded boundary matrix over Z or Z/2 with row and column views.

    ``rows[x][y]`` is the coefficient of ``y`` in the boundary of ``x``;
    ``cols`` is the transpose view kept in lockstep.  ``grading[x]`` is the
    pair ``(a2, maslov)``.  Generators are any hashable labels: point tuples
    in the oval complexes, permutation ranks in the rectangle complex.
    """

    __slots__ = ("ring", "grading", "rows", "cols")

    def __init__(self, ring: str = "Z"):
        if ring not in ("Z", "Z2"):
            raise ValueError(f"unknown coefficient ring {ring!r}")
        self.ring = ring
        self.grading: dict[Hashable, tuple[int, int]] = {}
        self.rows: dict[Hashable, dict[Hashable, int]] = {}
        self.cols: dict[Hashable, dict[Hashable, int]] = {}

    # -- construction

    def add_generator(self, gen: Hashable, a2: int, m: int) -> None:
        if gen in self.grading:
            raise DuplicateGenerator(f"duplicate generator {gen}")
        self.grading[gen] = (a2, m)
        self.rows[gen] = {}
        self.cols[gen] = {}

    def add_entry(self, x: Hashable, y: Hashable, coeff: int) -> None:
        if self.ring == "Z2":
            coeff &= 1
        if not coeff:
            return
        row = self.rows[x]
        new = row.get(y, 0) + coeff
        if self.ring == "Z2":
            new &= 1
        if new:
            row[y] = new
            self.cols[y][x] = new
        else:
            row.pop(y, None)
            self.cols[y].pop(x, None)

    # -- inspection

    def entry(self, x: Hashable, y: Hashable) -> int:
        return self.rows[x].get(y, 0)

    @property
    def generator_count(self) -> int:
        return len(self.grading)

    @property
    def entry_count(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def generators(self) -> list[Hashable]:
        return list(self.grading)

    def mod2(self) -> "SparseComplex":
        """The same generators and gradings with every entry reduced mod 2."""
        other = SparseComplex("Z2")
        for x, (a2, m) in self.grading.items():
            other.add_generator(x, a2, m)
        for x, row in self.rows.items():
            for y, c in row.items():
                other.add_entry(x, y, c)
        return other

    def assert_entries_unit(self) -> None:
        for x, row in self.rows.items():
            for y, c in row.items():
                if c not in (1, -1):
                    raise SignAssignmentFailed(f"non-unit entry {c} at {x} -> {y}")

    def grading_violation(self):
        """Return an edge that fails (a2 preserved, maslov drops by 1)."""
        for x, row in self.rows.items():
            a2, m = self.grading[x]
            for y in row:
                b2, k = self.grading[y]
                if b2 != a2 or k != m - 1:
                    return (x, y)
        return None

    def check_grading(self) -> None:
        bad = self.grading_violation()
        if bad is not None:
            x, y = bad
            raise GradingViolation(
                f"edge {x} -> {y} goes from grading {self.grading[x]} "
                f"to {self.grading[y]}"
            )

    def d_squared_violation(self):
        """Return ``(x, z, coeff)`` witnessing a nonzero entry of the square."""
        mod2 = self.ring == "Z2"
        for x, row in self.rows.items():
            acc: dict[Hashable, int] = {}
            for y, c in row.items():
                for z, d in self.rows[y].items():
                    acc[z] = acc.get(z, 0) + c * d
            for z, total in acc.items():
                if (total & 1) if mod2 else total:
                    return (x, z, total)
        return None

    def check_d_squared(self) -> None:
        bad = self.d_squared_violation()
        if bad is not None:
            raise BoundarySquareNonzero(
                f"d^2 has entry {bad[2]} from {bad[0]} to {bad[1]}"
            )

    # -- reduction primitive

    def cancel_pair(self, x: Hashable, y: Hashable) -> None:
        """Cancel the edge ``x -> y``; its coefficient must be a unit.

        All other incoming edges of ``y`` are pushed through the inverse:
        for ``u -> y`` and ``x -> v`` the entry ``u -> v`` gains
        ``-coeff(u,y) * coeff(x,y)^{-1} * coeff(x,v)``.
        """
        s = self.rows[x].get(y, 0)
        # a unit is its own inverse, and a Z/2 entry is stored as 1
        if s not in (1, -1):
            raise NonUnitPivot(f"pivot {s} at {x} -> {y}")
        into_y = [(u, c) for u, c in self.cols[y].items() if u != x]
        from_x = [(v, c) for v, c in self.rows[x].items() if v != y]
        self._drop(x)
        self._drop(y)
        for u, cu in into_y:
            for v, cv in from_x:
                self.add_entry(u, v, -cu * s * cv)

    def _drop(self, gen: Hashable) -> None:
        for y in self.rows[gen]:
            del self.cols[y][gen]
        for u in self.cols[gen]:
            del self.rows[u][gen]
        del self.rows[gen]
        del self.cols[gen]
        del self.grading[gen]


# --------------------------------------------------------------------------
# signs


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of ``range(n)`` in lexicographic order, with codes.

    A permutation's code reads its entries as base-``n`` digits, so codes
    increase with the lexicographic rank and ``np.searchsorted(codes, c)``
    turns a code back into a rank.  Both arrays are read-only.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    codes = perms @ _digit_weights(n)
    perms.flags.writeable = codes.flags.writeable = False
    return perms, codes


def _digit_weights(n: int) -> np.ndarray:
    return n ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _swap_ranks(n: int, ranks: np.ndarray, i: int, j: int) -> np.ndarray:
    """Ranks of the permutations ``ranks`` with positions ``i`` and ``j`` swapped."""
    perms, codes = _permutations(n)
    w = _digit_weights(n)
    a, b = perms[ranks, i], perms[ranks, j]
    return np.searchsorted(codes, codes[ranks] + (b - a) * (w[i] - w[j]))


def _inversions(perms: np.ndarray) -> np.ndarray:
    n = perms.shape[1]
    inv = np.zeros(len(perms), dtype=np.int64)
    for k in range(n):
        for l in range(k + 1, n):
            inv += perms[:, k] > perms[:, l]
    return inv


def _lift_dtypes(n: int) -> tuple[type, type]:
    """Storage and working integer types of the spin lifts.

    The largest lift coefficient through ``n = 8`` is 4096, so ``int16``
    stores every lift and ``int32`` holds every product the sign checks
    form (at most ``2 * 4096 * 4096``).
    """
    return (np.int16, np.int32) if n <= 8 else (np.int64, np.int64)


@lru_cache(maxsize=None)
def _gamma_action(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Right multiplication by each Clifford generator ``g_t``, on coefficient arrays.

    An element is an array over the ``2^n`` basis monomials (bitmasks of
    generator indices, factors in increasing order).  For each ``t`` this
    returns ``(src, sign)`` with ``(elem * g_t)[..., m] ==
    sign[m] * elem[..., src[m]]``: moving ``g_t`` left past the factors
    above ``t`` gives one minus sign each, and ``g_t * g_t = -1``.
    """
    work = _lift_dtypes(n)[1]
    out = []
    for t in range(n):
        bit = 1 << t
        above = ~((bit << 1) - 1)
        src = np.arange(1 << n) ^ bit
        sign = np.array(
            [
                (-1) ** ((m & above).bit_count() + (1 if m & bit else 0))
                for m in src.tolist()
            ],
            dtype=work,
        )
        src.flags.writeable = sign.flags.writeable = False
        out.append((src, sign))
    return tuple(out)


def _times_diff(elem: np.ndarray, action, i: int, j: int) -> np.ndarray:
    """``elem * (g_i - g_j)`` for a stack of elements (one per row)."""
    (si, gi), (sj, gj) = action[i], action[j]
    return np.take(elem, si, axis=1) * gi - np.take(elem, sj, axis=1) * gj


@lru_cache(maxsize=None)
def _spin_lifts(n: int) -> np.ndarray:
    """Lifts of all permutations to the Clifford algebra, one row per rank.

    The permutations are lifted to a double cover by peeling off the first
    descent: ``lift(p) = lift(p with first descent resolved) * (g_k -
    g_{k+1})`` on ``n`` anticommuting generators with ``g_i * g_i = -1``,
    starting from ``lift(identity) = 1``.  Swapping positions ``i < j`` of
    a permutation multiplies its lift by ``(g_i - g_j)`` up to a scalar
    ``+-2^k``; the sign of that scalar is the edge sign (`_edge_signs`).
    Multiplying the two edge signs around any square of transpositions gives
    ``-1``, which is exactly the anticommutation the boundary needs to
    square to zero.

    The table is filled one inversion count at a time, every parent having
    one inversion fewer.  Row ``r`` holds the coefficients of the lift of
    the permutation of lexicographic rank ``r`` over the ``2^n`` monomials.
    """
    perms, _codes = _permutations(n)
    action = _gamma_action(n)
    store, work = _lift_dtypes(n)
    limit = np.iinfo(store).max
    table = np.zeros((len(perms), 1 << n), dtype=store)
    table[0, 0] = 1  # rank 0 is the identity
    inv = _inversions(perms)
    descent = (perms[:, :-1] > perms[:, 1:]).argmax(axis=1)
    for level in range(1, int(inv.max(initial=0)) + 1):
        ranks = np.flatnonzero(inv == level)
        for k in range(n - 1):
            sub = ranks[descent[ranks] == k]
            if not sub.size:
                continue
            parents = table[_swap_ranks(n, sub, k, k + 1)].astype(work)
            lifted = _times_diff(parents, action, k, k + 1)
            if np.abs(lifted).max() > limit:
                raise OverflowError(f"spin lift coefficient exceeds {store.__name__}")
            table[sub] = lifted
    table.flags.writeable = False
    return table


#: Edges whose signs are evaluated in one batch (bounds the scratch arrays).
_SIGN_BATCH = 2048


def _edge_signs(n: int, src: np.ndarray, dst: np.ndarray, i: int, j: int) -> np.ndarray:
    """Signs of the moves swapping positions ``i < j``, from rank ``src`` to ``dst``.

    Compares ``lift(src) * (g_i - g_j)`` with ``lift(dst)``: the two must
    have the same support and differ by one signed power of two, the same
    on every monomial; anything else raises `SignAssignmentFailed`.
    """
    lifts = _spin_lifts(n)
    action = _gamma_action(n)
    work = _lift_dtypes(n)[1]
    out = np.empty(len(src), dtype=np.int64)
    for lo in range(0, len(src), _SIGN_BATCH):
        hi = lo + _SIGN_BATCH
        prod = _times_diff(lifts[src[lo:hi]].astype(work), action, i, j)
        target = lifts[dst[lo:hi]].astype(work)
        support = target != 0
        if not (np.array_equal(prod != 0, support) and support.any(axis=1).all()):
            raise SignAssignmentFailed("lift supports disagree along an edge")
        key = support.argmax(axis=1)
        rows = np.arange(len(key))
        a, b = prod[rows, key], target[rows, key]
        big = np.maximum(np.abs(a), np.abs(b))
        small = np.minimum(np.abs(a), np.abs(b))
        ratio = big // small
        if (big % small).any() or (ratio & (ratio - 1)).any():
            raise SignAssignmentFailed("edge ratio is not a signed power of two")
        if not (prod * b[:, None] == target * a[:, None]).all():
            raise SignAssignmentFailed("edge ratio differs between monomials")
        out[lo:hi] = np.where((a > 0) == (b > 0), 1, -1)
    return out


# --------------------------------------------------------------------------
# cell (rectangle) complex


def _cyclic_open(lo: np.ndarray, hi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether ``v`` lies in the cyclic open interval ``(lo, hi)``, row by row."""
    lo, hi = lo[:, None], hi[:, None]
    return np.where(lo < hi, (lo < v) & (v < hi), (lo < v) | (v < hi))


@lru_cache(maxsize=None)
def _swap_tables(n: int):
    """What the rectangle complex needs of the permutations alone, per size.

    Returns ``(pairs, target, inner_empty, wraps_empty)``.  ``pairs`` is the
    tuple of column pairs ``i < j``; the arrays have one row per permutation
    rank and one column per pair.  ``target`` is the rank with positions
    ``i`` and ``j`` swapped, in the narrowest unsigned type that holds
    ``n! - 1``.  ``inner_empty`` says that no point of the generator lies
    strictly inside the rectangle with columns ``[i, j)`` and rows
    ``[p[i], p[j])``, ``wraps_empty`` the same for the one with columns
    ``[j, i)`` and rows ``[p[j], p[i])``.  The arrays are read-only.
    """
    perms, _codes = _permutations(n)
    everything = np.arange(len(perms))
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    shape = (len(perms), len(pairs))
    target = np.empty(shape, dtype=np.min_scalar_type(len(perms) - 1))
    inner_empty = np.empty(shape, dtype=bool)
    wraps_empty = np.empty(shape, dtype=bool)
    for col, (i, j) in enumerate(pairs):
        a, b = perms[:, i], perms[:, j]
        outside = np.concatenate([perms[:, :i], perms[:, j + 1:]], axis=1)
        inner_empty[:, col] = ~_cyclic_open(a, b, perms[:, i + 1:j]).any(axis=1)
        wraps_empty[:, col] = ~_cyclic_open(b, a, outside).any(axis=1)
        target[:, col] = _swap_ranks(n, everything, i, j)
    for table in (target, inner_empty, wraps_empty):
        table.flags.writeable = False
    return pairs, target, inner_empty, wraps_empty


def _marking_free(g: GridDiagram) -> np.ndarray:
    """``free[ci, cj, ra, rb]``: no marking in columns ``[ci, cj)``, rows ``[ra, rb)``.

    Both intervals are cyclic and half-open, so ``ci > cj`` is a rectangle
    that wraps the vertical seam of the torus (and likewise for rows).
    """
    n = g.n
    v = np.arange(n)
    s, e, x = v[:, None, None], v[None, :, None], v[None, None, :]
    inside = np.where(s < e, (s <= x) & (x < e), (s <= x) | (x < e))
    cols = np.concatenate([v, v])
    rows = np.array(g.xs + g.os)
    hits = inside[:, :, cols].reshape(n * n, 2 * n).astype(np.int64)
    hits_r = inside[:, :, rows].reshape(n * n, 2 * n).astype(np.int64)
    return (hits @ hits_r.T == 0).reshape(n, n, n, n)


def _cell_gradings(g: GridDiagram, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled Alexander and Maslov gradings of every cell generator.

    The dominance counts of `alexander2_dominance` and `gridkit.maslov`, with
    generator ``p`` placing its points at ``(SCALE*k, SCALE*p[k])`` and the
    markings at cell centres: a point is southwest of the marking in column
    ``c`` and row ``r`` iff ``k <= c`` and ``p[k] <= r``, and the marking
    is southwest of the point iff ``c < k`` and ``r < p[k]``.
    """
    n = g.n
    k = np.arange(n)[:, None, None]
    row = np.arange(n)[None, :, None]
    c = np.arange(n)[None, None, :]
    cols = np.arange(n)

    def against(marks: tuple[int, ...]) -> np.ndarray:
        r = np.array(marks)[None, None, :]
        table = (((k <= c) & (row <= r)) | ((c < k) & (r < row))).sum(axis=2)
        return table[cols, perms].sum(axis=1)

    x_p, o_p = g.x_punctures(), g.o_punctures()
    oo = dominance_count(o_p, o_p)
    xx = dominance_count(x_p, x_p)
    with_o = against(g.os)
    rising = n * (n - 1) // 2 - _inversions(perms)
    a2 = against(g.xs) - with_o - xx + oo - (n - 1)
    m = rising - with_o + oo + 1
    return a2, m


def mos_complex(g: GridDiagram, ring: str = "Z") -> SparseComplex:
    """The rectangle complex of the diagram: ``n!`` generators.

    Generators are keyed by the lexicographic rank of their permutations
    (rank ``r`` places its point of column ``k`` in row ``p[k]``, ``p`` the
    permutation of rank ``r``).  Swapping the points in columns ``i < j`` is
    the boundary of two torus rectangles: columns ``[i, j)`` with rows
    ``[p[i], p[j])``, and the one with the other column and row intervals,
    columns ``[j, i)`` with rows ``[p[j], p[i])`` (both intervals cyclic).
    A rectangle counts when it holds no marking (`_marking_free`) and no
    point of the generator strictly inside (the per-size `_swap_tables`).
    Over ``Z`` the edge carries the sign of the spin lift (`_edge_signs`),
    negated for the rectangle that wraps the seam where the torus was cut
    open.
    """
    n = g.n
    perms, _codes = _permutations(n)
    signed = ring == "Z"
    free = _marking_free(g)
    pairs, target, inner_empty, wraps_empty = _swap_tables(n)
    coeff = np.zeros(target.shape, dtype=np.int8)
    for col, (i, j) in enumerate(pairs):
        a, b = perms[:, i], perms[:, j]
        inner = free[i, j, a, b] & inner_empty[:, col]
        wraps = free[j, i, b, a] & wraps_empty[:, col]
        if signed:
            live = np.flatnonzero(inner | wraps)
            sign = _edge_signs(n, live, target[live, col], i, j)
            coeff[live, col] = sign * (inner[live].astype(np.int8) - wraps[live])
        else:
            coeff[:, col] = inner ^ wraps

    # one int object per rank, shared by every dict keyed by it
    gens = list(range(len(perms)))
    a2, m = _cell_gradings(g, perms)
    cx = SparseComplex(ring)
    cx.grading = dict(zip(gens, zip(a2.tolist(), m.tolist())))
    rows = cx.rows = {x: {} for x in gens}
    cols = cx.cols = {x: {} for x in gens}
    src, col = np.nonzero(coeff)
    for s, t, c in zip(src.tolist(), target[src, col].tolist(), coeff[src, col].tolist()):
        x, y = gens[s], gens[t]
        rows[x][y] = c
        cols[y][x] = c
    if signed:
        cx.assert_entries_unit()
    return cx


# --------------------------------------------------------------------------
# oval complex


class _OvalFrame:
    """Per-configuration tables shared by generator and boundary builders."""

    def __init__(self, config: OvalConfig):
        self.config = config
        g = config.grid
        self.grid = g
        self.cols = config.kept_cols()
        self.rows = config.kept_rows()
        # a generator matches every kept column to its own kept row
        if len(self.cols) != len(self.rows):
            raise InvalidOmission(
                f"omitting {config.omit} leaves {len(self.cols)} vertical and "
                f"{len(self.rows)} horizontal ovals; the configuration must be square"
            )
        self.o_punct = g.o_punctures()
        self.punctures = g.punctures()
        x_punct = g.x_punctures()
        self.const2 = alexander2_dominance((), x_punct, self.o_punct, g.n)
        # every point contributes an even amount (minus twice its winding
        # number), so all generators share the constant's parity; integral
        # Alexander gradings force it
        if self.const2 % 2:
            raise AlexanderConstantInvalid("odd doubled-Alexander constant")
        #: per-point doubled Alexander contribution, and Maslov contribution:
        #: minus the O's strictly northeast or southwest of the point
        o_punct = self.o_punct
        self.a2_of: dict[Point, int] = {}
        self.m_of: dict[Point, int] = {}
        for pts in config.points.values():
            for p in pts:
                with_o = dominance_count((p,), o_punct) + dominance_count(o_punct, (p,))
                with_x = dominance_count((p,), x_punct) + dominance_count(x_punct, (p,))
                self.a2_of[p] = with_x - with_o
                self.m_of[p] = -with_o
        #: the Maslov grading's constant, I(O, O)
        self.m_const = dominance_count(o_punct, o_punct)
        #: puncture rows per column and columns per row (scaled centers)
        self.col_punct: dict[int, tuple[int, ...]] = {
            c: (SCALE * g.xs[c] + CENTER, SCALE * g.os[c] + CENTER) for c in range(g.n)
        }
        row_of: dict[int, list[int]] = {r: [] for r in range(g.n)}
        for c in range(g.n):
            row_of[g.xs[c]].append(SCALE * c + CENTER)
            row_of[g.os[c]].append(SCALE * c + CENTER)
        self.row_punct = {r: tuple(sorted(v)) for r, v in row_of.items()}

    def maslov(self, x: Gen) -> int:
        """Maslov grading of a generator whose points lie on this frame.

        ``I(x, x) - I(x, O) - I(O, x) + I(O, O)``, in one pass over ``x``.
        The points of ``x`` sort by column and lie on distinct horizontal
        ovals, so ``I(x, x)`` counts, for each point, the earlier points in
        lower rows: a popcount of the row bits seen so far.
        """
        m_of = self.m_of
        seen = 0
        total = self.m_const
        for p in x:
            bit = 1 << (p[1] // SCALE)
            total += (seen & (bit - 1)).bit_count() + m_of[p]
            seen |= bit
        return total


def _column_choices(frame: _OvalFrame):
    """Per kept column, ``(row index, [(point, a2 contribution)])`` of each
    kept row whose oval meets it: the branches of the generator walk."""
    choices: list[list[tuple[int, list[tuple[Point, int]]]]] = []
    for c in frame.cols:
        per_row = []
        for ri, r in enumerate(frame.rows):
            pts = frame.config.points.get((c, r), ())
            if pts:
                per_row.append((ri, [(p, frame.a2_of[p]) for p in pts]))
        choices.append(per_row)
    return choices


def _rest_sums(choices) -> list[dict[int, int]]:
    """For each bitmask of used rows, the a2 sums the remaining columns reach.

    Columns are matched in order, so a mask with ``d`` bits set has matched
    the first ``d`` columns; its entry maps each sum of the contributions
    of columns ``d..k-1`` over the unused rows to its number of generators.
    Built bottom-up from the full mask: setting a bit raises the mask.
    """
    k = len(choices)
    full = (1 << k) - 1
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


def slice_sizes(config: OvalConfig) -> dict[int, int]:
    """Number of generators in each nonempty a2 slice, by a2, ascending.

    Read from the row-mask table of `_rest_sums`, so no generator is listed.
    """
    frame = _OvalFrame(config)
    sums = _rest_sums(_column_choices(frame))[0]
    return {frame.const2 + s: sums[s] for s in sorted(sums)}


def oval_generators(
    config: OvalConfig, keep_a2: set[int] | None = None
) -> list[tuple[Gen, int]]:
    """All (generator, a2) pairs of the configuration.

    A generator chooses a bijection from kept columns to kept rows and one
    intersection point of each matched oval pair.  When ``keep_a2`` is
    given, a branch is pruned exactly when none of its completions has a
    kept a2 (read from the row-mask table of `_rest_sums`; the a2 grading
    is a sum of per-point contributions plus a diagram constant), so every
    branch walked emits a generator.  The order is the same either way.
    """
    frame = _OvalFrame(config)
    choices = _column_choices(frame)
    k = len(choices)
    # per row mask, the a2 sums of the matched columns from which the
    # remaining ones can still reach a kept a2
    allowed = None
    if keep_a2 is not None:
        targets = {a2 - frame.const2 for a2 in keep_a2}
        allowed = [{t - s for s in sums for t in targets} for sums in _rest_sums(choices)]

    out: list[tuple[Gen, int]] = []
    picked: list[Point] = []

    def walk(depth: int, used: int, acc: int) -> None:
        if depth == k:
            out.append((tuple(sorted(picked)), acc + frame.const2))
            return
        for ri, pts in choices[depth]:
            bit = 1 << ri
            if used & bit:
                continue
            for p, w in pts:
                if allowed is None or acc + w in allowed[used | bit]:
                    picked.append(p)
                    walk(depth + 1, used | bit, acc + w)
                    picked.pop()

    if allowed is None or 0 in allowed[0]:
        walk(0, 0, 0)
    return out


def a2_range(config: OvalConfig) -> tuple[int, int]:
    """The least and the greatest a2 grading of the configuration's generators.

    Exact: the extreme keys of `slice_sizes`.  Both share the even parity
    of the gradings, letting callers scan slices in steps of two.
    """
    a2s = list(slice_sizes(config))
    return a2s[0], a2s[-1]


def _bigon_targets(frame: _OvalFrame, p: Point) -> list[tuple[Point, str, int]]:
    """Flip moves available to the single point ``p``.

    Returns ``(new_point, kind, oval_key)`` triples where ``kind`` names the
    cap swept over and ``oval_key`` identifies the oval whose cap it is
    (column index for vertical ovals, row index for horizontal ones).
    An entry appears only if the swept region contains no puncture.
    """
    cfg = frame.config
    px, py = p
    c, r = px // SCALE, py // SCALE
    vo = cfg.v_ovals[c]
    ho = cfg.h_ovals[r]
    out = []
    if px == vo.x1:  # left wall: may flip right across the top cap
        if all(not (py < q < vo.y2) for q in frame.col_punct[c]):
            out.append(((vo.x2, py), "top", c))
    else:  # right wall: may flip left across the bottom cap
        if all(not (vo.y1 < q < py) for q in frame.col_punct[c]):
            out.append(((vo.x1, py), "bottom", c))
    if py == ho.y1:  # bottom wall: may flip up across the right cap
        if all(not (px < q < ho.x2) for q in frame.row_punct[r]):
            out.append(((px, ho.y2), "right", r))
    else:  # top wall: may flip down across the left cap
        if all(not (ho.x1 < q < px) for q in frame.row_punct[r]):
            out.append(((px, ho.y1), "left", r))
    return out


class LongMoves:
    """The differential of the full-height oval complex, in batches of rows.

    Generators are arrays of point ids: the configuration's points are
    numbered in sorted order, so a generator's id tuple sorts like its point
    tuple, and `encode` and `decode` convert at the edges.  A point sits on
    one vertical oval, whose points have consecutive ids, so a generator
    also packs into one integer (`pack`), with one base-``R`` digit per
    column (``R`` points on a column): the id minus the column's first id.
    Packed keys sort like point tuples.  What depends on one point (its
    horizontal oval, its walls, its flips) is tabulated by id up front, and
    the empty rectangles between two points on first use (`_corners`).
    Tables of ids are ``int16``: a configuration has at most ``4(n-1)^2``
    points, and keys pack only up to ``n = 12``.
    """

    def __init__(self, config: OvalConfig):
        frame = self.frame = _OvalFrame(config)
        #: id -> point, in sorted order, and back
        self.points = sorted(p for pts in config.points.values() for p in pts)
        self.id_of = {p: i for i, p in enumerate(self.points)}
        xs, ys = np.array(self.points, dtype=np.int64).reshape(-1, 2).T
        #: id -> the bit of its horizontal oval, whether it sits on a top
        #: wall, on a right wall, and its flips (across its vertical oval,
        #: then across its horizontal one; -1 where the cap is punctured)
        self._bit = (1 << ys // SCALE).astype(np.int32)
        self._top = ys % SCALE == CENTER + H_HALF
        self._right = xs % SCALE == CENTER + V_HALF
        self._flips = np.full((len(self.points), 2), -1, dtype=np.int16)
        for i, p in enumerate(self.points):
            for q, kind, _ in _bigon_targets(frame, p):
                self._flips[i, int(kind not in ("top", "bottom"))] = self.id_of[q]
        #: per column, its first id; the digit weights of `pack`
        column = xs // SCALE
        self._first = np.searchsorted(column, frame.cols)
        radix = int(np.bincount(column).max(initial=1))
        k = len(frame.cols)
        if radix**k >= 2**63:
            raise GridTooLarge(
                f"{k} columns of {radix} points each do not pack into 63 bits"
            )
        self._weights = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._radix = radix

    def encode(self, x: Gen) -> tuple[int, ...]:
        """The point ids of a generator, in the same (sorted) order."""
        return tuple(map(self.id_of.__getitem__, x))

    def decode(self, x: tuple[int, ...]) -> Gen:
        """The generator whose point ids are ``x``."""
        return tuple(map(self.points.__getitem__, x))

    def pack(self, ids: np.ndarray) -> np.ndarray:
        """One ``int64`` key per row of generator ids; keys sort like the rows."""
        return (ids - self._first) @ self._weights

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The generator ids of packed keys, one generator per row."""
        return keys[:, None] // self._weights % self._radix + self._first

    @cached_property
    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nw, se)``: new corner ids of the rectangle from id ``i`` up to ``j``.

        Indexed ``[i, j]``; meaningful where ``j`` lies northeast of ``i``.
        Both read -1 where a puncture lies inside, and ``nw`` reads -2 where
        a corner is not a point of the configuration.
        """
        x, y = np.array(self.points, dtype=np.int64).reshape(-1, 2).T
        id_at = np.full((x.max(initial=0) + 1, y.max(initial=0) + 1), -1, dtype=np.int16)
        for (px, py), i in self.id_of.items():
            id_at[px, py] = i
        nw = id_at[x[:, None], y[None, :]]
        se = id_at[x[None, :], y[:, None]]
        u, v = np.array(self.frame.punctures, dtype=np.int64).reshape(-1, 2).T
        # a puncture lies inside when it is northeast of i and southwest of j
        ne_of_i = ((x[:, None] < u) & (y[:, None] < v)).astype(np.int16)
        sw_of_j = ((u < x[:, None]) & (v < y[:, None])).astype(np.int16)
        punctured = ne_of_i @ sw_of_j.T > 0
        nw[(nw < 0) | (se < 0)] = -2
        nw[punctured] = se[punctured] = -1
        return nw, se

    def rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every boundary entry leaving the generators ``x``, one per row.

        ``x`` holds the point ids of one generator per row.  Returns
        ``(owner, target, sign)``: the row of ``x`` each entry leaves, the
        target's ids and the coefficient.  Entries are grouped by owner, in
        the order of ``x``; within a row come first the flips of each point
        in turn (across its vertical oval, then across its horizontal one),
        then the rectangles from ``x[i]`` to ``x[j]``, pairs ``i < j`` in
        lexicographic order.  No target repeats within a row.

        Each point of a generator sits on its own vertical oval, so ids are
        sorted by x-coordinate, a point is southwest of another exactly
        when it comes earlier and lies lower, and every move keeps each new
        point in the column of the point it replaces: targets need no sort.
        The points lie on distinct horizontal ovals, whose indices order
        them by height.

        Signs.  A flip of ``x[i]`` across its vertical oval has sign parity
        ``I(x, x)`` plus the number of earlier points on a right wall; a flip
        across its horizontal oval adds instead every right-wall point and
        the top-wall points of lower rows.  A rectangle from ``x[i]`` to
        ``x[j]`` (lower-left ``(a, b)``, upper-right ``(c, d)``) has parity
        ``I(x, x[y <= d])``, plus ``I(x, x[b < y <= d]) + 1`` when an odd
        number of points of ``x`` lie between the two columns below ``b``.
        ``I`` counts southwest pairs; only parities matter, and a point
        adds to ``I(x, ·)`` the parity of the points southwest of it.  Sets
        of points are bitmasks over the horizontal ovals, one per generator;
        the points lie on distinct ovals, so sums are unions.
        """
        count, k = x.shape
        bit = self._bit[x]
        upto = np.cumsum(bit, axis=1, dtype=np.int32)  # bits of x[0..i]
        i, j = np.triu_indices(k, 1)
        low, high = bit[:, i], bit[:, j]
        between = upto[:, j] - high - upto[:, i]  # bits of x[i+1..j-1]
        # rising, with no point of x inside (the others lie on other rows)
        rising = (high > low) & (between & -(low << 1) & ((high << 1) - 1) == 0)
        nw, se = self._corners
        corner = nw[x[:, i], x[:, j]]
        if (rising & (corner == -2)).any():
            b, q = np.argwhere(rising & (corner == -2))[0]
            p1, p2 = self.points[x[b, i[q]]], self.points[x[b, j[q]]]
            raise RectangleCornerMissing(
                f"rectangle from {p1} to {p2}: corner missing from config"
            )
        flip_to = self._flips[x].reshape(count, 2 * k)
        live = np.concatenate([flip_to >= 0, rising & (corner >= 0)], axis=1)
        owner, move = np.nonzero(live)
        target = x[owner]
        parity = np.empty(len(owner), dtype=np.int64)

        # odd: an odd number of points lies southwest of the point
        odd = np.bitwise_count((upto - bit) & (bit - 1)).astype(np.int32) & 1
        odd_bits = (odd * bit).sum(axis=1)
        total = odd.sum(axis=1)  # has the parity of I(x, x)
        right = self._right[x]

        flip = np.flatnonzero(move < 2 * k)
        o, m = owner[flip], move[flip]
        slot = m // 2
        target[flip, slot] = flip_to[o, m]
        across_vertical = np.cumsum(right, axis=1)[o, slot] - right[o, slot]
        top_bits = (self._top[x] * bit).sum(axis=1)[o]
        across_horizontal = right.sum(axis=1)[o] + np.bitwise_count(
            top_bits & (bit[o, slot] - 1)
        )
        parity[flip] = total[o] + np.where(m & 1, across_horizontal, across_vertical)

        rect = np.flatnonzero(move >= 2 * k)
        o, q = owner[rect], move[rect] - 2 * k
        a, c = i[q], j[q]
        target[rect, a] = corner[o, q]
        target[rect, c] = se[x[o, a], x[o, c]]
        low, high = low[o, q], high[o, q]
        odd_upto = odd_bits[o] & ((high << 1) - 1)
        below = np.bitwise_count(between[o, q] & (low - 1)) & 1
        parity[rect] = np.bitwise_count(odd_upto) + below * (
            np.bitwise_count(odd_upto & -(low << 1)) + 1
        )
        sign = 1 - 2 * (parity & 1)
        return owner, target, sign


def long_complex(
    g: GridDiagram,
    omit: tuple[int, int],
    ring: str = "Z",
    keep_a2: set[int] | None = None,
) -> SparseComplex:
    """The oval complex with full-height/width ovals, built directly.

    Boundary entries: empty cap flips (bigons) and empty planar rectangles
    spanned by a rising pair of points, all rows formed in one
    `LongMoves.rows` batch.  When ``keep_a2`` restricts the generators, the
    boundary preserves a2, so the restriction is a genuine subcomplex and no
    entries are lost.
    """
    config = build_config(g, omit, "long")
    moves = LongMoves(config)
    cx = SparseComplex(ring)
    listed = oval_generators(config, keep_a2)
    for x, a2 in listed:
        cx.add_generator(x, a2, moves.frame.maslov(x))
    gens = [x for x, _ in listed]
    ids = np.array([moves.encode(x) for x in gens], dtype=np.int64)
    ids = ids.reshape(len(gens), len(moves.frame.cols))
    owner, target, sign = moves.rows(ids)
    # the kept generator of each target, found among the sorted keys
    keys, wanted = moves.pack(ids), moves.pack(target)
    order = np.argsort(keys)
    found = order[np.searchsorted(keys, wanted, sorter=order).clip(max=len(keys) - 1)]
    if len(wanted) and not np.array_equal(keys[found], wanted):
        raise GradingViolation("move target escapes the kept a2 slices")
    for o, y, c in zip(owner.tolist(), found.tolist(), sign.tolist()):
        cx.add_entry(gens[o], gens[y], c)
    if ring == "Z":
        cx.assert_entries_unit()
    return cx
