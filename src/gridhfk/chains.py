"""Chain complexes over the grid: generators, gradings, boundary maps.

Two complexes are built from the same diagram:

* the **cell complex** (`mos_complex`): generators are the ``n!`` ways to
  place one point on each vertical and horizontal grid line, and the
  boundary counts empty rectangles on the torus.  It is built from arrays
  over all permutations at once (gradings as dominance counts, emptiness
  from one marking table per grid and comparisons on the columns inside
  each rectangle), with signs read from a per-size table of spin lifts
  (`_spin_lifts`) built once per process;
* the **long oval complex** (`long_complex`): generators place one point on
  each intersection of a vertical with a horizontal oval, and the boundary
  counts empty bigons (cap flips) and empty planar rectangles.  Only the
  tests and `hfkbench` build it, as a reference: a run pulls its rows one
  generator at a time (`LongMoves`, in `domains_paths.PathEngine`).

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

from bisect import bisect_left
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import (
    AlexanderConstantInvalid,
    BoundarySquareNonzero,
    DuplicateGenerator,
    GradingViolation,
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
    maslov,
)
from .ovalgeo import OvalConfig, build_config

#: A generator: the sorted tuple of its points (scaled coordinates).
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
    pair ``(a2, maslov)``.
    """

    __slots__ = ("ring", "grading", "rows", "cols")

    def __init__(self, ring: str = "Z"):
        if ring not in ("Z", "Z2"):
            raise ValueError(f"unknown coefficient ring {ring!r}")
        self.ring = ring
        self.grading: dict[Gen, tuple[int, int]] = {}
        self.rows: dict[Gen, dict[Gen, int]] = {}
        self.cols: dict[Gen, dict[Gen, int]] = {}

    # -- construction

    def add_generator(self, gen: Gen, a2: int, m: int) -> None:
        if gen in self.grading:
            raise DuplicateGenerator(f"duplicate generator {gen}")
        self.grading[gen] = (a2, m)
        self.rows[gen] = {}
        self.cols[gen] = {}

    def add_entry(self, x: Gen, y: Gen, coeff: int) -> None:
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

    def entry(self, x: Gen, y: Gen) -> int:
        return self.rows[x].get(y, 0)

    @property
    def generator_count(self) -> int:
        return len(self.grading)

    @property
    def entry_count(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def generators(self) -> list[Gen]:
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
            acc: dict[Gen, int] = {}
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

    def cancel_pair(self, x: Gen, y: Gen) -> None:
        """Cancel the edge ``x -> y``; its coefficient must be a unit.

        All other incoming edges of ``y`` are pushed through the inverse:
        for ``u -> y`` and ``x -> v`` the entry ``u -> v`` gains
        ``-coeff(u,y) * coeff(x,y)^{-1} * coeff(x,v)``.
        """
        s = self.rows[x].get(y, 0)
        if self.ring == "Z2":
            if s != 1:
                raise NonUnitPivot(f"pivot {s} at {x} -> {y}")
            inv = 1
        else:
            if s not in (1, -1):
                raise NonUnitPivot(f"pivot {s} at {x} -> {y}")
            inv = s
        into_y = [(u, c) for u, c in self.cols[y].items() if u != x]
        from_x = [(v, c) for v, c in self.rows[x].items() if v != y]
        self._drop(x)
        self._drop(y)
        for u, cu in into_y:
            for v, cv in from_x:
                self.add_entry(u, v, -cu * inv * cv)

    def _drop(self, gen: Gen) -> None:
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

    The dominance counts of `alexander2_dominance` and `maslov`, with
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


def mos_generators(g: GridDiagram) -> list[Gen]:
    """Cell generators in lexicographic order of their permutations."""
    n = g.n
    points = [[(SCALE * c, SCALE * r) for r in range(n)] for c in range(n)]
    return [tuple(map(list.__getitem__, points, p)) for p in _permutations(n)[0].tolist()]


def mos_complex(g: GridDiagram, ring: str = "Z") -> SparseComplex:
    """The rectangle complex of the diagram: ``n!`` generators.

    Built from arrays over all permutations.  Swapping the points in
    columns ``i < j`` is the boundary of two torus rectangles: columns
    ``[i, j)`` with rows ``[p[i], p[j])``, and the one with the other
    column and row intervals, columns ``[j, i)`` with rows ``[p[j], p[i])``
    (both intervals cyclic).  A
    rectangle counts when it holds no marking (`_marking_free`) and no point
    of the generator strictly inside.  Over ``Z`` the edge carries the sign
    of the spin lift (`_edge_signs`), negated for the rectangle that wraps
    the seam where the torus was cut open.
    """
    n = g.n
    perms, _codes = _permutations(n)
    signed = ring == "Z"
    free = _marking_free(g)
    everything = np.arange(len(perms))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coeff = np.zeros((len(perms), len(pairs)), dtype=np.int64)
    target = np.empty((len(perms), len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        a, b = perms[:, i], perms[:, j]
        outside = np.concatenate([perms[:, :i], perms[:, j + 1:]], axis=1)
        inner = free[i, j, a, b] & ~_cyclic_open(a, b, perms[:, i + 1:j]).any(axis=1)
        wraps = free[j, i, b, a] & ~_cyclic_open(b, a, outside).any(axis=1)
        target[:, col] = _swap_ranks(n, everything, i, j)
        if signed:
            live = np.flatnonzero(inner | wraps)
            sign = _edge_signs(n, live, target[live, col], i, j)
            coeff[live, col] = sign * (inner[live].astype(np.int64) - wraps[live])
        else:
            coeff[:, col] = inner ^ wraps

    gens = mos_generators(g)
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
        #: per-point doubled Alexander contribution
        self.a2_of: dict[Point, int] = {
            p: alexander2_dominance((p,), x_punct, self.o_punct, g.n) - self.const2
            for pts in config.points.values()
            for p in pts
        }
        #: puncture rows per column and columns per row (scaled centers)
        self.col_punct: dict[int, tuple[int, ...]] = {
            c: (SCALE * g.xs[c] + CENTER, SCALE * g.os[c] + CENTER) for c in range(g.n)
        }
        row_of: dict[int, list[int]] = {r: [] for r in range(g.n)}
        for c in range(g.n):
            row_of[g.xs[c]].append(SCALE * c + CENTER)
            row_of[g.os[c]].append(SCALE * c + CENTER)
        self.row_punct = {r: tuple(sorted(v)) for r, v in row_of.items()}


def oval_generators(
    config: OvalConfig, keep_a2: set[int] | None = None
) -> list[tuple[Gen, int]]:
    """All (generator, a2) pairs of the configuration.

    A generator chooses a bijection from kept columns to kept rows and one
    intersection point of each matched oval pair.  When ``keep_a2`` is
    given, branches whose reachable a2 interval misses every kept value are
    pruned (the a2 grading is a sum of per-point contributions plus a
    diagram constant, so interval bounds are exact).
    """
    frame = _OvalFrame(config)
    cols, rows = frame.cols, frame.rows
    k = len(cols)
    choices: list[list[tuple[int, list[tuple[Point, int]]]]] = []
    for c in cols:
        per_row = []
        for ri, r in enumerate(rows):
            pts = config.points.get((c, r), ())
            if pts:
                per_row.append((ri, [(p, frame.a2_of[p]) for p in pts]))
        choices.append(per_row)

    # suffix bounds on the remaining a2 contribution, for pruning
    lo_rest = [0] * (k + 1)
    hi_rest = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        vals = [w for _, pts in choices[i] for _, w in pts]
        lo_rest[i] = lo_rest[i + 1] + min(vals)
        hi_rest[i] = hi_rest[i + 1] + max(vals)
    keep = None if keep_a2 is None else sorted(keep_a2)

    out: list[tuple[Gen, int]] = []
    picked: list[Point] = []

    def feasible(acc: int, depth: int) -> bool:
        if keep is None:
            return True
        lo = acc + lo_rest[depth] + frame.const2
        hi = acc + hi_rest[depth] + frame.const2
        i = bisect_left(keep, lo)
        return i < len(keep) and keep[i] <= hi

    def walk(depth: int, used: int, acc: int) -> None:
        if depth == k:
            out.append((tuple(sorted(picked)), acc + frame.const2))
            return
        for ri, pts in choices[depth]:
            if used & (1 << ri):
                continue
            for p, w in pts:
                if not feasible(acc + w, depth + 1):
                    continue
                picked.append(p)
                walk(depth + 1, used | (1 << ri), acc + w)
                picked.pop()

    walk(0, 0, 0)
    return out


def a2_range(config: OvalConfig) -> tuple[int, int]:
    """Closed interval certainly containing every generator's a2 grading.

    Sums the per-column extremes of the point contributions, ignoring the
    row-matching constraint, so the bounds may be loose but never exclude a
    realized value.  Both endpoints share the even parity of the gradings,
    letting callers scan candidate slices in steps of two.
    """
    frame = _OvalFrame(config)
    lo = hi = frame.const2
    for c in frame.cols:
        vals = [
            frame.a2_of[p]
            for r in frame.rows
            for p in config.points.get((c, r), ())
        ]
        lo += min(vals)
        hi += max(vals)
    return lo, hi


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
    """On-demand rows of the full-height oval complex's differential.

    Enumerates the moves leaving one generator — cap flips and empty
    rectangles — without touching the rest of the complex, so path
    strategies can pull single rows lazily.  Rows are keyed by point ids:
    the configuration's points are numbered in sorted order, so a
    generator's id tuple sorts like its point tuple, and `encode` and
    `decode` convert at the edges.  What depends on one point (its row bit,
    its walls, its flips) is tabulated by id up front; whether the rectangle
    between two points misses every puncture is worked out on first use and
    kept under ``i * P + j``, with ``P`` points.
    """

    def __init__(self, config: OvalConfig):
        frame = self.frame = _OvalFrame(config)
        #: id -> point, in sorted order, and back
        self.points = sorted(p for pts in config.points.values() for p in pts)
        self.id_of = {p: i for i, p in enumerate(self.points)}
        #: id -> the bit of its horizontal oval, whether it sits on a top
        #: wall, on a right wall, and its flips as (new id, across a
        #: vertical oval?)
        self._bit = [1 << (y // SCALE) for _, y in self.points]
        self._top = [y % SCALE == 6 for _, y in self.points]
        self._right = [x % SCALE == 7 for x, _ in self.points]
        self._flips = [
            [
                (self.id_of[q], kind in ("top", "bottom"))
                for q, kind, _ in _bigon_targets(frame, p)
            ]
            for p in self.points
        ]
        #: i * P + j for a rising pair -> the new corners (nw, se), or None
        #: when punctured
        self._corners: dict[int, tuple[int, int] | None] = {}

    def encode(self, x: Gen) -> tuple[int, ...]:
        """The point ids of a generator, in the same (sorted) order."""
        return tuple(map(self.id_of.__getitem__, x))

    def decode(self, x: tuple[int, ...]) -> Gen:
        """The generator whose point ids are ``x``."""
        return tuple(map(self.points.__getitem__, x))

    def gradings(self, x: Gen) -> tuple[int, int]:
        """(a2, maslov) of a generator whose points lie on this frame."""
        frame = self.frame
        a2 = sum(frame.a2_of[p] for p in x) + frame.const2
        return a2, maslov(x, frame.o_punct, 0)

    def _new_corners(self, i: int, j: int) -> tuple[int, int] | None:
        """Corner ids of the rectangle from ``i`` up to ``j``; None if punctured."""
        (x1, y1), (x2, y2) = p, q = self.points[i], self.points[j]
        corners = None
        if not any(x1 < u < x2 and y1 < v < y2 for u, v in self.frame.punctures):
            nw, se = self.id_of.get((x1, y2)), self.id_of.get((x2, y1))
            if nw is None or se is None:
                raise RectangleCornerMissing(
                    f"rectangle from {p} to {q}: corner missing from config"
                )
            corners = nw, se
        self._corners[i * len(self.points) + j] = corners
        return corners

    def row(self, x: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """All boundary entries leaving ``x``, keyed by target, both as ids.

        Each point of ``x`` sits on its own vertical oval, so ``x`` is sorted
        by x-coordinate, a point of ``x`` is southwest of another exactly
        when it comes earlier and lies lower, and every move keeps each new
        point in the column of the point it replaces: targets need no sort.

        Signs.  A flip of ``x[i]`` across its vertical oval has sign parity
        ``I(x, x)`` plus the number of earlier points on a right wall; a flip
        across its horizontal oval adds instead every right-wall point and
        the top-wall points of lower rows.  A rectangle from ``x[i]`` to
        ``x[j]`` (lower-left ``(a, b)``, upper-right ``(c, d)``) has parity
        ``I(x, x[y <= d])``, plus ``I(x, x[b < y <= d]) + 1`` when an odd
        number of points of ``x`` lie between the two columns below ``b``.
        ``I`` counts southwest pairs.  Only parities matter, so one pass per
        row records them as bitmasks over the horizontal ovals, and each sign
        is then a few bit counts.  The points of ``x`` lie on distinct
        horizontal ovals, so their bits order them by height.
        """
        k = len(x)
        top, right = self._top, self._right
        bits = [self._bit[p] for p in x]
        # `odd` marks the points with an odd number of points southwest of
        # them, `tops` the points on a top wall
        seen = odd = tops = right_walls = 0
        for bit, p in zip(bits, x):
            if (seen & (bit - 1)).bit_count() % 2:
                odd |= bit
            seen |= bit
            if top[p]:
                tops |= bit
            if right[p]:
                right_walls += 1
        total = odd.bit_count()  # has the parity of I(x, x)
        rights = 0  # right-wall points before x[i]
        out: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(x):
            for q, vertical in self._flips[p]:
                if vertical:
                    e = total + rights
                else:
                    e = total + right_walls + (tops & (bits[i] - 1)).bit_count()
                out[x[:i] + (q,) + x[i + 1 :]] = -1 if e % 2 else 1
            if right[p]:
                rights += 1
        cached_corners = self._corners
        count = len(self.points)
        for i in range(k - 1):
            b = bits[i]
            base = x[i] * count
            lowest_above = 0  # bit of the lowest point passed so far above x[i]
            below = 0  # points passed so far below x[i]
            for j in range(i + 1, k):
                d = bits[j]
                if d < b:
                    below += 1
                    continue
                if lowest_above and d > lowest_above:
                    continue  # the rectangle contains that point of x
                lowest_above = d
                corners = cached_corners.get(base + x[j], False)
                if corners is False:
                    corners = self._new_corners(x[i], x[j])
                if corners is None:
                    continue
                upto_d = odd & ((d << 1) - 1)
                e = upto_d.bit_count()
                if below % 2:
                    e += (upto_d & -(b << 1)).bit_count() + 1
                nw, se = corners
                sign = -1 if e % 2 else 1
                out[x[:i] + (nw,) + x[i + 1 : j] + (se,) + x[j + 1 :]] = sign
        return out


def long_complex(
    g: GridDiagram,
    omit: tuple[int, int],
    ring: str = "Z",
    keep_a2: set[int] | None = None,
) -> SparseComplex:
    """The oval complex with full-height/width ovals, built directly.

    Boundary entries: empty cap flips (bigons) and empty planar rectangles
    spanned by a rising pair of points.  When ``keep_a2`` restricts the
    generators, the boundary preserves a2, so the restriction is a genuine
    subcomplex and no entries are lost.
    """
    config = build_config(g, omit, "long")
    moves = LongMoves(config)
    cx = SparseComplex(ring)
    gens = oval_generators(config, keep_a2)
    for x, a2 in gens:
        cx.add_generator(x, a2, maslov(x, moves.frame.o_punct, 0))
    for x, _ in gens:
        for target, coeff in moves.row(moves.encode(x)).items():
            target = moves.decode(target)
            if target not in cx.grading:
                raise GradingViolation("move target escapes the kept a2 slices")
            cx.add_entry(x, target, coeff)
    if ring == "Z":
        cx.assert_entries_unit()
    return cx
