"""Chain complexes over the grid: generators, gradings, boundary maps.

Two complexes are built from the same diagram:

* the **cell complex** (`mos_complex`): generators are the ``n!`` ways to
  place one point on each vertical and horizontal grid line, and the
  boundary counts empty rectangles on the torus.  Generators are keyed by
  the lexicographic rank of their permutations.  It is built from arrays
  over all permutations at once: gradings from the kernel below, and
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
``a2`` (stored doubled so that every value is an integer), from one kernel
in `gridkit`: a constant plus a term per point (`grading_terms`, which
counts the markings northeast or southwest of each point in one numpy
comparison), and for the Maslov grading the generator's southwest pairs
(`southwest_counts`, on the row bits of whole arrays of generators).  Per
point of an oval generator the Alexander term is minus twice the winding
number there (asserted in tests).

`SparseComplex` is the shared container: a dict-of-dicts matrix with row
and column views, supporting unit-pivot cancellation, which is all the
reduction machinery needs.  Every complex the package makes (these two, the
short complex and `SparseComplex.mod2`) is built, and checked each time
(gradings, ``d^2 = 0``), by `SparseComplex.from_arrays`; where an entry
counts one polygon, it is checked to be a unit first (`_check_units`).
The checks run on the arrays as the complex is built; the row and column
views are filled only when first read.  Before that, `SparseComplex.collapse`
(the first step of `reducer.reduce_fast`) cancels on the arrays the pairs
whose cancellation adds no entry (all but 448 of the 5,040 generators of
5_2's rectangle complex), so only the survivors are ever filled.
"""

from __future__ import annotations

from collections.abc import Hashable
from functools import cached_property, lru_cache
from itertools import chain, permutations

import numpy as np

from .errors import (
    BoundarySquareNonzero,
    DuplicateGenerator,
    GradingViolation,
    GridTooLarge,
    NonUnitPivot,
    RectangleCornerMissing,
    SignAssignmentFailed,
)
from .gridkit import (
    CENTER,
    SCALE,
    GridDiagram,
    Point,
    grading_constants,
    grading_terms,
    southwest_counts,
)
from .ovalgeo import H_HALF, V_HALF, OvalConfig, build_config, column_span, row_span

#: An oval generator: the sorted tuple of its points (scaled coordinates).
Gen = tuple[Point, ...]


# --------------------------------------------------------------------------
# sparse complexes


class SparseComplex:
    """A graded boundary matrix over Z or Z/2 with row and column views.

    ``rows[x][y]`` is the coefficient of ``y`` in the boundary of ``x``;
    ``cols`` is the transpose view kept in lockstep.  ``grading[x]`` is the
    pair ``(a2, maslov)``.  Generators are any hashable labels: point tuples
    in the oval complexes, permutation ranks in the rectangle complex.

    A complex built by `from_arrays` keeps its entries as arrays until
    ``rows`` or ``cols`` is first read, and only then fills both; until
    then `collapse` can cancel pairs on the arrays.
    """

    __slots__ = ("ring", "grading", "rows", "cols", "_arrays")

    def __init__(self, ring: str = "Z"):
        if ring not in ("Z", "Z2"):
            raise ValueError(f"unknown coefficient ring {ring!r}")
        self.ring = ring
        self.grading: dict[Hashable, tuple[int, int]] = {}
        self.rows: dict[Hashable, dict[Hashable, int]] = {}
        self.cols: dict[Hashable, dict[Hashable, int]] = {}
        #: ``(gens, src, dst, coeff)`` while ``rows`` and ``cols`` are unfilled
        self._arrays = None

    def __getattr__(self, name: str):
        # reached only for an unset slot: the views of an unread array-built complex
        if name in ("rows", "cols") and self._arrays is not None:
            self._fill()
            return getattr(self, name)
        raise AttributeError(name)

    # -- construction

    @classmethod
    def from_arrays(cls, ring, gens, a2, maslov, src, dst, coeff) -> "SparseComplex":
        """The complex on ``gens``, graded by the integer arrays ``a2`` and
        ``maslov``, with the entry ``gens[src[k]] -> gens[dst[k]]`` of
        ``coeff[k]`` for each ``k`` (integer arrays; no pair may repeat).

        The same dicts, in the same order, as `add_generator` and then
        `add_entry` would build: over Z/2 the coefficients are reduced mod 2,
        and zero entries are dropped.  The entries are checked here
        (`_check_entries`), so no complex built here skips a check; an entry
        summing paths need not be a unit.  The gradings are filled here too,
        but ``rows`` and ``cols`` only when first read.
        """
        cx = cls(ring)
        cx.grading = dict(zip(gens, zip(a2.tolist(), maslov.tolist())))
        if len(cx.grading) != len(gens):
            raise DuplicateGenerator("a generator is listed twice")
        if ring == "Z2":
            coeff = coeff & 1
        live = np.flatnonzero(coeff)
        src, dst, coeff = src[live], dst[live], coeff[live]
        if len(live):
            _check_entries(ring, gens, a2, maslov, src, dst, coeff)
        del cx.rows, cx.cols
        cx._arrays = (gens, src, dst, coeff)
        return cx

    def _fill(self) -> None:
        """Fill ``rows`` and ``cols`` from the arrays, in their order."""
        gens, src, dst, coeff = self._arrays
        self._arrays = None
        self.rows = {x: {} for x in gens}
        self.cols = {x: {} for x in gens}
        # rows and columns by position: an entry hashes only the labels it stores
        rows, cols = list(self.rows.values()), list(self.cols.values())
        for s, t, c in zip(src.tolist(), dst.tolist(), coeff.tolist()):
            rows[s][gens[t]] = c
            cols[t][gens[s]] = c

    def collapse(self) -> None:
        """Cancel, on the arrays, every pair whose cancellation adds no entry.

        Only a complex whose ``rows`` and ``cols`` nothing has read yet is
        collapsed; any other is left as it is.  A unit entry ``x -> y`` (1
        over Z/2) is such a pair when it is the only entry into ``y`` or the
        only one out of ``x``: `cancel_pair` then has no ``u -> y`` and
        ``x -> v`` to combine, and only drops ``x`` and ``y`` with their
        entries.  Pairs go in rounds.  In a round, each generator names the
        first candidate entry it is an end of, and every entry named by
        both its ends is cancelled: no generator is in two of them, and
        dropping generators only lowers the others' degrees, so each is
        still such a pair when its turn comes.  The first candidate of a
        round is always cancelled, and the rounds end when none is left.
        The survivors keep their order, and so do their entries.
        """
        if self._arrays is None:
            return
        gens, src, dst, coeff = self._arrays
        n = len(gens)
        alive = np.ones(n, dtype=bool)
        unit = (coeff == 1) | (coeff == -1)
        first = np.empty(n, dtype=np.int64)  # read only where just written
        while True:
            into = np.bincount(dst, minlength=n)[dst]
            out = np.bincount(src, minlength=n)[src]
            cand = np.flatnonzero(unit & ((into == 1) | (out == 1)))
            if not len(cand):
                break
            # candidate k at 2k (its source) and 2k + 1 (its target)
            ends = np.empty(2 * len(cand), dtype=np.int64)
            ends[0::2], ends[1::2] = src[cand], dst[cand]
            order = np.argsort(ends, kind="stable")
            heads = order[np.flatnonzero(np.diff(ends[order], prepend=-1))]
            first[ends[heads]] = heads // 2
            k = np.arange(len(cand))
            pick = cand[(first[src[cand]] == k) & (first[dst[cand]] == k)]
            alive[src[pick]] = alive[dst[pick]] = False
            keep = np.flatnonzero(alive[src] & alive[dst])
            src, dst, coeff, unit = src[keep], dst[keep], coeff[keep], unit[keep]
        if alive.all():
            return
        index = np.cumsum(alive) - 1
        gens = [gens[i] for i in np.flatnonzero(alive).tolist()]
        self.grading = {x: self.grading[x] for x in gens}
        self._arrays = (gens, index[src], index[dst], coeff)

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

    @property
    def generator_count(self) -> int:
        return len(self.grading)

    @property
    def entry_count(self) -> int:
        if self._arrays is not None:
            return len(self._arrays[1])
        return sum(len(r) for r in self.rows.values())

    def mod2(self) -> "SparseComplex":
        """The same generators and gradings with every entry reduced mod 2."""
        gens = list(self.grading)
        at = {x: i for i, x in enumerate(gens)}
        a2, maslov = np.array(list(self.grading.values()), dtype=np.int64).reshape(-1, 2).T
        entries = [(at[x], at[y], c & 1) for x, row in self.rows.items() for y, c in row.items()]
        src, dst, coeff = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        return SparseComplex.from_arrays("Z2", gens, a2, maslov, src, dst, coeff)

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


def _check_units(ring: str, gens: list, src, dst, coeff) -> None:
    """Over Z every entry must be ``+-1``, as each counts one polygon: else
    `SignAssignmentFailed` names the first other one in row order."""
    bad = np.flatnonzero(np.abs(coeff) > 1) if ring == "Z" else []
    if len(bad):
        k = bad[src[bad].argmin()]
        raise SignAssignmentFailed(f"non-unit entry {coeff[k]} at {gens[src[k]]} -> {gens[dst[k]]}")


def _check_entries(ring: str, gens: list, a2, maslov, src, dst, coeff) -> None:
    """Check the nonzero entries of a complex on its arrays, naming the first
    failing entry in row order (by source, then as given): every entry must
    keep a2 and lower the Maslov grading by one (`GradingViolation`), and
    the boundary must square to zero (`BoundarySquareNonzero`).

    For ``d^2`` the products of each ``x -> y`` with the ``y -> z`` are
    summed by ``(x, z)`` (mod 2 over Z/2) for whole sources at a time, a
    batch closing at the first source past a multiple of `_SQUARE_BATCH`
    products, so every sum is complete.  The first nonzero sum is by ``x``,
    then by the first product reaching ``z``, as a walk of the rows meets it.
    """
    at = np.argsort(src, kind="stable")  # into row order
    src, dst, coeff = src[at], dst[at], coeff[at]
    skew = (a2[dst] != a2[src]) | (maslov[dst] != maslov[src] - 1)
    if skew.any():
        x, y = src[skew.argmax()], dst[skew.argmax()]
        raise GradingViolation(
            f"edge {gens[x]} -> {gens[y]} goes from grading "
            f"{(int(a2[x]), int(maslov[x]))} to {(int(a2[y]), int(maslov[y]))}"
        )
    length = np.bincount(src, minlength=len(gens))
    count = length[dst]  # the products of each entry x -> y
    before = np.concatenate([[0], np.cumsum(count)])
    # product p, of entry e, pairs it with the entry y -> z at p + shift[e]
    shift = (np.cumsum(length) - length)[dst] - before[:-1]
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    cuts = starts[np.flatnonzero(np.diff(before[starts] // _SQUARE_BATCH, prepend=-1))]
    for lo, hi in zip(cuts, [*cuts[1:], len(src)]):
        rep = count[lo:hi]
        l = np.repeat(shift[lo:hi], rep) + np.arange(before[lo], before[hi])
        key = np.repeat(src[lo:hi] * len(gens), rep) + dst[l]  # x * len(gens) + z
        order = key.argsort(kind="stable")
        heads = np.flatnonzero(np.diff(key[order], prepend=-1))
        products = np.repeat(coeff[lo:hi], rep) * coeff[l]
        sums = np.add.reduceat(products[order], heads, dtype=np.int64)
        bad = np.flatnonzero(sums & 1 if ring == "Z2" else sums)
        if len(bad):
            g = bad[order[heads[bad]].argmin()]
            x, z = divmod(int(key[order[heads[g]]]), len(gens))
            raise BoundarySquareNonzero(f"d^2 has entry {sums[g]} from {gens[x]} to {gens[z]}")


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
    # inversions: the pairs that are not rising
    inv = n * (n - 1) // 2 - southwest_counts(1 << perms).sum(axis=1)
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
                raise SignAssignmentFailed(f"spin lift exceeds {store.__name__}")
            table[sub] = lifted
    table.flags.writeable = False
    return table


#: Edges whose signs are evaluated in one batch (bounds the scratch arrays).
_SIGN_BATCH = 2048

#: Products formed in one batch by `_check_entries`, bar its last source's.
_SQUARE_BATCH = 1 << 14


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

    Generator ``p`` places its points at ``(SCALE*k, SCALE*p[k])``, the
    lattice point ``k * n + p[k]`` of the table of `gridkit.grading_terms`;
    ``I(x, x)`` counts its rising pairs, and a cell generator's Maslov
    grading is one more than an oval generator's.
    """
    n = g.n
    lattice = SCALE * np.indices((n, n)).reshape(2, -1).T
    m_term, a2_term = grading_terms(g, lattice)
    at = n * np.arange(n) + perms
    o_pairs, const2 = grading_constants(g)
    a2 = a2_term[at].sum(axis=1) + const2
    m = southwest_counts(1 << perms).sum(axis=1) + m_term[at].sum(axis=1) + o_pairs + 1
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
        # over Z/2 a lone wrapping rectangle's -1 is reduced to 1 (`from_arrays`)
        live = np.flatnonzero(inner | wraps)
        sign = _edge_signs(n, live, target[live, col], i, j) if signed else 1
        coeff[live, col] = sign * (inner[live].astype(np.int8) - wraps[live])

    a2, m = _cell_gradings(g, perms)
    src, col = np.nonzero(coeff)
    # one int object per rank, shared by every dict keyed by it
    gens, dst, coeff = list(range(len(perms))), target[src, col], coeff[src, col]
    _check_units(ring, gens, src, dst, coeff)
    return SparseComplex.from_arrays(ring, gens, a2, m, src, dst, coeff)


# --------------------------------------------------------------------------
# oval complex


def oval_generators(
    config: OvalConfig, keep_a2: set[int] | None = None
) -> list[tuple[Gen, int]]:
    """All (generator, a2) pairs of the configuration.

    A generator chooses a bijection from kept columns to kept rows and one
    intersection point of each matched oval pair.  When ``keep_a2`` is
    given, a branch is pruned exactly when none of its completions has a
    kept a2, so every branch walked emits a generator.  The order is the
    same either way.  The branches (`OvalConfig.column_choices`) and the
    row-mask table the pruning reads (`OvalConfig.rest_sums`; the a2
    grading is a sum of per-point terms plus a diagram constant) are the
    configuration's own, built on first use and kept, so walking one
    configuration slice by slice builds them once.
    """
    choices = config.column_choices
    const2 = config.const2
    k = len(choices)
    # per row mask, the a2 sums of the matched columns from which the
    # remaining ones can still reach a kept a2
    allowed = None
    if keep_a2 is not None:
        targets = {a2 - const2 for a2 in keep_a2}
        allowed = [{t - s for s in sums for t in targets} for sums in config.rest_sums]

    out: list[tuple[Gen, int]] = []
    # one point per kept column, in column order: already sorted by x
    picked: list[Point] = []

    def walk(depth: int, used: int, acc: int) -> None:
        if depth == k:
            out.append((tuple(picked), acc + const2))
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

    Exact: the extreme keys of `OvalConfig.slice_sizes`.  Both share the even
    parity of the gradings, letting callers scan slices in steps of two.
    """
    a2s = list(config.slice_sizes)
    return a2s[0], a2s[-1]


def _bigon_targets(config: OvalConfig, p: Point) -> list[tuple[Point, str, int]]:
    """Flip moves available to the single point ``p``.

    Returns ``(new_point, kind, oval_key)`` triples where ``kind`` names the
    cap swept over and ``oval_key`` identifies the oval whose cap it is
    (column index for vertical ovals, row index for horizontal ones).
    An entry appears only if the swept region contains no puncture.
    """
    px, py = p
    c, r = px // SCALE, py // SCALE
    vo = config.v_ovals[c]
    ho = config.h_ovals[r]
    # the heights of the punctures in column c, the abscissae of those in row r
    ys = [SCALE * row + CENTER for row in column_span(config.grid, c)]
    xs = [SCALE * col + CENTER for col in row_span(config.grid, r)]
    out = []
    if px == vo.x1:  # left wall: may flip right across the top cap
        if all(not (py < q < vo.y2) for q in ys):
            out.append(((vo.x2, py), "top", c))
    else:  # right wall: may flip left across the bottom cap
        if all(not (vo.y1 < q < py) for q in ys):
            out.append(((vo.x1, py), "bottom", c))
    if py == ho.y1:  # bottom wall: may flip up across the right cap
        if all(not (px < q < ho.x2) for q in xs):
            out.append(((px, ho.y2), "right", r))
    else:  # top wall: may flip down across the left cap
        if all(not (ho.x1 < q < px) for q in xs):
            out.append(((px, ho.y1), "left", r))
    return out


class LongMoves:
    """The differential of the full-height oval complex, in batches of rows.

    Generators are arrays of point ids: the configuration's points are
    numbered in sorted order, so a generator's id tuple sorts like its point
    tuple, and `encode` converts at the edge.  A point sits on one vertical
    oval, whose points have consecutive ids, so a generator also packs into
    one integer (`pack`), with one base-``R`` digit per column (``R``
    points on a column): the id minus the column's first id.
    Packed keys sort like point tuples.  What depends on one point (its
    horizontal oval, its walls, its flips, its Maslov term) is tabulated by
    id up front, and the empty rectangles between two points on first use
    (`_corners`).
    Tables of ids are ``int16``: a configuration has at most ``4(n-1)^2``
    points, and keys pack only up to ``n = 12``.
    """

    def __init__(self, config: OvalConfig):
        self.config = config
        #: id -> point, in sorted order, and back
        self.points = config.all_points()
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
            for q, kind, _ in _bigon_targets(config, p):
                self._flips[i, int(kind not in ("top", "bottom"))] = self.id_of[q]
        #: per column, its first id; the digit weights of `pack`
        column = xs // SCALE
        self._first = np.searchsorted(column, config.kept_cols())
        radix = int(np.bincount(column).max(initial=1))
        k = len(self._first)
        if radix**k >= 2**63:
            raise GridTooLarge(
                f"{k} columns of {radix} points each do not pack into 63 bits"
            )
        self._weights = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._radix = radix
        #: id -> its Maslov term; the Maslov grading's constant ``I(O, O)``
        self._maslov_term = np.array([config.m_of[p] for p in self.points], dtype=np.int64)
        self._o_pairs = grading_constants(config.grid)[0]

    def encode(self, gens: list[Gen]) -> np.ndarray:
        """The point ids of some generators, one generator per row, in point order."""
        ids = map(self.id_of.__getitem__, chain.from_iterable(gens))
        return np.fromiter(ids, np.int64).reshape(len(gens), len(self._first))

    def pack(self, ids: np.ndarray) -> np.ndarray:
        """One ``int64`` key per row of generator ids; keys sort like the rows."""
        return (ids - self._first) @ self._weights

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The generator ids of packed keys, one generator per row."""
        return keys[:, None] // self._weights % self._radix + self._first

    def maslov(self, ids: np.ndarray) -> np.ndarray:
        """The Maslov grading ``I(x, x) - I(x, O) - I(O, x) + I(O, O)`` of
        each row of generator ids: `southwest_counts` on the bits of their
        horizontal ovals gives ``I(x, x)``, and each point adds its term."""
        rising = southwest_counts(self._bit[ids]).sum(axis=1)
        return rising + self._maslov_term[ids].sum(axis=1) + self._o_pairs

    def locate(self, ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The row of ``ids`` (the kept generators) packing to each of
        ``keys``; a key none packs to escapes them (`GradingViolation`)."""
        kept = self.pack(ids)
        order = np.argsort(kept, kind="stable")  # default kind: 7_1 worker peak +6 MB
        found = order[np.searchsorted(kept, keys, sorter=order).clip(max=len(kept) - 1)]
        if len(keys) and not np.array_equal(kept[found], keys):
            raise GradingViolation("move target escapes the kept a2 slices")
        return found

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
        u, v = np.array(self.config.grid.punctures(), dtype=np.int64).reshape(-1, 2).T
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
        odd = southwest_counts(bit) & 1
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
    listed = oval_generators(config, keep_a2)
    gens = [x for x, _ in listed]
    ids = moves.encode(gens)
    owner, target, sign = moves.rows(ids)
    found = moves.locate(ids, moves.pack(target))
    _check_units(ring, gens, owner, found, sign)
    a2 = np.array([a2 for _, a2 in listed], dtype=np.int64)
    return SparseComplex.from_arrays(ring, gens, a2, moves.maslov(ids), owner, found, sign)
