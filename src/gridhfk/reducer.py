"""From boundary matrices to knot invariants.

The pipeline stages live here:

* greedy pair-cancellation reduction of a `SparseComplex` (unit pivots
  anywhere);
* exact homology over Z (Smith normal form) or Z/2 (bitset rank);
* removal of the rank-2 tensor factor that the full-size complexes carry
  once per grid size beyond one, leaving the knot invariant itself;
* reconstruction of skipped Alexander slices from the tensor relations;
* the derived invariants: Seifert genus, fiberedness, torsion-freeness.

Every computation is exact integer/rational arithmetic; nothing here is
floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .chains import SparseComplex, mos_complex
from .domains_paths import PathEngine
from .errors import (
    CrosscheckFailed,
    InconsistentHomology,
    InconsistentTensor,
    InvalidInvariant,
    UnderdeterminedSkip,
)
from .gridkit import GridDiagram

#: A graded group: free rank and the torsion invariant factors (> 1, each
#: dividing the next).
Group = tuple[int, tuple[int, ...]]


def _is_zero(group: Group) -> bool:
    return group[0] == 0 and not group[1]


@dataclass
class HomologyResult:
    """Graded homology groups, keyed by (doubled Alexander, Maslov)."""

    ring: str
    groups: dict[tuple[int, int], Group]

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def rank(self, a2: int, m: int) -> int:
        return self.groups.get((a2, m), (0, ()))[0]


@dataclass
class HFKTable:
    """The knot invariant: graded ranks keyed by (Alexander, Maslov)."""

    ring: str
    groups: dict[tuple[int, int], Group]
    genus: int
    fibered: bool
    torsion_free: bool

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def rank(self, a: int, m: int) -> int:
        return self.groups.get((a, m), (0, ()))[0]

    def ranks(self) -> dict[tuple[int, int], int]:
        return {k: r for k, (r, _) in self.groups.items() if r}


# --------------------------------------------------------------------------
# reduction


def reduce_fast(cx: SparseComplex) -> SparseComplex:
    """Greedily cancel unit entries until none remain.  In place.

    Rows are visited shortest-first, which empirically keeps fill-in flat
    on these geometric complexes; repeat passes handle entries revealed by
    earlier cancellations.
    """
    first = sorted(cx.rows, key=lambda x: len(cx.rows[x]))
    while True:
        done = 0
        for x in first:
            row = cx.rows.get(x)
            if not row:
                continue
            pick = next((y for y, c in row.items() if c in (1, -1)), None)
            if pick is not None:
                cx.cancel_pair(x, pick)
                done += 1
        if not done:
            return cx
        first = list(cx.rows)


# --------------------------------------------------------------------------
# exact linear algebra


def rank_mod2(rows: list[int]) -> int:
    """Rank over the 2-element field of rows given as bitmasks."""
    basis: list[int] = []
    rank = 0
    for r in rows:
        for b in basis:
            low = b & -b
            if r & low:
                r ^= b
        if r:
            basis.append(r)
            rank += 1
    return rank


def smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    Smallest-pivot selection keeps intermediate entries small; arithmetic
    is exact arbitrary-precision integers.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = m[top][top]
            moved = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // p
                    for j in range(top, cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        moved = True
                        break
            if moved:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // p
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        moved = True
                        break
            if not moved:
                break
        # the pivot must divide the rest of the block for true invariance
        p = m[top][top]
        fixed = True
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % p:
                    for jj in range(top, cols):
                        m[top][jj] += m[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(p))
        top += 1
    return diag


# --------------------------------------------------------------------------
# homology


def homology(cx: SparseComplex) -> HomologyResult:
    """Exact graded homology of the complex (∂² = 0 assumed)."""
    by_grading: dict[tuple[int, int], list] = {}
    for x, gr in cx.grading.items():
        by_grading.setdefault(gr, []).append(x)

    # boundary block leaving each grading, with its rank and torsion data
    block_rank: dict[tuple[int, int], int] = {}
    block_torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a2, m), gens in by_grading.items():
        target = by_grading.get((a2, m - 1))
        if not target:
            block_rank[(a2, m)] = 0
            block_torsion[(a2, m)] = ()
            continue
        col_of = {y: i for i, y in enumerate(target)}
        if cx.ring == "Z2":
            rows = []
            for x in gens:
                bits = 0
                for y, c in cx.rows[x].items():
                    if c & 1:
                        bits |= 1 << col_of[y]
                rows.append(bits)
            block_rank[(a2, m)] = rank_mod2(rows)
            block_torsion[(a2, m)] = ()
        else:
            mat = [[0] * len(target) for _ in gens]
            for i, x in enumerate(gens):
                for y, c in cx.rows[x].items():
                    mat[i][col_of[y]] = c
            factors = smith_invariant_factors(mat)
            block_rank[(a2, m)] = len(factors)
            block_torsion[(a2, m)] = tuple(f for f in factors if f > 1)

    groups: dict[tuple[int, int], Group] = {}
    for (a2, m), gens in by_grading.items():
        free = len(gens) - block_rank[(a2, m)] - block_rank.get((a2, m + 1), 0)
        torsion = block_torsion.get((a2, m + 1), ())
        if free < 0:
            raise InconsistentHomology(
                f"negative free rank {free} at {(a2, m)}: boundary blocks inconsistent"
            )
        if free or torsion:
            groups[(a2, m)] = (free, torsion)
    # torsion may land in gradings that hold no generators of their own
    for (a2, m), tor in block_torsion.items():
        key = (a2, m - 1)
        if tor and key not in by_grading:
            raise InconsistentHomology(f"torsion attached to the empty grading {key}")
    return HomologyResult(cx.ring, groups)


def universal_coefficients_consistent(
    over_z: HomologyResult, over_z2: HomologyResult
) -> bool:
    """Mod-2 dimensions must equal free ranks plus adjacent even torsion."""
    keys = set(over_z.groups) | set(over_z2.groups)
    keys |= {
        (a2, m + 1)
        for (a2, m), (_, tor) in over_z.groups.items()
        if any(f % 2 == 0 for f in tor)
    }
    for a2, m in keys:
        free, tor = over_z.groups.get((a2, m), (0, ()))
        _, tor_below = over_z.groups.get((a2, m - 1), (0, ()))
        expected = (
            free
            + sum(1 for f in tor if f % 2 == 0)
            + sum(1 for f in tor_below if f % 2 == 0)
        )
        if over_z2.rank(a2, m) != expected:
            return False
    return True


# --------------------------------------------------------------------------
# tensor-factor removal

# The full-size complexes compute the knot invariant tensored with n−1
# copies of a rank-2 factor having one generator at (0, 0) and one at
# doubled gradings (−2, −1).  Removing it solves, from the top Alexander
# grading downward,
#     H(a2, m) = Σ_k  C(n−1, k) · F(a2 + 2k, m + k).


def _collect_quantities(groups: dict[tuple[int, int], Group]):
    """Split graded groups into named nonnegative integer quantities.

    Quantity None is the free rank; an integer f > 1 names the multiplicity
    of the torsion factor Z/f.  Deconvolution treats each independently.
    """
    out: dict[tuple[int, int], dict] = {}
    for key, (rank, torsion) in groups.items():
        q: dict = {}
        if rank:
            q[None] = rank
        for f in torsion:
            q[f] = q.get(f, 0) + 1
        if q:
            out[key] = q
    return out


def _groups_from_quantities(quant: dict[tuple[int, int], dict]):
    groups: dict[tuple[int, int], Group] = {}
    for key, q in quant.items():
        rank = q.get(None, 0)
        torsion = []
        for f, mult in sorted((f, m) for f, m in q.items() if f is not None):
            torsion.extend([f] * mult)
        if rank or torsion:
            groups[key] = (rank, tuple(torsion))
    return groups


def deconvolve(h: HomologyResult, n: int) -> dict[tuple[int, int], Group]:
    """Remove the (n−1)-fold rank-2 tensor factor.  Keys stay doubled."""
    quant = _collect_quantities(h.groups)
    out: dict[tuple[int, int], dict] = {}
    for a2, m in sorted(quant, key=lambda km: -km[0]):
        q = dict(quant[(a2, m)])
        for k in range(1, n):
            c = comb(n - 1, k)
            upper = out.get((a2 + 2 * k, m + k))
            if not upper:
                continue
            for name, mult in upper.items():
                q[name] = q.get(name, 0) - c * mult
        for name, mult in list(q.items()):
            if mult < 0:
                raise InconsistentTensor(
                    f"negative multiplicity {mult} at (a2={a2}, m={m})"
                )
            if mult == 0:
                del q[name]
        if q:
            out[(a2, m)] = q
    # verify the tensor reconstructs the input exactly
    check: dict[tuple[int, int], dict] = {}
    for (a2, m), q in out.items():
        for k in range(0, n):
            c = comb(n - 1, k)
            tgt = check.setdefault((a2 - 2 * k, m - k), {})
            for name, mult in q.items():
                tgt[name] = tgt.get(name, 0) + c * mult
    check = {k: v for k, v in check.items() if v}
    if check != quant:
        raise InconsistentTensor("tensor reconstruction mismatch")
    return _groups_from_quantities(out)


def reconstruct_skipped(
    h_partial: HomologyResult, skipped: set[int], n: int
) -> dict[tuple[int, int], Group]:
    """Deconvolve with some doubled Alexander gradings never computed.

    The tensor relations couple gradings along diagonals of constant
    2·maslov − a2, giving one exact linear system per diagonal; with at
    most n−1 skipped gradings each system stays uniquely solvable.  Raises
    `UnderdeterminedSkip` if the data cannot pin a unique answer.
    """
    if len(skipped) > n - 1:
        raise UnderdeterminedSkip(
            f"{len(skipped)} skipped gradings exceed the limit {n - 1}"
        )
    if not skipped:
        return deconvolve(h_partial, n)
    quant = _collect_quantities(h_partial.groups)
    if any(key[0] in skipped for key in quant):
        raise InconsistentTensor("partial homology reports a skipped grading")

    # Group data by diagonal (2·maslov − a2 is preserved by the tensor
    # shifts) and by quantity name.
    diagonals: dict[tuple[int, object], dict[int, int]] = {}
    for (a2, m), q in quant.items():
        for name, mult in q.items():
            diagonals.setdefault((2 * m - a2, name), {})[a2] = mult

    # Because every multiplicity is nonnegative and the k = 0 tap of the
    # binomial window is 1, the deconvolved support sits inside the
    # homology support; on each diagonal the unknowns are therefore the
    # known support plus the skipped gradings.  A diagonal whose homology
    # lives only in skipped gradings cannot occur: a nonzero answer at a2
    # forces nonzero homology at a2, a2−2, …, a2−2(n−1), and at most n−1
    # of those n gradings are skipped.
    out: dict[tuple[int, int], dict] = {}
    for (delta2, name), h_of in diagonals.items():
        unknowns = sorted(set(h_of) | set(skipped))
        index = {a2: i for i, a2 in enumerate(unknowns)}
        lo = min(unknowns) - 2 * (n - 1)
        hi = max(unknowns)
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for a2 in range(lo, hi + 1, 2):
            if a2 in skipped:
                continue
            row = [Fraction(0)] * len(unknowns)
            hit = False
            for k in range(0, n):
                col = a2 + 2 * k
                if col in index:
                    row[index[col]] = Fraction(comb(n - 1, k))
                    hit = True
            if not hit and not h_of.get(a2, 0):
                continue
            rows.append(row)
            rhs.append(Fraction(h_of.get(a2, 0)))
        solution = _solve_unique(rows, rhs)
        if solution is None:
            raise UnderdeterminedSkip(
                f"diagonal 2m−a2={delta2} has no unique reconstruction"
            )
        for a2, val in zip(unknowns, solution):
            if val == 0:
                continue
            if val.denominator != 1 or val < 0:
                raise InconsistentTensor(
                    f"reconstructed multiplicity {val} at a2={a2}"
                )
            m = (delta2 + a2) // 2
            if (delta2 + a2) % 2:
                raise InconsistentTensor("half-integral Maslov grading")
            out.setdefault((a2, m), {})[name] = int(val)
    return _groups_from_quantities(out)


def _solve_unique(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve an exactly-determined rational system; None if not unique."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < ncols:
        return None
    for i in range(r, len(aug)):
        if aug[i][ncols]:
            raise InconsistentTensor("skip reconstruction is overconstrained")
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


# --------------------------------------------------------------------------
# the invariant table


def make_table(
    groups_doubled: dict[tuple[int, int], Group], ring: str
) -> HFKTable:
    """Fold doubled-Alexander groups into the final invariant table."""
    groups: dict[tuple[int, int], Group] = {}
    for (a2, m), group in groups_doubled.items():
        if _is_zero(group):
            continue
        if a2 % 2:
            raise InvalidInvariant(f"odd doubled Alexander grading {a2} for a knot")
        groups[(a2 // 2, m)] = group
    if not groups:
        raise InvalidInvariant("empty invariant table")
    genus = max(a for a, _ in groups)
    top_rank = sum(r for (a, _), (r, _) in groups.items() if a == genus)
    top_torsion = any(t for (a, _), (_, t) in groups.items() if a == genus)
    torsion_free = not any(t for _, t in groups.values())
    return HFKTable(
        ring=ring,
        groups=dict(sorted(groups.items())),
        genus=genus,
        fibered=top_rank == 1 and not top_torsion,
        torsion_free=torsion_free,
    )


def auto_skip(sizes: dict[int, int], n: int) -> set[int]:
    """The n−1 doubled Alexander gradings with the most generators."""
    ordered = sorted(sizes, key=lambda a2: (-sizes[a2], a2))
    return set(ordered[: n - 1])


# --------------------------------------------------------------------------
# pipelines


@dataclass
class PipelineReport:
    """A computed table plus the checks performed along the way."""

    table: HFKTable
    homology: HomologyResult
    pipeline: str
    checks: tuple[str, ...] = ()


def hfk_cells(g: GridDiagram, ring: str = "Z") -> PipelineReport:
    """The n!-generator rectangle-complex pipeline.

    The gradings and ``d^2 = 0`` are checked on the complex before it is
    reduced, so every run of the oracle verifies its sign assignment.
    """
    cx = mos_complex(g, ring)
    cx.check_grading()
    cx.check_d_squared()
    reduce_fast(cx)
    h = homology(cx)
    table = make_table(deconvolve(h, g.n), ring)
    return PipelineReport(table, h, "cells")


def hfk_paths(
    g: GridDiagram,
    ring: str = "Z",
    skip: str = "none",
    omit: tuple[int, int] | None = None,
) -> PipelineReport:
    """The cancellation-path pipeline: short rows pulled lazily.

    Short-complex generators are enumerated directly; each row of the
    differential is assembled by following cancellation paths through the
    long complex on demand, so the long complex is never materialized.
    Over Z the reduced complex is also taken mod 2, and the two homologies
    must satisfy the universal coefficient theorem.
    """
    if skip not in ("auto", "none"):
        raise ValueError(f"unknown skip policy {skip!r}")
    engine = PathEngine(g, omit)
    sizes = Counter(a2 for _, a2 in engine.short_gens)
    skipped = auto_skip(sizes, g.n) if skip == "auto" else set()
    keep = set(sizes) - skipped if skipped else None
    cx = engine.short_complex(ring, keep_a2=keep)
    reduce_fast(cx)
    h = homology(cx)
    checks: tuple[str, ...] = ()
    if ring == "Z":
        if not universal_coefficients_consistent(h, homology(cx.mod2())):
            raise CrosscheckFailed(
                "integer and mod-2 homology of the short complex break the "
                "universal coefficient theorem"
            )
        checks = ("universal coefficients Z vs Z/2: ok",)
    table = make_table(reconstruct_skipped(h, skipped, g.n), ring)
    return PipelineReport(table, h, "ovals-paths", checks=checks)


def top_invariants(
    g: GridDiagram,
    ring: str = "Z",
    omit: tuple[int, int] | None = None,
) -> tuple[int, bool]:
    """(Seifert genus, fibered) from the highest nonzero slice only.

    The stabilization factor in the computed homology only shifts gradings
    down, so at the globally highest nonzero Alexander slice the slice
    homology already equals the invariant there: its a2/2 is the genus and
    fiberedness is a single free generator.  The short complex has the
    homology of the long one slice by slice, so the scan pulls short
    slices from the path engine, from the top a2 of the short generators
    downward, and stops at the first one with nonzero homology; the larger
    low slices are never built.
    """
    engine = PathEngine(g, omit)
    for a2 in sorted({a2 for _, a2 in engine.short_gens}, reverse=True):
        cx = engine.short_complex(ring, keep_a2={a2})
        reduce_fast(cx)
        groups = homology(cx).groups
        if not groups:
            continue
        rank = sum(r for r, _ in groups.values())
        torsion = any(t for _, t in groups.values())
        return a2 // 2, rank == 1 and not torsion
    raise InvalidInvariant("every Alexander slice has zero homology")
