"""The array-built rectangle complex against the scalar reference it replaced.

`reference_mos_complex` is the original per-edge builder: Python rectangle
scans with `_cyc_in`, and signs from `_SpinSection`, which lifts each
permutation to the Clifford algebra on demand.  It keys generators by their
points; `chains.mos_complex` keys them by permutation rank.  Relabelled
through `mos_generators`, it must return the same rows and gradings, in the
same order, and its lift table must give `_SpinSection.edge_sign` on every
edge.  The per-size swap tables it reads must equal a per-pair
recomputation.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from conftest import BRAIDS, random_grid
from references import alexander2_dominance, maslov, mos_generators, refilled
from gridhfk import chains
from gridhfk.chains import (
    SparseComplex,
    _cyclic_open,
    _edge_signs,
    _permutations,
    _spin_lifts,
    _swap_ranks,
    _swap_tables,
    mos_complex,
)
from gridhfk.errors import BoundarySquareNonzero
from gridhfk.gridkit import SCALE, GridDiagram, parse_braid
from gridhfk.cli import main
from gridhfk.reducer import hfk_cells
from gridhfk.simplifier import minimize


class _SpinSection:
    """Signs for torus rectangles via a double cover of the permutations.

    Each permutation is lifted to an element of the Clifford algebra on
    ``n`` anticommuting generators (``g_i * g_i = -1``), by peeling off the
    first descent: ``lift(p) = lift(p with first descent resolved) *
    (g_k - g_{k+1})``.  Swapping positions ``i < j`` of a permutation
    multiplies its lift by ``(g_i - g_j)`` up to a scalar ``+-2^k``; the
    sign of that scalar is the edge sign.

    Elements are dicts mapping basis monomials (bitmasks of generator
    indices, factors in increasing order) to integer coefficients.
    """

    def __init__(self, n: int):
        self.n = n
        self._memo: dict[tuple[int, ...], dict[int, int]] = {
            tuple(range(n)): {0: 1}
        }

    @staticmethod
    def _times_gamma(elem: dict[int, int], t: int, out: dict[int, int], flip: int) -> None:
        """Accumulate ``elem * g_t`` (times ``flip``) into ``out``."""
        bit = 1 << t
        above = ~((bit << 1) - 1)
        for mask, coeff in elem.items():
            passes = (mask & above).bit_count()
            if mask & bit:
                sign = -flip if passes % 2 == 0 else flip
                key = mask & ~bit
            else:
                sign = flip if passes % 2 == 0 else -flip
                key = mask | bit
            val = out.get(key, 0) + sign * coeff
            if val:
                out[key] = val
            else:
                out.pop(key, None)

    def _times_diff(self, elem: dict[int, int], i: int, j: int) -> dict[int, int]:
        """Return ``elem * (g_i - g_j)``."""
        out: dict[int, int] = {}
        self._times_gamma(elem, i, out, 1)
        self._times_gamma(elem, j, out, -1)
        return out

    def lift(self, perm: tuple[int, ...]) -> dict[int, int]:
        memo = self._memo
        stack = []
        cur = perm
        while cur not in memo:
            stack.append(cur)
            k = next(k for k in range(self.n - 1) if cur[k] > cur[k + 1])
            nxt = list(cur)
            nxt[k], nxt[k + 1] = nxt[k + 1], nxt[k]
            cur = tuple(nxt)
        for p in reversed(stack):
            k = next(k for k in range(self.n - 1) if p[k] > p[k + 1])
            memo[p] = self._times_diff(memo[p[:k] + (p[k + 1], p[k]) + p[k + 2:]], k, k + 1)
        return memo[perm]

    def edge_sign(self, perm: tuple[int, ...], i: int, j: int) -> int:
        """Sign of the move swapping the entries at positions ``i < j``."""
        prod = self._times_diff(self.lift(perm), i, j)
        swapped = list(perm)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        target = self.lift(tuple(swapped))
        if set(prod) != set(target):
            raise AssertionError("lift supports disagree along an edge")
        key = next(iter(target))
        a, b = prod[key], target[key]
        # the ratio of the two lifts is +-(a power of two), exactly
        hi, lo = (abs(a), abs(b)) if abs(a) >= abs(b) else (abs(b), abs(a))
        ratio = hi // lo
        if hi % lo or ratio & (ratio - 1):
            raise AssertionError("edge ratio is not a signed power of two")
        for m, c in prod.items():
            if c * b != target[m] * a:
                raise AssertionError("edge ratio differs between monomials")
        return 1 if (a > 0) == (b > 0) else -1


_SECTIONS: dict[int, _SpinSection] = {}


def reference_section(n: int) -> _SpinSection:
    if n not in _SECTIONS:
        _SECTIONS[n] = _SpinSection(n)
    return _SECTIONS[n]


def _cyc_in(start: int, end: int, v: int) -> bool:
    """Whether ``v`` lies in the cyclic half-open interval ``[start, end)``."""
    if start < end:
        return start <= v < end
    return v >= start or v < end


def reference_mos_complex(g: GridDiagram, ring: str = "Z") -> SparseComplex:
    """The rectangle complex, one edge and one rectangle scan at a time,
    checked as `mos_complex` is (`refilled`; every entry is a sign, so a
    unit, by construction)."""
    n = g.n
    o_p = g.o_punctures()
    x_p = g.x_punctures()
    cells = [(c, g.xs[c]) for c in range(n)] + [(c, g.os[c]) for c in range(n)]
    cx = SparseComplex(ring)
    for perm in permutations(range(n)):
        x = tuple((SCALE * i, SCALE * perm[i]) for i in range(n))
        cx.add_generator(x, alexander2_dominance(x, x_p, o_p, n), maslov(x, o_p, 1))
    signed = ring == "Z"
    sec = reference_section(n) if signed else None
    for x in cx.grading:
        sigma = tuple(p[1] // SCALE for p in x)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = sigma[i], sigma[j]
                y = list(x)
                y[i] = (SCALE * i, SCALE * b)
                y[j] = (SCALE * j, SCALE * a)
                target = tuple(y)
                base = 0  # edge sign, computed once a rectangle survives
                for ci, cj, ra, rb in ((i, j, a, b), (j, i, b, a)):
                    if any(
                        _cyc_in(ci, cj, c) and _cyc_in(ra, rb, r) for c, r in cells
                    ):
                        continue
                    if any(
                        k != i
                        and k != j
                        and k != ci
                        and sigma[k] != ra
                        and _cyc_in(ci, cj, k)
                        and _cyc_in(ra, rb, sigma[k])
                        for k in range(n)
                    ):
                        continue
                    if not base:
                        base = sec.edge_sign(sigma, i, j) if signed else 1
                    # a rectangle whose column interval wraps the seam where
                    # the torus was cut open picks up an extra minus sign
                    coeff = -base if (signed and cj < ci) else base
                    cx.add_entry(x, target, coeff)
    return refilled(cx)


def rank_of(perm: tuple[int, ...]) -> int:
    _perms, codes = _permutations(len(perm))
    code = int(np.dot(perm, len(perm) ** np.arange(len(perm) - 1, -1, -1)))
    return int(np.searchsorted(codes, code))


def table_sign(perm: tuple[int, ...], i: int, j: int) -> int:
    """The lift table's sign of the move swapping positions ``i < j``."""
    n = len(perm)
    src = np.array([rank_of(perm)])
    return int(_edge_signs(n, src, _swap_ranks(n, src, i, j), i, j)[0])


def reference_sign(perm: tuple[int, ...], i: int, j: int) -> int:
    return reference_section(len(perm)).edge_sign(tuple(perm), i, j)


def assert_same_complex(new: SparseComplex, old: SparseComplex) -> None:
    """Equal gradings, rows and columns, in the same insertion order."""
    assert list(new.grading.items()) == list(old.grading.items())
    assert [(x, list(r.items())) for x, r in new.rows.items()] == [
        (x, list(r.items())) for x, r in old.rows.items()
    ]
    assert [(y, list(c.items())) for y, c in new.cols.items()] == [
        (y, list(c.items())) for y, c in old.cols.items()
    ]


def by_points(cx: SparseComplex, g: GridDiagram) -> SparseComplex:
    """A rank-keyed rectangle complex relabelled by point tuples, order kept."""
    gens = mos_generators(g)
    assert list(cx.grading) == list(range(len(gens)))
    out = SparseComplex(cx.ring)
    out.grading = {gens[x]: gr for x, gr in cx.grading.items()}
    out.rows = {gens[x]: {gens[y]: c for y, c in r.items()} for x, r in cx.rows.items()}
    out.cols = {gens[y]: {gens[x]: c for x, c in r.items()} for y, r in cx.cols.items()}
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("ring", ["Z", "Z2"])
    def test_random_grids(self, rng, ring):
        for n in (2, 3, 3, 4, 4, 5, 5, 6, 6):
            g = random_grid(n, rng)
            assert_same_complex(
                by_points(mos_complex(g, ring), g), reference_mos_complex(g, ring)
            )

    @pytest.mark.parametrize("ring", ["Z", "Z2"])
    def test_benchmark_knots(self, ring):
        checked = 0
        for word in BRAIDS.values():
            g = minimize(parse_braid(word))
            if g.n <= 7:
                assert_same_complex(
                    by_points(mos_complex(g, ring), g), reference_mos_complex(g, ring)
                )
                checked += 1
        assert checked == 5

    def test_permutation_table_is_lexicographic(self):
        for n in (2, 3, 4, 5):
            perms, codes = _permutations(n)
            assert perms.tolist() == [list(p) for p in permutations(range(n))]
            assert (np.diff(codes) > 0).all()


class TestSwapTables:
    def test_tables_match_a_per_pair_recomputation(self):
        for n in range(2, 9):
            perms, _codes = _permutations(n)
            everything = np.arange(len(perms))
            pairs, target, inner_empty, wraps_empty = _swap_tables(n)
            assert pairs == tuple((i, j) for i in range(n) for j in range(i + 1, n))
            assert target.dtype == np.min_scalar_type(factorial(n) - 1)
            assert target.shape == inner_empty.shape == wraps_empty.shape
            assert target.shape == (factorial(n), n * (n - 1) // 2)
            assert inner_empty.dtype == wraps_empty.dtype == np.dtype(bool)
            for col, (i, j) in enumerate(pairs):
                a, b = perms[:, i], perms[:, j]
                outside = np.concatenate([perms[:, :i], perms[:, j + 1:]], axis=1)
                assert (target[:, col] == _swap_ranks(n, everything, i, j)).all()
                inner = ~_cyclic_open(a, b, perms[:, i + 1:j]).any(axis=1)
                wraps = ~_cyclic_open(b, a, outside).any(axis=1)
                assert (inner_empty[:, col] == inner).all()
                assert (wraps_empty[:, col] == wraps).all()
        assert _swap_tables(8)[1].dtype == np.uint16

    def test_tables_are_read_only(self):
        _pairs, *tables = _swap_tables(4)
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = table[0, 1]

    def test_import_builds_no_table(self):
        src = str(Path(chains.__file__).resolve().parents[1])
        probe = (
            "import gridhfk.cli\n"
            "from gridhfk import chains\n"
            "print(chains._swap_tables.cache_info().currsize,"
            " chains._spin_lifts.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.split() == ["0", "0"]


class TestLiftTable:
    def test_every_edge_matches_reference_up_to_five(self):
        for n in (2, 3, 4, 5):
            perms, _codes = _permutations(n)
            ranks = np.arange(len(perms))
            sec = reference_section(n)
            for i in range(n):
                for j in range(i + 1, n):
                    signs = _edge_signs(n, ranks, _swap_ranks(n, ranks, i, j), i, j)
                    expected = [sec.edge_sign(tuple(p), i, j) for p in perms.tolist()]
                    assert signs.tolist() == expected

    def test_sampled_edges_match_reference_at_seven(self):
        rng = random.Random(7)
        sec = reference_section(7)
        for _ in range(2000):
            perm = tuple(rng.sample(range(7), 7))
            i, j = sorted(rng.sample(range(7), 2))
            assert table_sign(perm, i, j) == sec.edge_sign(perm, i, j)

    def test_lifts_match_reference(self):
        for n in (3, 4, 5):
            table = _spin_lifts(n)
            sec = reference_section(n)
            for r, p in enumerate(_permutations(n)[0].tolist()):
                lift = {m: int(c) for m, c in enumerate(table[r]) if c}
                assert lift == sec.lift(tuple(p))

    def test_int16_holds_grid_size_eight(self):
        table = _spin_lifts(8)
        assert table.dtype == np.int16
        assert int(np.abs(table).max()) == 4096

    def test_hfk_cells_checks_d_squared(self, monkeypatch):
        def unsigned(n, src, dst, i, j):
            return np.ones(len(src), dtype=np.int64)

        monkeypatch.setattr(chains, "_edge_signs", unsigned)
        with pytest.raises(BoundarySquareNonzero):
            hfk_cells(parse_braid(BRAIDS["trefoil"]), "Z")


def plant_fault(monkeypatch, ring: str) -> None:
    """Break the rectangle complex where its ring can see it.

    Over ``Z`` the first sign of the swaps of columns 0 and 1 is negated.
    A sign is invisible mod 2, so over ``Z/2`` one rectangle is lost
    instead: the first marking-free one of the grid reads as holding a
    marking.
    """
    if ring == "Z":
        signs = chains._edge_signs

        def negated(n, src, dst, i, j):
            out = signs(n, src, dst, i, j)
            if (i, j) == (0, 1):
                out[:1] *= -1
            return out

        monkeypatch.setattr(chains, "_edge_signs", negated)
    else:
        free = chains._marking_free

        def blocked(g):
            table = free(g).copy()
            table[tuple(np.argwhere(table)[0])] = False
            return table

        monkeypatch.setattr(chains, "_marking_free", blocked)


@pytest.mark.parametrize("ring", ["Z", "Z2"])
class TestPlantedFault:
    """A broken rectangle complex is refused when it is built, before
    `reduce_fast` collapses or fills anything."""

    def test_hfk_cells_raises(self, monkeypatch, ring):
        plant_fault(monkeypatch, ring)
        collapsed = []
        monkeypatch.setattr(SparseComplex, "collapse", collapsed.append)
        with pytest.raises(BoundarySquareNonzero):
            hfk_cells(parse_braid(BRAIDS["trefoil"]), ring)
        assert collapsed == []

    def test_crosscheck_run_fails_with_a_typed_error(self, monkeypatch, capsys, ring):
        plant_fault(monkeypatch, ring)
        coeff = {"Z": "z", "Z2": "z2"}[ring]
        assert main(["--braid", "1 1 1", "--crosscheck", "on", "--coeff", coeff]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: d^2 has entry")
        assert "Traceback" not in err


class TestMirror:
    def test_reversed_columns_give_the_mirror_table(self, rng):
        # the mirror's mod-2 table is H(-a, -m) of the knot's
        for n in (3, 4, 4, 5, 5, 6, 6):
            g = random_grid(n, rng)
            mirror = GridDiagram(g.xs[::-1], g.os[::-1])
            table = hfk_cells(g, "Z2").table
            flipped = {(-a, -m): r for (a, m), r in table.ranks().items()}
            assert hfk_cells(mirror, "Z2").table.ranks() == flipped
