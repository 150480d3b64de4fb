"""Acceptance suite: one test per agreed criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
CRITERION lines; a failed assertion turns exactly that criterion's test
red.  Wall-clock budgets stated in the criteria are asserted directly.
"""

import random
import time

import pytest

from conftest import (
    BRAIDS,
    cyclic_col_shift,
    cyclic_row_shift,
    random_grid,
    stabilize,
)
from references import (
    Laurent,
    enumerated_long_euler,
    faithful_short,
    long_euler,
    long_gradings,
)
from test_domains_paths import NONZERO_SHORT

from gridhfk.chains import (
    LongMoves,
    long_complex,
    mos_complex,
    oval_generators,
)
from gridhfk.domains_paths import PathEngine, find_domain
from gridhfk.errors import IllegalCastling
from gridhfk.gridkit import (
    GridDiagram,
    LaurentPoly,
    alexander_polynomial,
    castle_columns,
    castle_rows,
    parse_braid,
)
from gridhfk.ovalgeo import (
    Arrangement,
    retraction_schedule,
    select_best_config,
)
from gridhfk.reducer import (
    deconvolve,
    hfk_cells,
    hfk_paths,
    homology,
    make_table,
    reduce_fast,
    universal_coefficients_consistent,
)
from gridhfk.simplifier import minimize

UNKNOT2 = GridDiagram((1, 0), (0, 1))

# Benchmark invariants, frozen from independent computations (the rectangle
# pipeline and the determinant oracle agree on all of them).
EXPECTED = {
    "trefoil": {
        "ranks": {(-1, 0): 1, (0, 1): 1, (1, 2): 1},
        "total": 3,
        "genus": 1,
        "fibered": True,
    },
    "figure8": {
        "ranks": {(-1, -1): 1, (0, 0): 3, (1, 1): 1},
        "total": 5,
        "genus": 1,
        "fibered": True,
    },
    "5_2": {
        "ranks": {(-1, 0): 2, (0, 1): 3, (1, 2): 2},
        "total": 7,
        "genus": 1,
        "fibered": False,
    },
    "8_19": {"ranks": {(-3, 0): 1, (-2, 1): 1, (0, 2): 1, (2, 5): 1, (3, 6): 1}},
    "8_20": {"ranks": {(-2, -2): 1, (-1, -1): 2, (0, 0): 3, (1, 1): 2, (2, 2): 1}},
    "8_21": {"ranks": {(-2, -1): 1, (-1, 0): 4, (0, 1): 5, (1, 2): 4, (2, 3): 1}},
}


def announce(number: int, label: str) -> None:
    print(f"\nCRITERION {number:02d} ({label}): PASS")


@pytest.fixture(scope="module")
def minimized():
    return {key: minimize(parse_braid(word)) for key, word in BRAIDS.items()}


@pytest.fixture(scope="module")
def two_pipelines(minimized):
    """(report, seconds) for the cells and paths pipelines on the benchmark knots."""
    out = {}
    for key in ("trefoil", "figure8", "5_2"):
        g = minimized[key]
        runs = {}
        for label, pipeline in (("cells", hfk_cells), ("paths", hfk_paths)):
            t0 = time.monotonic()
            rep = pipeline(g, "Z")
            runs[label] = (rep, time.monotonic() - t0)
        out[key] = runs
    return out


def test_criterion_01_stabilized_unknots():
    rng = random.Random(20260815)
    t0 = time.monotonic()
    grids = [UNKNOT2]
    for _ in range(20):
        u = UNKNOT2
        for _ in range(rng.randrange(1, 5)):
            if u.n < 6:
                u = stabilize(
                    u,
                    rng.randrange(u.n),
                    rng.randrange(u.n + 1),
                    rng.choice(("XO", "OX")),
                )
        grids.append(u)
    assert any(u.n == 6 for u in grids)
    for u in grids:
        for ring in ("Z", "Z2"):
            table = hfk_cells(u, ring).table
            assert table.groups == {(0, 0): (1, ())}
            assert table.genus == 0
            assert table.fibered is True
            assert table.torsion_free is True
        if u.n <= 5:
            assert hfk_paths(u, "Z").table.groups == {(0, 0): (1, ())}
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"unknot batch took {elapsed:.2f}s"
    announce(1, "unknot and 20 stabilizations, both rings, under 5s")


def test_criterion_02_size_two_micro_complexes():
    # rectangle complex: two generators, zero differential, gradings
    # (A, M) = (0, 0) and (-1, -1) (stored with the Alexander grading doubled)
    cx = mos_complex(UNKNOT2, "Z")
    assert sorted(cx.grading.values()) == [(-2, -1), (0, 0)]
    assert sum(len(row) for row in cx.rows.values()) == 0

    omit = select_best_config(UNKNOT2).omit
    long_cfg, short_cfg, events = retraction_schedule(UNKNOT2, omit)
    assert len(events) == 1

    assert sum(len(pts) for pts in long_cfg.points.values()) == 4
    assert len(oval_generators(long_cfg)) == 4

    assert sum(len(pts) for pts in short_cfg.points.values()) == 2
    moves = LongMoves(long_cfg)
    short_gradings = {long_gradings(moves, x) for x, _ in oval_generators(short_cfg)}
    assert short_gradings == {(0, 0), (-2, -1)}
    announce(2, "size-two complexes match the hand computation exactly")


def test_criterion_03_benchmark_knots_three_ways(minimized, two_pipelines):
    for key in ("trefoil", "figure8", "5_2"):
        g = minimized[key]
        omit = select_best_config(g).omit
        runs = two_pipelines[key]
        tables = {label: rep.table for label, (rep, _) in runs.items()}
        for label, (rep, seconds) in runs.items():
            assert seconds < 60.0, f"{key} {label} took {seconds:.1f}s"
        assert tables["cells"] == tables["paths"]
        if key != "5_2":
            # the eager faithful reduction of the whole long complex
            h = homology(faithful_short(g, omit))
            assert make_table(deconvolve(h, g.n), "Z") == tables["cells"]
        else:
            # the long complex has 2.9 million generators: reduce the
            # slices of its top two short a2 gradings alone and compare
            # them with the path engine's
            engine = PathEngine(g, omit)
            top = sorted({a2 for _, a2 in oval_generators(engine.short_cfg)})[-2:]
            faithful = faithful_short(g, omit, set(top))
            short = engine.short_complex("Z", keep_a2=set(top))
            assert set(faithful.grading) == set(short.grading)
            assert homology(faithful).groups == homology(reduce_fast(short)).groups
        expect = EXPECTED[key]
        table = tables["cells"]
        assert table.ranks() == expect["ranks"]
        assert table.total_rank() == expect["total"]
        assert table.genus == expect["genus"]
        assert table.fibered is expect["fibered"]
    announce(3, "trefoil/figure-eight/5_2: cells, eager faithful and paths agree")


def test_criterion_04_d_squared_on_random_grids():
    rng = random.Random(20260815 + 4)
    sizes = [2] * 10 + [3] * 25 + [4] * 30 + [5] * 31 + [6] * 4
    assert len(sizes) == 100
    for n in sizes:
        g = random_grid(n, rng)
        # each build raises `BoundarySquareNonzero` unless d^2 = 0
        mos_complex(g, "Z")
        omit = select_best_config(g).omit
        long_complex(g, omit, "Z")
    announce(4, "d-squared vanishes over Z on 100 random grids, both complexes")


def test_criterion_05_euler_matches_determinant(minimized):
    one_minus_tinv = Laurent({0: 1, -1: -1})
    for key in ("unknot", "trefoil", "figure8", "5_2", "8_19"):
        g = minimized[key]
        assert g.n <= 7
        target = one_minus_tinv ** (g.n - 1) * alexander_polynomial(g)

        omit = select_best_config(g).omit
        if g.n <= 5:
            assert enumerated_long_euler(g, omit) == long_euler(g, omit), key
        # exact equality: the complexes realize the determinant on the nose,
        # so the allowed global unit is +1
        assert long_euler(g, omit) == target, key

        mos = mos_complex(g, "Z")
        mos_terms: dict[int, int] = {}
        for a2, m in mos.grading.values():
            mos_terms[a2 // 2] = mos_terms.get(a2 // 2, 0) + (-1) ** (m % 2)
        assert LaurentPoly(mos_terms) == target, key
    announce(5, "graded Euler characteristics equal the determinant exactly")


def test_criterion_06_eight_crossing_torsion_sweep(minimized):
    t0 = time.monotonic()
    for key in ("8_19", "8_20", "8_21"):
        g = minimized[key]
        over_z = hfk_cells(g, "Z")
        over_z2 = hfk_cells(g, "Z2")
        assert over_z.table.torsion_free is True, key
        assert over_z.table.ranks() == EXPECTED[key]["ranks"], key
        assert universal_coefficients_consistent(
            over_z.homology, over_z2.homology
        ), key
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"torsion sweep took {elapsed:.1f}s"
    announce(6, "8_19/8_20/8_21 torsion-free over Z, mod-2 ranks consistent")


def _random_representation(g, rng, moves=8, max_n=9):
    h = g
    for _ in range(moves):
        kind = rng.choice(("rshift", "cshift", "castle_c", "castle_r", "stab"))
        if kind == "rshift":
            h = cyclic_row_shift(h, rng.randrange(1, h.n))
        elif kind == "cshift":
            h = cyclic_col_shift(h, rng.randrange(1, h.n))
        elif kind == "castle_c":
            try:
                h = castle_columns(h, rng.randrange(h.n - 1))
            except IllegalCastling:
                pass
        elif kind == "castle_r":
            try:
                h = castle_rows(h, rng.randrange(h.n - 1))
            except IllegalCastling:
                pass
        elif h.n < max_n:
            h = stabilize(
                h,
                rng.randrange(h.n),
                rng.randrange(h.n + 1),
                rng.choice(("XO", "OX")),
            )
    return h


def test_criterion_07_representation_independence(minimized, two_pipelines):
    rng = random.Random(20260815 + 7)
    for key in ("trefoil", "figure8", "5_2"):
        base = two_pipelines[key]["cells"][0].table
        for _ in range(5):
            h = _random_representation(minimized[key], rng)
            m = minimize(h)
            rep = hfk_cells(m, "Z") if m.n <= 6 else hfk_paths(m, "Z")
            assert rep.table == base, key
    announce(7, "five random re-presentations per knot, identical tables")


def test_criterion_08_path_differential_and_prefilter():
    rng = random.Random(20260815 + 8)
    grids = [UNKNOT2, NONZERO_SHORT]
    while len(grids) < 30:
        grids.append(random_grid(rng.choice((3, 4, 4, 5, 5)), rng))
    nonzero_entries = 0
    discarded_pairs = 0
    for g in grids:
        omit = select_best_config(g).omit
        engine = PathEngine(g, omit)  # prefilter on: asserts a domain
        faithful = faithful_short(g, omit)  # exists for every nonzero entry
        gens = list(faithful.grading)
        assert set(gens) == {x for x, _ in oval_generators(engine.short_cfg)}
        short = engine.short_complex()
        for x in gens:
            row = short.rows[x]
            assert row == faithful.rows[x], (g, x)
            nonzero_entries += len(row)
        # exhaustive converse on every grading-compatible pair: whenever the
        # prefilter finds no domain, the true entry is zero
        arr = Arrangement(engine.short_cfg)
        grading = faithful.grading
        for x in gens:
            a2, m = grading[x]
            for y in gens:
                if grading[y] != (a2, m - 1):
                    continue
                if find_domain(arr, x, y) is None:
                    discarded_pairs += 1
                    assert faithful.rows[x].get(y, 0) == 0, (g, x, y)
    assert nonzero_entries > 0
    assert discarded_pairs > 0
    announce(8, "path rows equal faithful reduction; prefilter is sound")


def test_criterion_09_skip_reconstruction(minimized, two_pipelines):
    for key in ("trefoil", "figure8", "5_2"):
        g = minimized[key]
        unskipped = two_pipelines[key]["paths"][0].table
        assert unskipped == two_pipelines[key]["cells"][0].table
        assert hfk_paths(g, "Z", skip="auto").table == unskipped
        assert hfk_paths(g, "Z2", skip="auto").table == hfk_paths(g, "Z2").table
    announce(9, "auto-skip reconstruction reproduces the unskipped tables")


def test_criterion_10_stabilization_robustness(minimized):
    rng = random.Random(20260815)
    trefoil = minimized["trefoil"]
    assert trefoil.n == 5
    delta = alexander_polynomial(trefoil)
    g = trefoil
    for _ in range(5):
        g = stabilize(
            g,
            rng.randrange(g.n),
            rng.randrange(g.n + 1),
            rng.choice(("XO", "OX")),
        )
        assert alexander_polynomial(g) == delta
    assert g.n == 10
    recovered = minimize(g, budget=100000)
    assert recovered.n == 5
    assert hfk_cells(recovered, "Z").table.ranks() == EXPECTED["trefoil"]["ranks"]
    announce(10, "five-fold stabilized trefoil returns to size 5 in budget")
