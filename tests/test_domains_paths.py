"""Domain solver and path-counted short differentials."""

import concurrent.futures
import os
from fractions import Fraction

import pytest

from conftest import BRAIDS, random_grid
from references import faithful_short, short_complex_digest

from gridhfk import domains_paths
from gridhfk.chains import SparseComplex, long_complex, oval_generators
from gridhfk.domains_paths import DomainSolver, PathEngine, find_domain
from gridhfk.cli import main
from gridhfk.errors import DomainSystemSingular, MissingDomain, SliceWorkerDied
from gridhfk.gridkit import GridDiagram, parse_braid
from gridhfk.simplifier import minimize
from gridhfk.ovalgeo import (
    Arrangement,
    build_config,
    omission_candidates,
    select_best_config,
)
from gridhfk.reducer import (
    auto_skip,
    deconvolve,
    hfk_cells,
    homology,
    make_table,
)

UNKNOT2 = GridDiagram((1, 0), (0, 1))

# A grid whose short complex has a nonzero differential (32 unit entries);
# most small grids retract to a complex with no differential at all, which
# would leave the path machinery untested.
NONZERO_SHORT = GridDiagram((4, 1, 2, 3, 0), (2, 4, 3, 0, 1))


def rational_solver(arr):
    """Exact rational row reduction of the corner system, solved per query."""
    crossings = sorted(arr.config.all_points())
    pinned = set(arr.puncture_pieces().values()) | {arr.unbounded_piece()}
    free = [k for k in range(arr.piece_count) if k not in pinned]
    col_of = {k: j for j, k in enumerate(free)}
    rows = []
    for p in crossings:
        row = [Fraction(0)] * len(free)
        for piece, s in zip(arr.corner_pieces(p), (1, -1, 1, -1)):
            if piece in col_of:
                row[col_of[piece]] += s
        rows.append(row)

    def solve(targets):
        aug = [
            row + [Fraction(targets.get(p, 0))] for row, p in zip(rows, crossings)
        ]
        r = 0
        pivots = []
        for c in range(len(free)):
            pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
            if pivot is None:
                continue
            aug[r], aug[pivot] = aug[pivot], aug[r]
            aug[r] = [v / aug[r][c] for v in aug[r]]
            for i in range(len(aug)):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        if any(aug[i][-1] for i in range(r, len(aug))):
            return None
        domain = {}
        for i, c in enumerate(pivots):
            val = aug[i][-1]
            if val < 0 or val.denominator != 1:
                return None
            if val:
                domain[free[c]] = int(val)
        return domain

    return solve


class TestFindDomain:
    def long_arrangement_n2(self):
        config = build_config(UNKNOT2, (1, 1), "long")
        return config, Arrangement(config)

    def test_identical_generators_have_no_domain(self):
        config, arr = self.long_arrangement_n2()
        for x, _ in oval_generators(config):
            assert find_domain(arr, x, x) is None

    def test_bigon_domain_is_one_piece_once(self):
        # frozen micro complex: the entry ((3,6),) -> ((3,4),) is a bigon
        config, arr = self.long_arrangement_n2()
        domain = find_domain(arr, ((3, 6),), ((3, 4),))
        assert domain is not None
        assert sorted(domain.values()) == [1]
        # corner indices of the found domain: +1 at the source point,
        # -1 at the target point, 0 at the other two crossings
        assert arr.corner_index(domain, (3, 6)) == 1
        assert arr.corner_index(domain, (3, 4)) == -1
        assert arr.corner_index(domain, (7, 4)) == 0
        assert arr.corner_index(domain, (7, 6)) == 0

    def test_punctured_cap_has_no_domain(self):
        # the reverse of the bigon flip would sweep the punctured cap
        config, arr = self.long_arrangement_n2()
        assert find_domain(arr, ((3, 4),), ((3, 6),)) is None

    def test_short_tip_bigon_is_punctured(self):
        # n=2 short configuration: two generators, their only connecting
        # bigon contains the shared puncture, so no domain and no entry
        config = build_config(UNKNOT2, (1, 1), "short")
        arr = Arrangement(config)
        gens = [x for x, _ in oval_generators(config)]
        assert len(gens) == 2
        for x in gens:
            for y in gens:
                assert find_domain(arr, x, y) is None

    def test_domain_exists_for_every_long_entry(self):
        config = build_config(UNKNOT2, (1, 1), "long")
        arr = Arrangement(config)
        cx = long_complex(UNKNOT2, (1, 1))
        for x, row in cx.rows.items():
            for y, coeff in row.items():
                assert coeff
                assert find_domain(arr, x, y) is not None

    def test_nonnegativity_rejects_reverse_rectangles(self, rng):
        # on random grids, every edge's reverse needs a negative domain
        for _ in range(3):
            g = random_grid(3, rng)
            omit = select_best_config(g).omit
            config = build_config(g, omit, "long")
            arr = Arrangement(config)
            cx = long_complex(g, omit)
            checked = 0
            for x, row in cx.rows.items():
                for y in row:
                    assert find_domain(arr, x, y) is not None
                    if not cx.rows[y].get(x):
                        assert find_domain(arr, y, x) is None
                        checked += 1
            assert checked

    def test_integer_solver_matches_rational_reduction(self, rng):
        found = 0
        for n, style in ((3, "long"), (4, "short"), (4, "long"), (5, "short")):
            g = random_grid(n, rng)
            for omit in omission_candidates(g):
                config = build_config(g, omit, style)
                arr = Arrangement(config)
                solver = DomainSolver(arr)
                reference = rational_solver(arr)
                gens = [x for x, _ in oval_generators(config)]
                for _ in range(30):
                    x, y = rng.choice(gens), rng.choice(gens)
                    targets = dict.fromkeys(set(x) - set(y), 1)
                    targets.update(dict.fromkeys(set(y) - set(x), -1))
                    domain = solver.solve(targets)
                    assert domain == reference(targets), (g, omit, style, x, y)
                    found += domain is not None
                # single unit corner indices: mostly inconsistent or negative
                for p in rng.sample(config.all_points(), 10):
                    assert solver.solve({p: 1}) == reference({p: 1})
        assert found

    def test_column_without_unit_pivot_raises(self, monkeypatch):
        omit = select_best_config(NONZERO_SHORT).omit
        arr = Arrangement(build_config(NONZERO_SHORT, omit, "short"))
        piece = DomainSolver(arr).free[0]
        corners = Arrangement.corner_pieces

        def doubled(self, p):
            # a corner at `piece` takes the opposite corner too, so every
            # entry of the piece's column, and of any row sum, is even
            ne, nw, sw, se = corners(self, p)
            if piece in (ne, sw):
                ne = sw = piece
            if piece in (nw, se):
                nw = se = piece
            return ne, nw, sw, se

        monkeypatch.setattr(Arrangement, "corner_pieces", doubled)
        with pytest.raises(DomainSystemSingular, match=f"piece {piece}:"):
            DomainSolver(arr)

    def test_solver_uniqueness_assertion_holds(self, rng):
        for n in (2, 3, 4):
            g = random_grid(n, rng)
            omit = select_best_config(g).omit
            for style in ("long", "short"):
                config = build_config(g, omit, style)
                arr = Arrangement(config)
                arr.validate_periodic_domains()
                solver = DomainSolver(arr)
                assert solver.rank == len(solver.free)


class TestPathEngine:
    def assert_matches_faithful(self, g, omit=None):
        if omit is None:
            omit = select_best_config(g).omit
        cx = faithful_short(g, omit)
        eng = PathEngine(g, omit)
        pcx = eng.short_complex()
        assert cx.grading == pcx.grading
        for x in cx.rows:
            assert cx.rows[x] == pcx.rows[x]
        assert pcx.d_squared_violation() is None
        return cx, eng

    def test_unknot_rows_empty(self):
        eng = PathEngine(UNKNOT2)
        for x, _ in oval_generators(eng.short_cfg):
            assert eng.short_row(x) == {}

    def test_matches_faithful_on_trefoil(self):
        cx, eng = self.assert_matches_faithful(parse_braid(BRAIDS["trefoil"]))
        assert cx.entry_count == 0
        # short_complex empties its row cache; pulling the rows one by one
        # keeps it, and shows only a fraction of the cancelled generators
        # was explored
        assert not eng._rows
        for x in cx.rows:
            eng.short_row(x)
        assert 0 < len(eng._rows) < 1000

    def test_matches_faithful_on_nonzero_short(self):
        cx, _ = self.assert_matches_faithful(NONZERO_SHORT)
        assert cx.entry_count == 32
        coeffs = {c for row in cx.rows.values() for c in row.values()}
        assert coeffs == {1, -1}

    def test_matches_faithful_on_random_grids(self, rng):
        for _ in range(5):
            self.assert_matches_faithful(random_grid(rng.choice([3, 4]), rng))

    def test_every_omission_agrees(self, rng):
        g = random_grid(4, rng)
        candidates = [(c, g.xs[c]) for c in range(g.n)]
        for omit in candidates[:3]:
            self.assert_matches_faithful(g, omit)

    def test_no_domain_forces_zero_entry(self):
        # the prefilter is a sound one-sided test on the nonzero fixture
        eng = PathEngine(NONZERO_SHORT)
        arr = Arrangement(eng.short_cfg)
        pcx = eng.short_complex()
        gens = list(pcx.grading)
        discarded = 0
        for x in gens:
            a2x, mx = pcx.grading[x]
            for y in gens:
                a2y, my = pcx.grading[y]
                if a2x != a2y or my != mx - 1:
                    continue
                if find_domain(arr, x, y) is None:
                    assert pcx.rows[x].get(y, 0) == 0
                    discarded += 1
        assert discarded

    def test_prefilter_runs_inside_short_row(self):
        eng = PathEngine(NONZERO_SHORT)
        for x, _ in oval_generators(eng.short_cfg):
            eng.short_row(x)  # raises if a nonzero entry lacks a domain

    def test_entry_without_domain_is_a_typed_failure(self, monkeypatch):
        eng = PathEngine(NONZERO_SHORT)
        x = next(x for x in eng.short_complex().rows if eng.short_row(x))
        monkeypatch.setattr(domains_paths, "find_domain", lambda arr, x, y: None)
        with pytest.raises(MissingDomain):
            eng.short_row(x)

    def test_slices_are_assembled_apart(self):
        # clearing the row cache between Alexander slices changes no entry
        eng = PathEngine(NONZERO_SHORT)
        pcx = eng.short_complex()
        assert not eng._rows
        for x in pcx.rows:
            assert eng.short_row(x) == pcx.rows[x]

    def test_homology_agrees_with_cell_pipeline(self):
        for g in (UNKNOT2, NONZERO_SHORT, parse_braid(BRAIDS["trefoil"])):
            pcx = PathEngine(g).short_complex()
            table = make_table(deconvolve(homology(pcx), g.n), "Z")
            assert table.groups == hfk_cells(g).table.groups


class TestMod2Route:
    def test_mod2_complex_is_reduction(self):
        eng = PathEngine(NONZERO_SHORT)
        z_cx = eng.short_complex("Z")
        z2_cx = eng.short_complex("Z2")
        assert z_cx.grading == z2_cx.grading
        for x, row in z_cx.rows.items():
            assert {y for y, c in row.items() if c % 2} == set(z2_cx.rows[x])


def ordered(cx):
    """Gradings, rows and columns of a complex, in insertion order."""
    return (
        list(cx.grading.items()),
        [(x, list(row.items())) for x, row in cx.rows.items()],
        [(y, list(col.items())) for y, col in cx.cols.items()],
    )


def walk_order_complex(eng, ring, keep):
    """The short complex built in the order of a fresh `oval_generators` walk."""
    cx = SparseComplex(ring)
    gens = oval_generators(eng.short_cfg, keep)
    for x, a2 in gens:
        cx.add_generator(x, a2, eng.moves.gradings(x)[1])
    for x, _ in gens:
        for y, coeff in eng.short_row(x).items():
            cx.add_entry(x, y, coeff)
    eng._rows.clear()
    return cx


def kept_by_auto_skip(eng, n):
    """The a2 slices `hfk_paths` keeps with ``--skip auto``."""
    sizes = {}
    for _, a2 in oval_generators(eng.short_cfg):
        sizes[a2] = sizes.get(a2, 0) + 1
    return set(sizes) - auto_skip(sizes, n)


#: SHA-256 (`short_complex_digest`) of `PathEngine.short_complex` on the
#: minimized `BRAIDS` grids at their default omission, by knot, ring and
#: kept slices (all, those `--skip auto` keeps, the top one); any change to
#: an entry, a generator or their insertion order shows here
SHORT_COMPLEX_DIGESTS = {
    ("figure8", "Z", "all"): "0f6a737914120b231ab92566c972b5facf4442e8011096939ee1941d116c6fcc",
    ("figure8", "Z", "auto"): "9f82bb26081ef1f12300d72456a9c5f4a1f4370226a3c599f257d096ab9c51a1",
    ("figure8", "Z", "top"): "5ba0c9278272dbc7e56bafa76ab5eb73866af1fe39281305f65b64a79e2d81a5",
    ("figure8", "Z2", "all"): "0f6a737914120b231ab92566c972b5facf4442e8011096939ee1941d116c6fcc",
    ("figure8", "Z2", "auto"): "9f82bb26081ef1f12300d72456a9c5f4a1f4370226a3c599f257d096ab9c51a1",
    ("figure8", "Z2", "top"): "5ba0c9278272dbc7e56bafa76ab5eb73866af1fe39281305f65b64a79e2d81a5",
    ("5_2", "Z", "all"): "44cc02d62fea95a18df514503ebaf63706c9c5f7b4659be0599badabfb6c771b",
    ("5_2", "Z", "auto"): "5a6188fe55081ef65bfb407ccf19adbcc38450009258b3ec66a63f466386c989",
    ("5_2", "Z", "top"): "5bc87d6ade7ecac14c558deae1b87098f1a70eeedd3bf836f5004e3463d8eff8",
    ("5_2", "Z2", "all"): "44cc02d62fea95a18df514503ebaf63706c9c5f7b4659be0599badabfb6c771b",
    ("5_2", "Z2", "auto"): "5a6188fe55081ef65bfb407ccf19adbcc38450009258b3ec66a63f466386c989",
    ("5_2", "Z2", "top"): "5bc87d6ade7ecac14c558deae1b87098f1a70eeedd3bf836f5004e3463d8eff8",
    ("8_19", "Z", "all"): "9b899ab7aaf6a96a0f9f9b137a3e9d9d09d03e1817e65b869780e57a638a6b31",
    ("8_19", "Z", "auto"): "1261adae9b95ccf8e9a79b31d66559713ec5d009ececef2e2cb337b50bfa97e8",
    ("8_19", "Z", "top"): "516f0e2c60027817390a4c00cc98f5bc8189254dc81b9955e6c33545cbe28a9b",
    ("8_19", "Z2", "all"): "ba16ca5a2730eb2929d6f116fec62b443b6254f77470b4b62da9cf70864c3ed9",
    ("8_19", "Z2", "auto"): "43664a102b734ef8606c397fecdeb2723b27046acb6efa764a43b75c379a17c2",
    ("8_19", "Z2", "top"): "516f0e2c60027817390a4c00cc98f5bc8189254dc81b9955e6c33545cbe28a9b",
    ("8_20", "Z", "all"): "bc6d7f1bba704ba6f8a8ebd50b17266d49eb4fb3096345ceae5d8367e812f551",
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
class TestPooledSlices:
    """`short_complex` on a process pool: same complex, same checks."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Counts the executors `short_complex` creates."""
        created = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return created

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("an executor was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("name", ["figure8", "5_2", "8_19"])
    def test_pooled_complex_is_identical(self, name, monkeypatch, two_cpus, pools):
        g = minimize(parse_braid(BRAIDS[name]))
        eng = PathEngine(g)
        slices = {a2 for _, a2 in oval_generators(eng.short_cfg)}
        keeps = {
            "top": {max(slices)},
            "auto": kept_by_auto_skip(eng, g.n),
            "all": None,
        }
        assert keeps["auto"] < slices
        for ring in ("Z", "Z2"):
            for kept, keep in keeps.items():
                pinned = SHORT_COMPLEX_DIGESTS[name, ring, kept]
                monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 10**9)
                sequential = eng.short_complex(ring, keep)
                assert not pools
                assert short_complex_digest(sequential) == pinned
                # the engine's one walk, filtered, is the pruned walk
                assert ordered(sequential) == ordered(walk_order_complex(eng, ring, keep))
                monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
                pooled = eng.short_complex(ring, keep)
                # a single slice is never pooled
                assert pools == ([(2,)] if len(keep or slices) > 1 else [])
                pools.clear()
                assert short_complex_digest(pooled) == pinned
                assert not eng._rows
        if name == "8_19":
            assert pooled.entry_count

    def test_pooled_8_20_is_pinned(self, two_cpus, pools):
        eng = PathEngine(minimize(parse_braid(BRAIDS["8_20"])))
        cx = eng.short_complex("Z")
        assert pools == [(2,)]
        assert (cx.generator_count, cx.entry_count) == (3712, 3328)
        assert short_complex_digest(cx) == SHORT_COMPLEX_DIGESTS["8_20", "Z", "all"]

    def test_one_cpu_never_pools(self, monkeypatch, no_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        assert PathEngine(NONZERO_SHORT).short_complex().entry_count == 32

    def test_small_complex_never_pools(self, monkeypatch, two_cpus, no_pool):
        eng = PathEngine(minimize(parse_braid(BRAIDS["8_19"])))
        assert eng.short_complex().generator_count < domains_paths.PARALLEL_MIN_GENS
        # the refusing executor is in place: lowering the threshold reaches it
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        with pytest.raises(RuntimeError, match="executor was created"):
            eng.short_complex()

    def test_one_slice_never_pools(self, monkeypatch, two_cpus, no_pool):
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        eng = PathEngine(NONZERO_SHORT)
        a2 = next(a2 for _, a2 in oval_generators(eng.short_cfg))
        assert eng.short_complex(keep_a2={a2}).generator_count

    def test_worker_failure_keeps_its_type(self, monkeypatch, two_cpus):
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(domains_paths, "find_domain", lambda arr, x, y: None)
        with pytest.raises(MissingDomain, match="has no domain") as info:
            PathEngine(NONZERO_SHORT).short_complex()
        # raised in a worker: the pool attaches the worker's traceback
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"

    def test_worker_failure_through_main(self, monkeypatch, two_cpus, capsys):
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(domains_paths, "find_domain", lambda arr, x, y: None)
        word = " ".join(map(str, BRAIDS["8_19"]))
        argv = ["--braid", word, "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "has no domain" in err
        assert "Traceback" not in err

    def test_dead_worker_is_a_typed_failure(self, monkeypatch, two_cpus, capsys):
        monkeypatch.setattr(domains_paths, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(PathEngine, "_slice_rows", lambda self, gens: os._exit(3))
        with pytest.raises(SliceWorkerDied):
            PathEngine(NONZERO_SHORT).short_complex()
        argv = ["--braid", "1 1 1 2 -1 2", "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "died" in err
        assert "Traceback" not in err
