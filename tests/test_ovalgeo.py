from __future__ import annotations

import random

import pytest

from conftest import BRAIDS, random_grid
from references import euler_discrepancy, validate_periodic_domains
from gridhfk.errors import InvalidOmission
from gridhfk.gridkit import GridDiagram, maslov, parse_braid
from gridhfk.ovalgeo import (
    Arrangement,
    build_config,
    column_span,
    generator_count,
    omission_candidates,
    on_boundary,
    retraction_schedule,
    row_span,
    select_best_config,
)

UNKNOT2 = GridDiagram((1, 0), (0, 1))


class TestConfigs:
    def test_omission_candidates_are_o_cells(self):
        g = parse_braid(BRAIDS["trefoil"])
        cands = omission_candidates(g)
        assert len(cands) == g.n
        assert all(g.os[c] == r for c, r in cands)

    def test_invalid_omission(self):
        g = parse_braid(BRAIDS["trefoil"])
        unmarked = next(
            (c, r)
            for c in range(g.n)
            for r in range(g.n)
            if g.xs[c] != r and g.os[c] != r
        )
        with pytest.raises(InvalidOmission):
            build_config(g, unmarked, "short")
        with pytest.raises(ValueError):
            build_config(g, (0, g.os[0]), "medium")


class TestMicroWorld:
    """Hand-checked values for the size-2 unknot with omission (1, 1)."""

    def test_short_ovals(self):
        cfg = build_config(UNKNOT2, (1, 1), "short")
        v = cfg.v_ovals[0]
        h = cfg.h_ovals[0]
        assert (v.x1, v.x2, v.y1, v.y2) == (3, 7, 3, 17)
        assert (h.x1, h.x2, h.y1, h.y2) == (4, 16, 4, 6)

    def test_short_points(self):
        cfg = build_config(UNKNOT2, (1, 1), "short")
        assert cfg.all_points() == [(7, 4), (7, 6)]

    def test_long_points(self):
        cfg = build_config(UNKNOT2, (1, 1), "long")
        assert cfg.all_points() == [(3, 4), (3, 6), (7, 4), (7, 6)]

    def test_singleton_maslov(self):
        o_punct = UNKNOT2.o_punctures()
        values = {p: maslov((p,), o_punct, 0) for p in [(3, 4), (3, 6), (7, 4), (7, 6)]}
        assert values == {(3, 4): -1, (3, 6): 0, (7, 4): 0, (7, 6): -1}

    def test_schedule(self):
        _long, _short, events = retraction_schedule(UNKNOT2, (1, 1))
        assert len(events) == 1
        e = events[0]
        assert (e.oval_kind, e.oval_index) == ("H", 0)
        assert (e.p1, e.p2) == ((3, 6), (3, 4))

    def test_arrangement_pieces(self):
        cfg = build_config(UNKNOT2, (1, 1), "short")
        arr = Arrangement(cfg)
        assert arr.piece_count == 4
        assert euler_discrepancy(arr) == 0
        # the lens between the two ovals contains the shared marking (5, 5)
        lens = arr.piece_of_point((5, 5))
        others = {q: p for q, p in arr.puncture_pieces().items() if q != (5, 5)}
        assert lens not in others.values()


class TestZeroTwoFourRule:
    """Intersection counts follow the marking pattern of the cell."""

    @pytest.mark.parametrize("name", ["trefoil", "figure8", "5_2"])
    def test_rule(self, name):
        g = parse_braid(BRAIDS[name])
        cfg = build_config(g, omission_candidates(g)[0], "short")
        decorated = {(c, g.xs[c]) for c in range(g.n)} | {(c, g.os[c]) for c in range(g.n)}
        for c in cfg.kept_cols():
            rmin, rmax = column_span(g, c)
            for r in cfg.kept_rows():
                cmin, cmax = row_span(g, r)
                pts = cfg.points.get((c, r), ())
                if (c, r) in decorated:
                    assert len(pts) == 2
                    want_x = 10 * c + 7 if c == cmin else 10 * c + 3
                    assert {p[0] for p in pts} == {want_x}
                elif cmin < c < cmax and rmin < r < rmax:
                    assert len(pts) == 4
                else:
                    assert len(pts) == 0

    def test_long_always_four(self):
        g = parse_braid(BRAIDS["trefoil"])
        cfg = build_config(g, omission_candidates(g)[0], "long")
        for c in cfg.kept_cols():
            for r in cfg.kept_rows():
                assert len(cfg.points[(c, r)]) == 4


class TestSchedule:
    @pytest.mark.parametrize("name", ["trefoil", "figure8"])
    def test_conservation_and_survivors(self, name):
        g = parse_braid(BRAIDS[name])
        for omit in omission_candidates(g):
            long_cfg, short_cfg, events = retraction_schedule(g, omit)
            assert 2 * len(events) + len(short_cfg.all_points()) == len(long_cfg.all_points())
            assert len(long_cfg.all_points()) == 4 * (g.n - 1) ** 2

    def test_random_grids(self, rng: random.Random):
        for n in (3, 4, 5):
            for _ in range(3):
                g = random_grid(n, rng)
                for omit in omission_candidates(g)[:2]:
                    retraction_schedule(g, omit)  # raises on any bookkeeping failure


class TestArrangement:
    @pytest.mark.parametrize("style", ["long", "short"])
    def test_euler_and_periodic_domains(self, style, rng: random.Random):
        for n in (3, 4):
            for _ in range(2):
                g = random_grid(n, rng)
                for omit in omission_candidates(g)[:2]:
                    arr = Arrangement(build_config(g, omit, style))
                    assert euler_discrepancy(arr) == 0
                    validate_periodic_domains(arr)


class TestSelection:
    def test_select_best_is_deterministic_and_minimal(self):
        # minimal among the O's on the boundary, least such cell on ties,
        # and on the boundary even where an interior O has fewer generators
        interior_cheaper = 0
        for name in sorted(BRAIDS):
            g = parse_braid(BRAIDS[name])
            best = select_best_config(g)
            counts = {
                omit: generator_count(build_config(g, omit, "short"))
                for omit in omission_candidates(g)
            }
            allowed = {o: c for o, c in counts.items() if on_boundary(g, o)}
            assert on_boundary(g, best.omit)
            assert generator_count(best) == min(allowed.values())
            least = min(o for o, c in allowed.items() if c == generator_count(best))
            assert best.omit == least
            interior_cheaper += min(counts.values()) < generator_count(best)
        assert interior_cheaper  # figure-eight: 160 at (2, 3), 544 at (1, 0)
