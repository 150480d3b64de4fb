from __future__ import annotations

import hashlib
import random

import pytest

from conftest import BRAIDS, random_grid
from references import (
    euler_discrepancy,
    generator_count,
    maslov,
    validate_periodic_domains,
)
from gridhfk.errors import InvalidOmission
from gridhfk.gridkit import GridDiagram, parse_braid
from gridhfk.ovalgeo import (
    Arrangement,
    build_config,
    column_span,
    omission_candidates,
    on_boundary,
    retraction_schedule,
    row_span,
    select_best_config,
)
from gridhfk.simplifier import minimize

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


def schedule_digest(events) -> str:
    """SHA-256 of the ordered events of a retraction schedule."""
    text = repr([(e.oval_kind, e.oval_index, e.p1, e.p2) for e in events])
    return hashlib.sha256(text.encode()).hexdigest()


#: `schedule_digest` of `retraction_schedule` on the minimized `BRAIDS`
#: grids at every boundary omission, by knot and omitted cell, with the
#: event count.  The short complex is the same for any valid elimination
#: order, so its digests cannot catch a reordered schedule; these can
RETRACTION_SCHEDULE_DIGESTS = {
    ("unknot", (0, 1)): "73c067ae920bd99a8b83f3c2a2d6ca9ba32402679b93292ae907b0e9ce3c33cd",  # 1
    ("unknot", (1, 0)): "ed449fda8742bcfe62a51a95e7361fbebdcd9107a1d6f5d3f1f714053e0d002e",  # 1
    ("trefoil", (0, 3)): "491bff8bfa449f72200326ed3ebb57fd430017b2f70887c9f4058ef036589930",  # 21
    ("trefoil", (1, 4)): "8c05e5e8af1b77a6f22804ced75cf5991d1a0241ff5043856b068e5123ce3c54",  # 21
    ("trefoil", (2, 0)): "31dae1cf45455105e2116d90d0a64d578c4fd60b0f5c759994512d0ec114f9b8",  # 21
    ("trefoil", (4, 2)): "684d6293c55c2850f13ffd20d001cf4c00429255455919a4a629aa4206fe8e16",  # 21
    ("figure8", (0, 2)): "61efcc107aee280d4b0d1d9f8baf749cbaae6d6ced94544e58983ab2b20cc01d",  # 35
    ("figure8", (1, 5)): "053e1ce172ff9d82cdce6d96d95ed0c7d550bab334babe03bff36201ea20b590",  # 33
    ("figure8", (2, 0)): "f382fe3cfb569b058b94db7df2553d5bbf443ac38451b5248aa130dd9bded1da",  # 35
    ("figure8", (5, 1)): "b21c7105f41f78222049630d743793d4b55edfa7506b15a719f88b52443ae036",  # 33
    ("5_2", (0, 4)): "26d4f27ec6bfd0c84f42159d51854a0fd8f9bd38b606d43eb42efb4ec6f4679d",  # 53
    ("5_2", (1, 6)): "1b40ee227d19d568f9f7529a3aef06a6e21fd6a305645bd8a89e9456988cd544",  # 51
    ("5_2", (2, 0)): "549a4cb18115fd010de1c2e73072c007ffb184adb80d2de28e9972f5159010ad",  # 51
    ("5_2", (6, 2)): "82b002074a36ae2c3fdae380b9eacf314a94eb8002b9694bd90f8beea307dd41",  # 51
    ("8_19", (0, 4)): "c302c6923a49d34ab5cb92bb5fa40abd90eefb78f051c7287d750b226f9af1de",  # 49
    ("8_19", (2, 6)): "af0b7e15845ea6862ed179a01d839dfc173e708ef7f5d4cb91d72610d9e97e74",  # 49
    ("8_19", (3, 0)): "05bc81f1e74e26b3793292ea9d2b030f0be839859bdebed825518d93fac4ac97",  # 49
    ("8_19", (6, 3)): "6b5407b509ca2aa110b2d97707e53d9ffc765249d64751311997a02671c71513",  # 49
    ("8_20", (0, 5)): "0d33a047bd9c9f7831fb3783eb6114557bb48c8897b518ae943fec7d36a286e4",  # 73
    ("8_20", (2, 0)): "488df87c1f867565e7cbf7f0915d86d055f69f8f035897404585bc6346b50586",  # 71
    ("8_20", (7, 7)): "cc62814a70793b6b5db892a0a23092f52e6f97f2b4bb33f081c9f678048ad9c9",  # 69
    ("8_21", (0, 5)): "571236f98aaaba16178599ea41640873e404d08ecbd15a93dbcf09b24e197f61",  # 71
    ("8_21", (1, 7)): "a1d1267974d97bed2a1e63e3e40618a110abf43102833cdc6d7811afb68e65bc",  # 67
    ("8_21", (2, 0)): "3d669b73bc3f2e738862ec43332a5362f903cff3a38e6de584397f72f14b46de",  # 67
    ("8_21", (7, 4)): "5c8f77fcd3a45d640590b7fc5b5318b9e94fd3bdcada0268a1c630ca7a37fd71",  # 69
}


class TestSchedulePins:
    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_events_are_pinned(self, name):
        g = minimize(parse_braid(BRAIDS[name]))
        omits = [omit for omit in omission_candidates(g) if on_boundary(g, omit)]
        pinned = {o: d for (knot, o), d in RETRACTION_SCHEDULE_DIGESTS.items() if knot == name}
        assert sorted(pinned) == omits
        for omit in omits:
            events = retraction_schedule(g, omit)[2]
            assert schedule_digest(events) == pinned[omit], (name, omit)


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
