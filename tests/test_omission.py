"""The omitted marking must lie on the boundary of the square.

Omitting any other marking leaves the long arrangement's unbounded region
without a basepoint; the path engine refuses such an omission rather than
return a table that may be wrong.  The sweeps below hold every accepted
omission against the rectangle oracle, and every refused one against
`InvalidOmission`.
"""

import random
import re
from itertools import permutations

import pytest

from conftest import BRAIDS

from gridhfk.errors import InvalidOmission
from gridhfk.gridkit import CENTER, SCALE, GridDiagram, component_count, parse_braid
from gridhfk.ovalgeo import Arrangement, build_config, on_boundary
from gridhfk.reducer import hfk_cells, hfk_paths, top_invariants
from gridhfk.simplifier import minimize

#: (genus, fibered) of each `BRAIDS` knot; a mirror has the same answers
GENUS_FIBERED = {
    "unknot": (0, True),
    "trefoil": (1, True),
    "figure8": (1, True),
    "5_2": (1, False),
    "8_19": (3, True),
    "8_20": (2, True),
    "8_21": (2, True),
}


def grids(n):
    """Every one-component grid diagram of size ``n``."""
    out = []
    for xs in permutations(range(n)):
        for os in permutations(range(n)):
            if any(x == o for x, o in zip(xs, os)):
                continue
            g = GridDiagram(xs, os)
            if component_count(g) == 1:
                out.append(g)
    return out


def markings(g):
    """Every marked cell, X and O."""
    return [(c, r) for c in range(g.n) for r in (g.xs[c], g.os[c])]


def assert_sweep_pair(g, omit, cells):
    if on_boundary(g, omit):
        assert hfk_paths(g, "Z", omit=omit).table == cells, (g, omit)
    else:
        with pytest.raises(InvalidOmission, match=re.escape(str(omit))):
            hfk_paths(g, "Z", omit=omit)


def test_exhaustive_size_4_sweep():
    pairs = boundary = 0
    for g in grids(4):
        cells = hfk_cells(g).table
        for c in range(g.n):
            assert_sweep_pair(g, (c, g.os[c]), cells)
            pairs += 1
            boundary += on_boundary(g, (c, g.os[c]))
    assert (pairs, boundary) == (576, 432)


def test_sampled_size_5_sweep():
    rng = random.Random(20261019)
    pairs = [(g, (c, g.os[c])) for g in grids(5) for c in range(5)]
    assert len(pairs) == 14400
    sample = rng.sample(pairs, 300)
    assert sum(not on_boundary(g, omit) for g, omit in sample) > 50
    tables = {}
    for g, omit in sample:
        if g not in tables:
            tables[g] = hfk_cells(g).table
        assert_sweep_pair(g, omit, tables[g])


def test_rule_is_the_unbounded_region():
    # the index rule says exactly which omitted marking lies in the long
    # arrangement's unbounded region
    checked = 0
    for g in grids(4):
        for c, r in markings(g):
            arr = Arrangement(build_config(g, (c, r), "long"))
            point = (SCALE * c + CENTER, SCALE * r + CENTER)
            outside = arr.piece_of_point(point) == arr.unbounded_piece()
            assert outside == on_boundary(g, (c, r)), (g, (c, r))
            checked += 1
    assert checked == 8 * 144


@pytest.mark.parametrize("name", sorted(BRAIDS))
def test_genus_pins_at_every_boundary_omission(name):
    for mirror in (1, -1):
        g = minimize(parse_braid([mirror * a for a in BRAIDS[name]]))
        omissions = [cell for cell in markings(g) if on_boundary(g, cell)]
        assert len(omissions) >= 4
        for omit in omissions:
            for ring in ("Z", "Z2"):
                assert top_invariants(g, ring, omit) == GENUS_FIBERED[name], (
                    mirror,
                    omit,
                    ring,
                )
