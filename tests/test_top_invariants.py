"""The top-slice genus/fibered scan against the long-complex reference.

`reference_top_invariants` is the scan `top_invariants` used before it
moved to the short complex: it builds long-complex slices from the top of
the a2 interval bound downward and stops at the first one with nonzero
homology.  The long and short complexes have the same homology slice by
slice, so both scans must give the same (genus, fibered).
"""

import random

import pytest

from conftest import BRAIDS, random_grid

from gridhfk.chains import a2_range, long_complex, oval_generators
from gridhfk.domains_paths import PathEngine
from gridhfk.gridkit import parse_braid
from gridhfk.ovalgeo import build_config, select_best_config
from gridhfk.reducer import homology, reduce_fast, top_invariants
from gridhfk.simplifier import minimize

SEVEN_ONE = [1] * 7


def reference_top_invariants(g, ring="Z", omit=None):
    """(genus, fibered) from the top nonzero slice of the long complex."""
    if omit is None:
        omit = select_best_config(g).omit
    lo, hi = a2_range(build_config(g, omit, "long"))
    for a2 in range(hi, lo - 1, -2):
        cx = long_complex(g, omit, ring, keep_a2={a2})
        if not cx.grading:
            continue
        reduce_fast(cx)
        groups = homology(cx).groups
        if not groups:
            continue
        rank = sum(r for r, _ in groups.values())
        torsion = any(t for _, t in groups.values())
        return a2 // 2, rank == 1 and not torsion
    raise AssertionError("no nonzero slice found for a nonempty complex")


def presentations(word):
    """Every cyclic rotation of the braid word and of its mirror."""
    words = {tuple(word[r:] + word[:r]) for r in range(len(word))}
    words |= {tuple(-a for a in w) for w in words}
    return sorted(words)


@pytest.mark.parametrize("n, count", [(3, 20), (4, 20), (5, 20), (6, 5)])
def test_matches_reference_on_random_grids(n, count):
    rng = random.Random(4100 + n)
    for _ in range(count):
        g = random_grid(n, rng)
        for ring in ("Z", "Z2"):
            assert top_invariants(g, ring) == reference_top_invariants(g, ring), (
                g,
                ring,
            )


@pytest.mark.parametrize("name", sorted(BRAIDS))
def test_matches_reference_on_named_knots(name):
    g = minimize(parse_braid(BRAIDS[name]))
    for ring in ("Z", "Z2"):
        assert top_invariants(g, ring) == reference_top_invariants(g, ring)


@pytest.mark.parametrize(
    "word, expected",
    [(BRAIDS["8_20"], (2, True)), (BRAIDS["8_21"], (2, True)), (SEVEN_ONE, (3, True))],
    ids=["8_20", "8_21", "7_1"],
)
def test_pinned_on_every_rotation_and_mirror(word, expected):
    # 8_20 and 8_21 include the grids whose full paths tables break the
    # symmetry check; their top slices are still right
    seen = set()
    for w in presentations(list(word)):
        g = minimize(parse_braid(w))
        if (g.xs, g.os) in seen:
            continue
        seen.add((g.xs, g.os))
        for ring in ("Z", "Z2"):
            assert top_invariants(g, ring) == expected, (w, ring)


def test_builds_no_slice_below_the_first_nonzero_one(monkeypatch):
    built: list[set[int]] = []
    original = PathEngine.short_complex

    def counting(self, ring="Z", keep_a2=None):
        built.append(set(keep_a2))
        return original(self, ring, keep_a2=keep_a2)

    monkeypatch.setattr(PathEngine, "short_complex", counting)
    # unminimized grids often have empty top slices, which the scan passes
    rng = random.Random(20261018)
    grids = [minimize(parse_braid(BRAIDS["8_20"]))]
    grids += [random_grid(6, rng) for _ in range(30)]
    # the scan from the bottom, for the mirror check, likewise stops at the
    # lowest nonzero slice, 2·genus + 2(n−1) below zero
    passed_empty = 0
    for g in grids:
        built.clear()
        genus, _ = top_invariants(g)
        engine = PathEngine(g)
        top_down = sorted({a2 for _, a2 in oval_generators(engine.short_cfg)}, reverse=True)
        from_top = [{a2} for a2 in top_down if a2 >= 2 * genus]
        lowest = -2 * genus - 2 * (g.n - 1)
        from_bottom = [{a2} for a2 in reversed(top_down) if a2 <= lowest]
        assert built == from_top + from_bottom
        passed_empty += len(from_top) > 1
    assert passed_empty
