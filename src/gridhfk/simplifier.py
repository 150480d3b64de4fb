"""Budgeted search for a smaller presentation of the same knot.

The moves that preserve the knot type never need to enlarge the grid to
expose a destabilization in practice, so the search explores the neighbours
`gridkit.moves` yields: legal castlings and (slide-assisted)
destabilizations.  It runs breadth-first from the current diagram,
deduplicating positions by their canonical key, which every cyclic
translate shares (so shifts are not moves here); whenever a strictly
smaller grid is found the search stops reading neighbours and restarts
from it with a fresh visited set, which keeps the frontier from filling up
with large diagrams once progress has been made.

The budget counts node expansions.  The result is deterministic: frontiers
are expanded in canonical-key order (each position keeps its key beside it)
and the returned diagram is the canonical representative of the best
``(size, key)`` pair encountered.
"""

from __future__ import annotations

from .gridkit import GridDiagram, canonical_key, moves


def minimize(g: GridDiagram, budget: int = 20000) -> GridDiagram:
    """Search for a small grid presenting the same knot as ``g``.

    Spends at most ``budget`` node expansions; ``budget = 0`` returns ``g``
    itself.
    """
    if budget <= 0:
        return g
    best_key = canonical_key(g)
    best_n = g.n
    start = best_key
    while budget > 0:
        visited = {start}
        frontier = [(start, GridDiagram(*start))]
        restart: tuple | None = None
        while frontier and budget > 0 and restart is None:
            frontier.sort(key=lambda entry: entry[0])
            successors: list[tuple[tuple, GridDiagram]] = []
            for _, node in frontier:
                if budget <= 0 or restart is not None:
                    break
                budget -= 1
                for nb in moves(node):
                    key = canonical_key(nb)
                    if key in visited:
                        continue
                    visited.add(key)
                    if (nb.n, key) < (best_n, best_key):
                        best_n, best_key = nb.n, key
                    if nb.n < node.n:
                        restart = key
                        break
                    successors.append((key, nb))
            frontier = successors
        if restart is None:
            break
        start = restart
    return GridDiagram(*best_key)
