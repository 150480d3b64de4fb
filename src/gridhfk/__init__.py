"""Knot Floer homology (hat version) of knots presented by grid diagrams.

The package computes the bigraded groups over the integers and over the
field with two elements, together with the Seifert genus and fiberedness
detection, from combinatorial chain complexes associated to a grid diagram.
"""

from __future__ import annotations

from .gridkit import GridDiagram, parse_braid, parse_grid_text
from .reducer import (
    HFKTable,
    PipelineReport,
    hfk_cells,
    hfk_paths,
    top_invariants,
)
from .simplifier import minimize

__version__ = "0.1.0"

__all__ = [
    "GridDiagram",
    "HFKTable",
    "PipelineReport",
    "hfk_cells",
    "hfk_paths",
    "minimize",
    "parse_braid",
    "parse_grid_text",
    "top_invariants",
    "__version__",
]
