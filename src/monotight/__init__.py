"""Monochromatic t-tight components in r-colorings of complete k-uniform
hypergraphs: measurement, closed-form bounds, explicit constructions, small
Steiner systems, and exact minimax search."""

from .core import (
    Coloring,
    Hypergraph,
    MeasureResult,
    colex_rank,
    colex_unrank,
    measure,
    shadow,
    t_tight_components,
)

__all__ = [
    "Coloring",
    "Hypergraph",
    "MeasureResult",
    "colex_rank",
    "colex_unrank",
    "measure",
    "shadow",
    "t_tight_components",
]
