"""OLAP query layer over versioned cubes.

Statistical cubes are already the paper's data model; this package adds
the query side: dimension hierarchies derived from the metadata
(:mod:`.hierarchy`), a roll-up lattice per cube whose nodes
materialize on demand and which a new version of the cube rebinds
(:mod:`.lattice`), and a slice/dice/roll-up/drill-down service with
version pinning (:mod:`.query`).
"""

from .hierarchy import (
    ALL,
    ALL_LEVEL,
    DimHierarchy,
    Level,
    OlapError,
    derive_hierarchy,
    hierarchies_for,
)
from .lattice import CubeLattice, LatticeNode
from .query import OlapService, QueryResult, format_measure

__all__ = [
    "ALL",
    "ALL_LEVEL",
    "DimHierarchy",
    "Level",
    "OlapError",
    "derive_hierarchy",
    "hierarchies_for",
    "CubeLattice",
    "LatticeNode",
    "OlapService",
    "QueryResult",
    "format_measure",
]
