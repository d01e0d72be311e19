"""The roll-up lattice of one cube, materialized on demand.

Gray et al.'s data cube is the union of group-bys over every subset of
dimensions; with hierarchies, every *combination of one level per
dimension* is a lattice node, so the node count is the product of the
hierarchy depths.  :class:`CubeLattice` names all of them for one cube
but reduces a node only when a query first reads it: a roll-up pays for
the one cuboid it names (Kuijpers–Vaisman: one level choice) and every
later read of that node is a dictionary lookup.

Three properties keep the lattice honest:

* **Every node reduces the base rows directly** (never a finer node),
  with measures folded in :func:`repro.stats.aggregates.canonical_bag`
  order.  A lattice-served aggregate is therefore bit-identical to a
  recompute-from-scratch oracle, whatever order nodes were read in.
* **One reduce, over the columns the cube is held in.**  A node groups
  the bound cube's ``(dictionaries, codes, measures)``
  (:meth:`Cube.encoded`: a chase output's store, the columns a CSV was
  parsed into); a cube held only as its keyed view is given
  first-occurrence codes once per binding.  The level value of each
  dictionary entry is computed once per (dimension, level) and shared
  by every node using that level; a node is then one
  :func:`collect` over the rows' level-value keys and one
  :func:`reduce_bags`, groups in first-occurrence order.  The base
  node's keys are the cube's distinct keys, so each row is its own
  group and is folded alone.  All of it is plain Python: a lattice
  loads neither numpy nor the chase's columnar modules (DESIGN.md §11
  has the measurements).
* **A new version rebinds.**  A lattice follows its cube by
  :meth:`CubeLattice.build`: the new head is bound, every reduced node
  is dropped, and each node reduces again from the new rows when a
  query next reads it.  That is the one way a node is ever computed,
  so a node read after any number of versions is the group-by of the
  current cube and nothing else (DESIGN.md §11).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..chase.groupreduce import collect, reduce_bags
from ..model.cube import Cube, as_list
from ..stats.aggregates import get_aggregate
from .hierarchy import DimHierarchy, Level, OlapError

__all__ = ["LatticeNode", "CubeLattice"]


class LatticeNode:
    """One group-by of the lattice: a chosen level per dimension.

    ``key`` names the level choice (one level name per dimension, in
    schema order); ``groups`` maps group keys — tuples of level values
    for the non-all dimensions, in schema order — to the aggregate of
    the base measures rolling up into them.  ``groups`` is reduced from
    the lattice's bound cube the first time it is read.
    """

    __slots__ = ("key", "levels", "_lattice", "_groups")

    def __init__(
        self,
        key: Tuple[str, ...],
        levels: Tuple[Level, ...],
        lattice: "CubeLattice",
    ):
        self.key = key
        self.levels = levels
        self._lattice = lattice
        self._groups: Optional[Dict[Tuple, float]] = None

    @property
    def groups(self) -> Dict[Tuple, float]:
        if self._groups is None:
            self._lattice.materialize([self])
        return self._groups

    @groups.setter
    def groups(self, groups: Dict[Tuple, float]) -> None:
        self._groups = groups

    @property
    def materialized(self) -> bool:
        """Whether ``groups`` has been reduced (reading it does so)."""
        return self._groups is not None


class CubeLattice:
    """All roll-up nodes of one cube, reduced on demand from the cube
    the lattice is bound to."""

    def __init__(
        self,
        name: str,
        hierarchies: Tuple[DimHierarchy, ...],
        aggregate: Any = "sum",
        metrics=None,
    ):
        self.name = name
        self.hierarchies = hierarchies
        if callable(aggregate):
            # an ad-hoc callable: usable, but opaque — no sidecar name
            self.agg_name: Optional[str] = None
            self.aggregate: Callable = aggregate
        else:
            self.agg_name = str(aggregate).lower()
            self.aggregate = get_aggregate(self.agg_name)
            if self.agg_name == "mean":  # canonical registry name
                self.agg_name = "avg"
        self.metrics = metrics
        self.version: Optional[int] = None
        self.nodes: Dict[Tuple[str, ...], LatticeNode] = {}
        for key, levels in _level_product(hierarchies):
            self.nodes[key] = LatticeNode(key, levels, self)
        self._base: Optional[Cube] = None
        # the bound cube's (dictionaries, codes, measures) as Python
        # lists, and per (dimension position, level name) the level
        # value of each dictionary entry: made by the first reduce of a
        # binding, shared by every node after it
        self._encoded: Optional[Tuple[List, List, List]] = None
        self._level_values: Dict[Tuple[int, str], Sequence[Any]] = {}
        if metrics is not None:
            metrics.inc("olap.lattice.nodes", len(self.nodes))

    # -- lookups -----------------------------------------------------------
    def node(self, levels: Dict[str, str]) -> LatticeNode:
        """The node for a level choice; unnamed dimensions stay at base."""
        key = []
        named = dict(levels)
        for hierarchy in self.hierarchies:
            choice = named.pop(hierarchy.dim.name, None)
            if choice is None:
                key.append(hierarchy.levels[0].name)
            else:
                key.append(hierarchy.level(choice).name)  # validates
        if named:
            raise OlapError(
                f"cube {self.name!r} has no dimension "
                f"{sorted(named)[0]!r}"
            )
        return self.nodes[tuple(key)]

    def hierarchy(self, dim: str) -> DimHierarchy:
        for hierarchy in self.hierarchies:
            if hierarchy.dim.name == dim:
                return hierarchy
        raise OlapError(f"cube {self.name!r} has no dimension {dim!r}")

    def materialized_nodes(self) -> List[LatticeNode]:
        return [node for node in self.nodes.values() if node.materialized]

    def total_groups(self) -> int:
        """Groups held by the materialized nodes (reduces none)."""
        return sum(len(node.groups) for node in self.materialized_nodes())

    def materialize_all(self) -> None:
        """Reduce every node not yet read: what a dump of the whole
        lattice, or a measurement over all of it, needs first."""
        for node in self.nodes.values():
            node.groups

    def base_node(self) -> LatticeNode:
        """The finest node: every dimension at its base level."""
        return self.nodes[tuple(h.levels[0].name for h in self.hierarchies)]

    def cell(self, key: Tuple) -> float:
        """The base node's value at one dimension tuple; ``KeyError``
        where the cube is undefined.

        A base group is one row, so an unmaterialized base node is not
        reduced for it: the aggregate of that row's measure alone is
        the value the node would hold.
        """
        base = self.base_node()
        if base.materialized:
            return base.groups[key]
        measure = None if self._base is None else self._base.get(key)
        if measure is None:
            raise KeyError(key)
        return self.aggregate([measure])

    # -- binding and on-demand reduction -------------------------------------
    def build(self, cube: Cube, version: Optional[int] = None) -> None:
        """Bind the lattice to a base cube and drop every reduced node.

        No group-by runs here: each node reduces from ``cube`` when its
        ``groups`` are first read.  This is also how a lattice follows
        its cube to a new version.
        """
        self._base = cube
        self.version = version
        self._encoded = None
        self._level_values = {}
        for node in self.nodes.values():
            node._groups = None
        if self.metrics is not None:
            self.metrics.inc("olap.lattice.builds")

    def materialize(self, nodes: Iterable[LatticeNode]) -> None:
        """Reduce the not yet materialized ``nodes`` from the bound
        cube: what a query that assembles several nodes (a cross-tab)
        asks for."""
        for node in nodes:
            if node.materialized:
                continue
            node.groups = self._reduce(node)
            if self.metrics is not None:
                self.metrics.inc("olap.lattice.groups", len(node.groups))

    def _reduce(self, node: LatticeNode) -> Dict[Tuple, float]:
        """The group-by of the bound cube at ``node``'s levels."""
        if self._base is None or not len(self._base):
            return {}
        dictionaries, codes, measures = self._encoding()
        columns = [
            map(self._level_column(j, lvl, dictionaries[j]).__getitem__, codes[j])
            for j, lvl in enumerate(node.levels)
            if not lvl.is_all
        ]
        keys = zip(*columns) if columns else repeat((), len(measures))
        if all(lvl.is_base for lvl in node.levels):
            # the cube's keys are distinct: every row is a group of its own
            return {key: self.aggregate([m]) for key, m in zip(keys, measures)}
        return reduce_bags(collect(zip(keys, measures)), self.aggregate)

    def _encoding(self) -> Tuple[List, List, List]:
        if self._encoded is None:
            encoded = self._base.encoded()
            if encoded is None:
                self._encoded = _first_occurrence_codes(self._base)
            else:
                dictionaries, codes, measures = encoded
                self._encoded = (
                    dictionaries,
                    [as_list(column) for column in codes],
                    as_list(measures),
                )
        return self._encoded

    def _level_column(
        self, j: int, lvl: Level, dictionary: Sequence[Any]
    ) -> Sequence[Any]:
        """The level value of each entry of dimension ``j``'s dictionary."""
        values = self._level_values.get((j, lvl.name))
        if values is None:
            values = dictionary if lvl.is_base else list(map(lvl.fn, dictionary))
            self._level_values[(j, lvl.name)] = values
        return values


def _first_occurrence_codes(cube: Cube) -> Tuple[List, List, List]:
    """``(dictionaries, codes, measures)`` of a cube held only as its
    keyed view, codes numbered by first occurrence."""
    dictionaries, codes = [], []
    for column in zip(*cube.keys()):
        code_of: Dict[Any, int] = {}
        codes.append([code_of.setdefault(value, len(code_of)) for value in column])
        dictionaries.append(list(code_of))
    return dictionaries, codes, list(cube.values())


def _level_product(
    hierarchies: Tuple[DimHierarchy, ...],
) -> List[Tuple[Tuple[str, ...], Tuple[Level, ...]]]:
    """Every one-level-per-dimension combination, base node first."""
    combos: List[Tuple[Tuple[str, ...], Tuple[Level, ...]]] = [((), ())]
    for hierarchy in hierarchies:
        combos = [
            (names + (lvl.name,), levels + (lvl,))
            for names, levels in combos
            for lvl in hierarchy.levels
        ]
    return combos
