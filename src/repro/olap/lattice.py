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
  recompute-from-scratch oracle, whichever path built it.
* **Reducing uses the representation the cube is already in.**  A
  bound cube that carries a :class:`ColumnStore` image (chase outputs
  and engine-held cubes do) is grouped with the same primitives as the
  aggregation kernel — per-distinct-value level transforms
  (:func:`transform_encoded`, cached per (dimension, level) and shared
  by every node using that level), mixed-radix composite group codes
  (:func:`mix_codes`), one :func:`sorted_slices` pass per node.  A cube that is
  only rows — one just parsed from CSV — answers its first request
  with a plain dict group-by, which beats encode + columnar for one
  node; the image is built when a second request comes, and serves
  every node from then on (DESIGN.md §11 has the measurements).
  Composite-code overflow takes the dict group-by, with identical
  results.  numpy and
  the columnar modules are imported when an image is first used, never
  before.
* **A new version rebinds.**  A lattice follows its cube by
  :meth:`CubeLattice.build`: the new head is bound, every reduced node
  is dropped, and each node reduces again from the new rows when a
  query next reads it.  That is the one way a node is ever computed,
  so a node read after any number of versions is the group-by of the
  current cube and nothing else (DESIGN.md §11).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..chase.groupreduce import collect, reduce_bags, sorted_slices
from ..model.cube import Cube
from ..stats.aggregates import get_aggregate
from .hierarchy import DimHierarchy, Level, OlapError

# numpy, ``chase.colstore``, ``chase.columnar`` and ``chase.instance``
# are imported by the functions that group an image: a lattice that
# reduces from rows (``exl query``) loads none of them.
# ``chase.groupreduce`` imports nothing itself
if TYPE_CHECKING:
    from ..chase.columnar import EncodedColumn

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
        # per-(dimension position, level name) transforms of the bound
        # cube, shared by every node that uses the level: encoded columns
        # on the columnar path, base value -> level value maps on the
        # tuple path
        self._columns: Dict[Tuple[int, str], EncodedColumn] = {}
        self._value_maps: Dict[Tuple[int, str], Dict[Any, Any]] = {}
        # requests the bound cube has answered (see materialize)
        self._requests = 0
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
        self._columns = {}
        self._value_maps = {}
        self._requests = 0
        for node in self.nodes.values():
            node._groups = None
        if self.metrics is not None:
            self.metrics.inc("olap.lattice.builds")

    def materialize(self, nodes: Iterable[LatticeNode]) -> None:
        """Reduce the not yet materialized ``nodes`` from the bound
        cube, as one request: what a query that assembles several nodes
        (a cross-tab) asks for together.

        Which representation they reduce from is decided once per
        request.  A cube that carries a :class:`ColumnStore` image is
        grouped by the columnar kernels.  One that does not answers the
        first request of the binding with the dict group-by — encoding
        it would cost more than the request saves — and gets its image
        when a second request shows the binding is being reused.  Both
        fold in canonical bag order.
        """
        pending = [node for node in nodes if not node.materialized]
        if not pending:
            return
        cube = self._base
        image = None
        if cube is not None and cube.schema.arity and (
            cube._colstore is not None or self._requests
        ):
            from ..chase.instance import store_for_cube

            store = store_for_cube(cube)
            if store.n_rows:
                image = store.image()
        self._requests += 1
        for node in pending:
            node.groups = self._reduce(node, cube, image)
            if self.metrics is not None:
                self.metrics.inc("olap.lattice.groups", len(node.groups))

    def _reduce(
        self, node: LatticeNode, cube: Optional[Cube], image
    ) -> Dict[Tuple, float]:
        if cube is None:
            return {}
        if image is not None:
            return self._reduce_columnar(node, image)
        return self._reduce_tuple(node, cube)

    def _reduce_columnar(self, node: LatticeNode, image) -> Dict[Tuple, float]:
        from ..chase.columnar import mix_codes, transform_encoded

        cols = []
        for j, lvl in enumerate(node.levels):
            if lvl.is_all:
                continue
            col = self._columns.get((j, lvl.name))
            if col is None:
                col = image.dims[j]
                if not lvl.is_base:
                    col = transform_encoded(col, lvl.fn)
                self._columns[(j, lvl.name)] = col
            cols.append(col)
        # the all-all node has no columns: one group, the empty key
        composite = mix_codes(
            [col.codes for col in cols],
            [max(len(col.dictionary), 1) for col in cols],
            image.n_rows,
        )
        return {
            tuple(col.dictionary[col.codes[row]] for col in cols):
                self.aggregate(bag)
            for row, bag in sorted_slices(composite, image.measures)
        }

    def _reduce_tuple(self, node: LatticeNode, cube: Cube) -> Dict[Tuple, float]:
        # level values are computed once per distinct base value,
        # mirroring transform_encoded's per-distinct-value evaluation
        maps = []
        for j, lvl in enumerate(node.levels):
            if lvl.is_all:
                continue
            mapping = self._value_maps.get((j, lvl.name))
            if mapping is None:
                mapping = {}
                for dims in cube.keys():
                    if dims[j] not in mapping:
                        mapping[dims[j]] = lvl.fn(dims[j])
                self._value_maps[(j, lvl.name)] = mapping
            maps.append((j, mapping))
        bags = collect(
            (tuple(mapping[dims[j]] for j, mapping in maps), measure)
            for dims, measure in cube.items()
        )
        return reduce_bags(bags, self.aggregate)


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
