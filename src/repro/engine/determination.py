"""The determination engine (Section 6).

Decides *what* must be calculated: it maintains the global dependency
DAG over all catalogued cubes (node = cube, edge A → C when C is
calculated from A), detects the cubes affected by changes to elementary
data, produces a topologically sorted list of the cubes to recompute,
and partitions that list into contiguous subgraphs, each delegated to a
single target system chosen from technical metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EngineError
from ..exl.ast import cube_refs
from ..exl.operators import OperatorRegistry, default_registry
from ..model.catalog import MetadataCatalog

__all__ = ["Subgraph", "DependencyGraph", "choose_target", "DEFAULT_TARGET_PRIORITY"]

DEFAULT_TARGET_PRIORITY: Tuple[str, ...] = ("sql", "r", "matlab", "etl")


@dataclass(frozen=True)
class Subgraph:
    """A contiguous run of derived cubes delegated to one target system."""

    cubes: Tuple[str, ...]
    target: str

    def __init__(self, cubes: Sequence[str], target: str):
        object.__setattr__(self, "cubes", tuple(cubes))
        object.__setattr__(self, "target", target)


class DependencyGraph:
    """The cube dependency DAG of a metadata catalog."""

    def __init__(self, catalog: MetadataCatalog, registry: Optional[OperatorRegistry] = None):
        self.catalog = catalog
        self.registry = registry or default_registry()
        #: cube -> cubes it is calculated from
        self.operands: Dict[str, List[str]] = {}
        #: cube -> cubes calculated from it
        self.consumers: Dict[str, List[str]] = {}
        #: cube -> operator names its statement uses
        self.operators: Dict[str, List[str]] = {}
        self._build()

    def _build(self) -> None:
        for name in self.catalog.names():
            self.consumers.setdefault(name, [])
        for name in self.catalog.derived_names:
            statement = self.catalog.entry(name).statement
            if statement is None:
                raise EngineError(f"derived cube {name} has no statement")
            if statement.target != name:
                raise EngineError(
                    f"catalog entry for {name} must hold the statement "
                    f"defining it, not one defining {statement.target}"
                )
            refs = cube_refs(statement.expr)
            for ref in refs:
                if ref not in self.catalog:
                    raise EngineError(
                        f"statement for {name} references undeclared cube {ref!r}"
                    )
            self.operands[name] = refs
            for ref in refs:
                self.consumers.setdefault(ref, []).append(name)
            self.operators[name] = _operator_names(statement.expr)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        self.topological_order()  # raises on cycles

    # -- queries --------------------------------------------------------
    def topological_order(self, subset: Optional[Set[str]] = None) -> List[str]:
        """Derived cubes in dependency order (operands first).

        With ``subset``, only those cubes are ordered (their mutual
        dependencies still respected).
        """
        wanted = set(self.catalog.derived_names if subset is None else subset)
        indegree: Dict[str, int] = {}
        for name in wanted:
            indegree[name] = sum(
                1 for op in self.operands.get(name, []) if op in wanted
            )
        # deterministic order: catalog declaration order breaks ties
        declaration_rank = {n: i for i, n in enumerate(self.catalog.names())}
        ready = sorted(
            (n for n, d in indegree.items() if d == 0),
            key=lambda n: declaration_rank.get(n, 0),
        )
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            newly_ready = []
            for consumer in self.consumers.get(name, []):
                if consumer in indegree and consumer not in order:
                    indegree[consumer] -= 1
                    if indegree[consumer] == 0:
                        newly_ready.append(consumer)
            ready.extend(sorted(newly_ready, key=lambda n: declaration_rank.get(n, 0)))
            ready.sort(key=lambda n: declaration_rank.get(n, 0))
        if len(order) != len(wanted):
            raise EngineError("cube dependency graph contains a cycle")
        return order

    def affected_by(self, changed: Iterable[str]) -> List[str]:
        """Derived cubes downstream of the changed cubes, topologically
        sorted — the determination engine's DFS of Section 6."""
        frontier = list(changed)
        affected: Set[str] = set()
        while frontier:
            name = frontier.pop()
            for consumer in self.consumers.get(name, []):
                if consumer not in affected:
                    affected.add(consumer)
                    frontier.append(consumer)
        return self.topological_order(affected) if affected else []

    # -- partitioning -------------------------------------------------------
    def target_of(
        self, cube: str, priority: Sequence[str] = DEFAULT_TARGET_PRIORITY
    ) -> str:
        """The target system chosen for one derived cube."""
        entry = self.catalog.entry(cube)
        supported = self.supported_targets(cube)
        if entry.preferred_target:
            if entry.preferred_target not in supported:
                raise EngineError(
                    f"cube {cube}: preferred target {entry.preferred_target!r} "
                    f"does not support its operators (supported: {sorted(supported)})"
                )
            return entry.preferred_target
        for candidate in priority:
            if candidate in supported:
                return candidate
        raise EngineError(
            f"cube {cube}: no target in {priority} supports operators "
            f"{self.operators[cube]}"
        )

    def supported_targets(self, cube: str) -> Set[str]:
        """Targets that natively support every operator of the cube."""
        supported: Optional[Set[str]] = None
        for op_name in self.operators.get(cube, []):
            targets = set(self.registry.get(op_name).targets)
            supported = targets if supported is None else supported & targets
        if supported is None:  # pure arithmetic / copy: everywhere
            supported = {"sql", "r", "matlab", "etl", "chase"}
        return supported

    def partition(
        self,
        order: Sequence[str],
        priority: Sequence[str] = DEFAULT_TARGET_PRIORITY,
    ) -> List[Subgraph]:
        """Greedy contiguous partitioning of a topo order by target."""
        subgraphs: List[Subgraph] = []
        current: List[str] = []
        current_target: Optional[str] = None
        for cube in order:
            target = self.target_of(cube, priority)
            if target != current_target and current:
                subgraphs.append(Subgraph(current, current_target))
                current = []
            current_target = target
            current.append(cube)
        if current:
            subgraphs.append(Subgraph(current, current_target))
        return subgraphs


def choose_target(
    graph: DependencyGraph,
    cube: str,
    priority: Sequence[str] = DEFAULT_TARGET_PRIORITY,
) -> str:
    """Convenience wrapper around :meth:`DependencyGraph.target_of`."""
    return graph.target_of(cube, priority)


def _operator_names(expr) -> List[str]:
    from ..exl.ast import Call, walk

    names: List[str] = []
    for node in walk(expr):
        if isinstance(node, Call):
            if node.name not in names:
                names.append(node.name)
            for item in node.group_by:
                if item.func and item.func not in names:
                    names.append(item.func)
    return names
