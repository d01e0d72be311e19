"""The translation engine (Section 6).

The catalog's program is compiled once: its parsed statements are
normalized, the schema mapping generated and composed
(:func:`~repro.mappings.simplify.simplify_mapping`), so a fusable
chain of single-operator steps fills no temporary on any target.  For
each subgraph the determination engine produced, the engine cuts the
slice of that mapping covering the subgraph's cubes — cubes computed by
*earlier* subgraphs are the slice's source — and compiles it for the
subgraph's target backend.  Translations are cached, reflecting the
paper's point that all of this can be performed off-line, decoupled from
calculation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..backends import LazyBackends
from ..backends.base import Backend, CompiledTgd
from ..errors import EngineError
from ..exl.ast import ProgramAst
from ..exl.operators import OperatorRegistry
from ..exl.program import Program
from ..mappings.generator import generate_mapping
from ..mappings.mapping import SchemaMapping
from ..mappings.simplify import simplify_mapping
from ..model.catalog import MetadataCatalog
from ..model.schema import Schema
from .determination import DependencyGraph, Subgraph

__all__ = ["TranslatedSubgraph", "TranslationEngine", "catalog_mapping"]


def catalog_mapping(
    catalog: MetadataCatalog,
    graph: Optional[DependencyGraph] = None,
    registry: Optional[OperatorRegistry] = None,
    composed: bool = True,
) -> SchemaMapping:
    """The catalog's program as one schema mapping: its statements in
    dependency order over the elementary cubes, normalized and
    generated, then composed unless ``composed`` is False.  Every target
    runs slices of the composed mapping; ``exl compile`` and ``exl
    show`` print it from here too, so they show what a run executes."""
    graph = graph or DependencyGraph(catalog, registry)
    registry = registry or graph.registry
    statements = [catalog.entry(name).statement for name in graph.topological_order()]
    base = Schema(
        (catalog.schema_of(name) for name in catalog.elementary_names), "elementary"
    )
    mapping = generate_mapping(Program.from_ast(ProgramAst(statements), base, registry))
    return simplify_mapping(mapping) if composed else mapping


@dataclass
class TranslatedSubgraph:
    """Everything needed to execute one subgraph on its target."""

    subgraph: Subgraph
    #: the slice of the program's composed mapping covering the cubes
    mapping: SchemaMapping
    backend: Backend
    units: List[CompiledTgd]
    #: cubes this subgraph reads (computed earlier or elementary)
    inputs: Tuple[str, ...]

    @property
    def script(self) -> str:
        """The generated target-system script for the whole subgraph."""
        return "\n".join(u.text for u in self.units)


class TranslationEngine:
    """Compiles subgraphs to executable target form, with caching."""

    def __init__(
        self,
        catalog: MetadataCatalog,
        graph: DependencyGraph,
        registry: Optional[OperatorRegistry] = None,
        backends: Optional[Mapping[str, Backend]] = None,
    ):
        self.catalog = catalog
        self.graph = graph
        self.registry = registry or graph.registry
        self.backends = backends or LazyBackends()
        self._cache: Dict[Tuple[Tuple[str, ...], str], TranslatedSubgraph] = {}
        self._mapping: Optional[SchemaMapping] = None

    @property
    def mapping(self) -> SchemaMapping:
        """The catalog's program as one composed mapping
        (:func:`catalog_mapping`), built on first use."""
        if self._mapping is None:
            self._mapping = catalog_mapping(self.catalog, self.graph, self.registry)
        return self._mapping

    def translate(self, subgraph: Subgraph) -> TranslatedSubgraph:
        """Translate one subgraph (cached on cubes + target)."""
        key = (subgraph.cubes, subgraph.target)
        if key in self._cache:
            return self._cache[key]
        translated = self._translate(subgraph)
        self._cache[key] = translated
        return translated

    def for_target(
        self, cubes: Sequence[str], target: str
    ) -> TranslatedSubgraph:
        """Translate the same cube run for a different target backend.

        This is the degradation path: when a subgraph's native backend
        fails permanently, the dispatcher re-translates it for the
        reference chase backend and re-runs it there.  Cached like any
        translation, so
        repeated degradations of the same subgraph compile once.
        """
        return self.translate(Subgraph(tuple(cubes), target))

    def cache_size(self) -> int:
        return len(self._cache)

    def invalidate(self) -> None:
        self._cache.clear()
        self._mapping = None

    def _translate(self, subgraph: Subgraph) -> TranslatedSubgraph:
        if subgraph.target not in self.backends:
            raise EngineError(f"no backend named {subgraph.target!r}")
        backend = self.backends[subgraph.target]
        inside = set(subgraph.cubes)
        inputs: List[str] = []
        for cube in subgraph.cubes:
            for operand in self.graph.operands.get(cube, []):
                if operand not in inside and operand not in inputs:
                    inputs.append(operand)
        mapping = self.mapping.subset(subgraph.cubes)
        units = backend.compile_mapping(mapping)
        return TranslatedSubgraph(subgraph, mapping, backend, units, tuple(inputs))

    def translate_all(self, subgraphs: Sequence[Subgraph]) -> List[TranslatedSubgraph]:
        return [self.translate(s) for s in subgraphs]
