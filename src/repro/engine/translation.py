"""The translation engine (Section 6).

For each subgraph the determination engine produced, it assembles the
defining EXL statements into a program — cubes computed by *earlier*
subgraphs act as that program's elementary inputs — generates the
schema mapping, and compiles it for the subgraph's target backend.
Translations are cached, reflecting the paper's point that all of this
can be performed off-line, decoupled from calculation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..backends import LazyBackends
from ..backends.base import Backend, CompiledTgd
from ..errors import EngineError
from ..exl.operators import OperatorRegistry
from ..exl.program import Program
from ..mappings.generator import generate_mapping
from ..mappings.mapping import SchemaMapping
from ..model.catalog import MetadataCatalog
from ..model.schema import Schema
from .determination import DependencyGraph, Subgraph

__all__ = ["TranslatedSubgraph", "TranslationEngine"]


@dataclass
class TranslatedSubgraph:
    """Everything needed to execute one subgraph on its target."""

    subgraph: Subgraph
    program: Program
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
        # cubes from outside the subgraph act as this program's base data
        base = Schema(
            (self.catalog.schema_of(name) for name in inputs),
            f"inputs_{subgraph.target}",
        )
        source = "\n".join(
            self.catalog.entry(cube).statement_text for cube in subgraph.cubes
        )
        program = Program.compile(source, base, self.registry)
        mapping = generate_mapping(program)
        units = backend.compile_mapping(mapping)
        return TranslatedSubgraph(
            subgraph, program, mapping, backend, units, tuple(inputs)
        )

    def translate_all(self, subgraphs: Sequence[Subgraph]) -> List[TranslatedSubgraph]:
        return [self.translate(s) for s in subgraphs]
