"""Backend interface: translate tgds to executable form and run them.

Every target system of Section 5 is a :class:`Backend`: it *compiles*
each tgd of a schema mapping into a :class:`CompiledTgd` — carrying
both the generated target-language ``text`` and a ``runner`` that
executes it on the backend's engine — and orchestrates a full mapping
run (load elementary cubes, execute the tgds in total order, extract
the derived cubes).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import BackendError, UnsupportedOperatorError
from ..mappings.dependencies import Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..model.cube import Cube, CubeSchema

__all__ = ["CompiledTgd", "Backend"]


@dataclass
class CompiledTgd:
    """One tgd translated for a target system."""

    label: str
    text: str
    # executes against the backend's store; None for the chase, which
    # runs whole mappings
    runner: Optional[Callable[[Any], None]]


class Backend(abc.ABC):
    """Abstract target system."""

    #: the technical-metadata name used in operator ``targets`` sets
    name: str = "abstract"

    # -- per-backend engine plumbing, used by :meth:`run_mapping` only
    # (a backend that overrides it need not define the three hooks) --------
    def new_store(self, mapping: SchemaMapping) -> Any:
        """Create the engine-side storage for one mapping run."""
        raise NotImplementedError

    def load_cube(self, store: Any, cube: Cube) -> None:
        """Load an input cube into the store, from ``cube.to_columns()``."""
        raise NotImplementedError

    def extract_cube(self, store: Any, schema: CubeSchema) -> Cube:
        """Read a computed cube back out of the store, through
        ``Cube.from_value_columns``."""
        raise NotImplementedError

    @abc.abstractmethod
    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        """Translate one tgd into executable target form."""

    # -- shared orchestration ------------------------------------------------
    def supports(self, tgd: Tgd, mapping: SchemaMapping) -> bool:
        """Technical metadata check: are the tgd's operators native here?"""
        if tgd.kind is TgdKind.TABLE_FUNCTION:
            spec = mapping.registry.get(tgd.table_function)
            return self.name in spec.targets
        return True

    def compile_mapping(self, mapping: SchemaMapping) -> List[CompiledTgd]:
        units = []
        for tgd in mapping.target_tgds:
            if not self.supports(tgd, mapping):
                raise UnsupportedOperatorError(
                    f"backend {self.name} does not support tgd {tgd.label!r}"
                )
            units.append(self.compile_tgd(tgd, mapping))
        return units

    def script(self, mapping: SchemaMapping) -> str:
        """The full generated script for a mapping, in tgd total order."""
        parts = []
        for unit in self.compile_mapping(mapping):
            parts.append(f"-- tgd: {unit.label}" if self.name == "sql" else f"# tgd: {unit.label}")
            parts.append(unit.text)
        return "\n".join(parts)

    def run_mapping(
        self,
        mapping: SchemaMapping,
        inputs: Dict[str, Cube],
        wanted: Optional[Iterable[str]] = None,
        check: Optional[Callable[[], None]] = None,
        units: Optional[List[CompiledTgd]] = None,
    ) -> Dict[str, Cube]:
        """Execute a whole mapping: the backend-side chase equivalent.

        Args:
            mapping: the generated schema mapping.
            inputs: elementary cube instances, keyed by name.
            wanted: derived cubes to extract (default:
                ``mapping.outputs``, every tgd target but the
                normalization temporaries).
            check: cooperative cancellation hook, invoked between tgd
                units; the dispatcher passes a wall-clock deadline
                checker that raises
                :class:`~repro.errors.DeadlineExceededError`.
            units: what :meth:`compile_mapping` returned for
                ``mapping``, when the caller already holds it (the
                translation engine compiles each subgraph once).

        Returns:
            The computed cubes, keyed by name.
        """
        if units is None:
            units = self.compile_mapping(mapping)
        store = self.new_store(mapping)
        for tgd in mapping.st_tgds:
            source = tgd.lhs[0].relation
            if source not in inputs:
                raise BackendError(f"missing input cube {source!r}")
            self.load_cube(store, inputs[source])
        for unit in units:
            if check is not None:
                check()
            unit.runner(store)
        if wanted is None:
            wanted = mapping.outputs
        return {
            name: self.extract_cube(store, mapping.target[name]) for name in wanted
        }
