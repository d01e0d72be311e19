"""Backends: executable translations of schema mappings (Section 5).

One :class:`Backend` per target system — SQL (mini relational engine),
R (its script interpreted on the frame engine), Matlab (its script
interpreted on the matrix engine), ETL (flow engine) — plus the chase
reference executor.  :func:`all_backends` returns one instance of
each, keyed by technical-metadata name; :class:`LazyBackends` is the
same mapping with each target imported and constructed when it is first
looked up, so a run loads only the engines its partition selected.
"""

from collections.abc import Mapping
from typing import TYPE_CHECKING, Dict, Iterator

from .._lazy import lazy_surface

if TYPE_CHECKING:
    from .base import Backend

#: public name -> defining submodule
_EXPORTS = {
    "Backend": "base",
    "CompiledTgd": "base",
    "SqlBackend": "sql",
    "RBackend": "rlang",
    "MatlabBackend": "matlab",
    "EtlBackend": "etlbackend",
    "ChaseBackend": "chasebackend",
    "flow_metadata_for_tgd": "etlbackend",
    "compile_tgd_to_ir": "ircompile",
    "render_r": "rlang",
    "render_matlab": "matlab",
    "IrProgram": "ir",
    "LoadOp": "ir",
    "MergeOp": "ir",
    "ComputeOp": "ir",
    "DropOp": "ir",
    "RenameOp": "ir",
    "GroupAggOp": "ir",
    "TableFuncOp": "ir",
    "StoreOp": "ir",
    "ColExpr": "ir",
    "ColRef": "ir",
    "ConstExpr": "ir",
    "BinExpr": "ir",
    "CallExpr": "ir",
}

__getattr__, __dir__, _lazy_names = lazy_surface(__name__, _EXPORTS)

__all__ = [*_lazy_names, "all_backends"]

#: technical-metadata name -> backend class, by its name above
_BACKEND_CLASSES = {
    "sql": "SqlBackend",
    "r": "RBackend",
    "matlab": "MatlabBackend",
    "etl": "EtlBackend",
    "chase": "ChaseBackend",
}


class LazyBackends(Mapping):
    """Every backend by name, each built on first lookup.

    Iteration, ``len`` and ``in`` answer from the names alone;
    ``backends[name]`` (and ``get``) imports the target's module and
    constructs its one instance.
    """

    def __init__(self):
        self._instances: Dict[str, "Backend"] = {}

    def __getitem__(self, name: str) -> "Backend":
        backend = self._instances.get(name)
        if backend is None:
            # setdefault: two dispatcher threads asking at once share
            # whichever instance landed first
            backend = self._instances.setdefault(
                name, __getattr__(_BACKEND_CLASSES[name])()
            )
        return backend

    def __contains__(self, name) -> bool:
        return name in _BACKEND_CLASSES

    def __iter__(self) -> Iterator[str]:
        return iter(_BACKEND_CLASSES)

    def __len__(self) -> int:
        return len(_BACKEND_CLASSES)


def all_backends() -> Dict[str, "Backend"]:
    """One instance of every backend, keyed by name."""
    return dict(LazyBackends())
