"""Schema mappings ``M = (S, T, Σst, Σt)`` (Section 4.1).

``S`` holds the elementary cubes, ``T`` all cubes (the paper renames
copies ``F_S`` / ``F_T``; we keep one name per cube and record the
copy tgds explicitly).  ``Σst`` are the copy tgds, ``Σt`` the ordered
target tgds — the order is the EXL statement order, which the
stratified chase follows — plus one functionality egd per target cube.

A mapping also records the *temporaries* among its target cubes: the
auxiliary cubes normalization introduced, each with the statement it
was cut from.  They are never outputs, and a slice of the mapping
(:meth:`SchemaMapping.subset`) carries those of the statements it
covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import MappingError
from ..exl.operators import OperatorRegistry
from ..model.cube import CubeSchema
from ..model.schema import Schema
from .dependencies import Atom, Egd, Tgd, TgdKind
from .terms import Var

__all__ = ["SchemaMapping", "copy_tgd"]


def copy_tgd(schema: CubeSchema, target: Optional[str] = None) -> Tgd:
    """``C(x…, y) -> target(x…, y)``: the copy tgd of one cube."""
    terms = tuple(
        [Var(d.name) for d in schema.dimensions] + [Var(schema.measure)]
    )
    return Tgd(
        [Atom(schema.name, terms)],
        Atom(target or schema.name, terms),
        TgdKind.COPY,
        label=target or schema.name,
    )


@dataclass
class SchemaMapping:
    """A generated schema mapping, ready for the chase or a backend."""

    source: Schema
    target: Schema
    st_tgds: List[Tgd]
    target_tgds: List[Tgd]
    egds: List[Egd]
    registry: OperatorRegistry
    #: normalization temporary -> the derived cube whose statement
    #: introduced it
    temporaries: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for tgd in self.st_tgds:
            if tgd.kind is not TgdKind.COPY:
                raise MappingError("Σst may only contain copy tgds")
        targets = set()
        for tgd in self.target_tgds:
            if tgd.target_relation in targets:
                raise MappingError(
                    f"two tgds generate {tgd.target_relation}; cubes are "
                    f"functional and defined once"
                )
            targets.add(tgd.target_relation)

    # -- queries ------------------------------------------------------
    def tgd_for(self, cube_name: str) -> Tgd:
        """The target tgd computing ``cube_name``."""
        for tgd in self.target_tgds:
            if tgd.target_relation == cube_name:
                return tgd
        raise MappingError(f"no tgd generates cube {cube_name!r}")

    def egd_for(self, cube_name: str) -> Egd:
        for egd in self.egds:
            if egd.relation == cube_name:
                return egd
        raise MappingError(f"no egd for cube {cube_name!r}")

    @property
    def derived_order(self) -> List[str]:
        """Target cubes in tgd (= statement) order."""
        return [tgd.target_relation for tgd in self.target_tgds]

    @property
    def outputs(self) -> List[str]:
        """The derived cubes a run hands back: every target cube but
        the temporaries, in statement order."""
        return [
            tgd.target_relation
            for tgd in self.target_tgds
            if tgd.target_relation not in self.temporaries
        ]

    def subset(self, cube_names: List[str]) -> "SchemaMapping":
        """The slice of the mapping that computes the given derived cubes.

        It holds their tgds and those of the temporaries their
        statements introduced, in order; every other cube they read is
        its source, copied by a Σst tgd.  The translation engine hands
        each subgraph such a self-contained slice.
        """
        wanted = set(cube_names)
        tgds = [
            t
            for t in self.target_tgds
            if t.target_relation in wanted
            or self.temporaries.get(t.target_relation) in wanted
        ]
        produced = {t.target_relation for t in tgds}
        if not wanted <= produced:
            raise MappingError(f"no tgds for cubes: {sorted(wanted - produced)}")
        needed = set(produced)
        for tgd in tgds:
            needed.update(tgd.source_relations)
        egds = [e for e in self.egds if e.relation in needed]
        source = Schema(
            (c for c in self.target if c.name in needed - produced), "subset_source"
        )
        target = Schema((c for c in self.target if c.name in needed), "subset_target")
        return SchemaMapping(
            source,
            target,
            [copy_tgd(c) for c in source],
            tgds,
            egds,
            self.registry,
            {t: o for t, o in self.temporaries.items() if t in produced},
        )

    def describe(self) -> str:
        """Paper-style listing of all dependencies."""
        lines: List[str] = []
        if self.st_tgds:
            lines.append("-- Σst (copy tgds)")
            lines.extend(f"  {t}" for t in self.st_tgds)
        lines.append("-- Σt (target tgds, stratification order)")
        for i, tgd in enumerate(self.target_tgds, start=1):
            lines.append(f"  ({i}) {tgd}")
        lines.append("-- egds (cube functionality)")
        lines.extend(f"  {e}" for e in self.egds)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.target_tgds)
