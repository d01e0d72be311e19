"""The structured row diff between two extensions of one cube.

``Cube.same_rows`` answers one question — may ``update`` keep a stored
version? — without listing rows.  This is the long way round, row by
row through the keyed views, that the suites hold it to (and that names
what differs when two stores diverge).
"""

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from repro.errors import CubeError

_MISSING = object()


def _same_measure(a: float, b: float) -> bool:
    """Exact equality, NaN equal to NaN (``-0.0 == 0.0`` already)."""
    return a == b or (a != a and b != b)


@dataclass
class CubeDelta:
    """Rows ``(x1, …, xn, y)`` inserted, deleted and updated between two
    extensions; ``updated`` pairs the old row with the new one for the
    dimension tuples on both sides whose measures differ."""

    inserted: List[Tuple[Any, ...]] = field(default_factory=list)
    deleted: List[Tuple[Any, ...]] = field(default_factory=list)
    updated: List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]] = field(
        default_factory=list
    )

    @property
    def is_empty(self) -> bool:
        return not (self.inserted or self.deleted or self.updated)

    def count(self) -> int:
        """Number of changed rows."""
        return len(self.inserted) + len(self.deleted) + len(self.updated)

    def old_facts(self) -> List[Tuple[Any, ...]]:
        """Deleted rows plus the old side of updates."""
        return self.deleted + [old for old, _ in self.updated]

    def new_facts(self) -> List[Tuple[Any, ...]]:
        """Inserted rows plus the new side of updates."""
        return self.inserted + [new for _, new in self.updated]


def cube_delta(old, new) -> CubeDelta:
    """The row delta turning cube ``old`` into cube ``new``.

    Measures compare exactly (any representable change counts), except
    NaN↔NaN, which is unchanged.  Both cubes must share dimensionality.
    """
    if old.schema.arity != new.schema.arity:
        raise CubeError(
            f"cannot delta {old.schema.name} (arity {old.schema.arity}) "
            f"against {new.schema.name} (arity {new.schema.arity})"
        )
    mine, theirs = dict(old.items()), dict(new.items())
    out = CubeDelta()
    for key, value in theirs.items():
        before = mine.get(key, _MISSING)
        if before is _MISSING:
            out.inserted.append(key + (value,))
        elif not _same_measure(before, value):
            out.updated.append((key + (before,), key + (value,)))
    for key, value in mine.items():
        if key not in theirs:
            out.deleted.append(key + (value,))
    return out
