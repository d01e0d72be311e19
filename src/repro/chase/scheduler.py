"""The stratum schedule.

The paper's stratified chase (Section 4.2) applies the target tgds in
*statement order*, each to saturation.  Statement order is sufficient
for correctness but over-serializes: two tgds whose operand cubes are
disjoint cannot influence each other, so they may chase concurrently —
the same observation OLAP engines use to schedule independent nodes of
the aggregation lattice.

This module derives the *stratum DAG* from a mapping (edge A → B when
tgd B consumes the cube tgd A defines) and groups the tgds into
topological *waves* of mutually independent strata;
:class:`~repro.chase.engine.StratifiedChase` walks that schedule on a
thread pool when given ``jobs``.  Because every cube is defined by
exactly one tgd and a wave barrier separates producers from consumers,
no fact is ever read while it is being written, and each task holds the
insert lock of the one relation it writes.  The schedule changes no
solution — the property pinned tuple-for-tuple by
``tests/test_parallel_chase.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from ..errors import MappingError
from ..mappings.dependencies import Tgd

__all__ = ["schedule_waves", "stratum_dag"]


# -- stratum DAG ------------------------------------------------------------
def stratum_dag(
    tgds: Sequence[Tgd], reserved: Iterable[str] = ()
) -> List[Set[int]]:
    """Dependency sets over a tgd list: ``dag[i]`` holds the indexes of
    the tgds whose target cube tgd ``i`` consumes.

    ``reserved`` names relations produced outside this list (the copy
    stratum of the source-to-target tgds); a tgd redefining one of them
    is rejected, as is a list defining the same cube twice — both would
    make the schedule racy rather than merely cyclic.
    """
    reserved = set(reserved)
    producer: Dict[str, int] = {}
    for index, tgd in enumerate(tgds):
        name = tgd.target_relation
        if name in producer:
            raise MappingError(
                f"two tgds define cube {name!r}; cubes are functional and "
                f"defined once"
            )
        if name in reserved:
            raise MappingError(
                f"tgd {tgd.label or name!r} redefines cube {name!r}, which "
                f"is copied from the source instance"
            )
        producer[name] = index
    dag: List[Set[int]] = []
    for index, tgd in enumerate(tgds):
        deps = {
            producer[name]
            for name in tgd.source_relations
            if name in producer
        }
        if index in deps:
            raise MappingError(
                f"tgd {tgd.label or tgd.target_relation!r} consumes the cube "
                f"it defines (self-referential mapping)"
            )
        dag.append(deps)
    return dag


def schedule_waves(
    tgds: Sequence[Tgd], reserved: Iterable[str] = ()
) -> List[List[int]]:
    """Group tgds into waves of mutually independent strata.

    Kahn's algorithm over the stratum DAG: wave *k* holds every tgd all
    of whose operands are defined by waves < *k*.  Raises
    :class:`MappingError` on any cycle (including self-loops) instead
    of deadlocking the executor.
    """
    dag = stratum_dag(tgds, reserved)
    assigned: Dict[int, int] = {}
    waves: List[List[int]] = []
    remaining = set(range(len(tgds)))
    while remaining:
        wave = [
            i for i in sorted(remaining) if all(d in assigned for d in dag[i])
        ]
        if not wave:
            stuck = ", ".join(
                repr(tgds[i].label or tgds[i].target_relation)
                for i in sorted(remaining)
            )
            raise MappingError(
                f"cyclic dependency between tgds ({stuck}); the stratified "
                f"chase requires an acyclic mapping"
            )
        for i in wave:
            assigned[i] = len(waves)
        waves.append(wave)
        remaining -= set(wave)
    return waves

