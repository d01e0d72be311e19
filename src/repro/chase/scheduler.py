"""The stratum schedule and the cube-level result cache.

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

The :class:`ChaseCache` memoizes each stratum's result keyed by the tgd
and a content fingerprint of its operand relations, so re-running a
program over unchanged sources (the incremental-update workload) skips
already-chased strata.  Hits are replayed through the egd-checking
insert, so a cached stratum can never mask a functionality violation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import MappingError
from ..mappings.dependencies import Tgd
from ..obs import MetricsRegistry
from .instance import RelationalInstance

__all__ = ["ChaseCache", "schedule_waves", "stratum_dag"]


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


# -- cube-level materialization cache ---------------------------------------
class ChaseCache:
    """LRU cache of per-stratum results.

    An entry is keyed by the tgd (label + canonical text, so editing a
    statement invalidates it) and a content fingerprint of each operand
    relation, and holds the tuple of facts the stratum produced.  The
    cache is thread-safe: waves look entries up concurrently.

    ``metrics`` (optional) receives ``chase.cache.invalidations`` — one
    per entry dropped, whether by LRU eviction, ``clear()``, or
    relation-level invalidation — so a trace of a slow incremental run
    shows *why* strata stopped hitting.

    Accounting invariant (pinned by ``tests/test_chase_cache.py``)::

        len(cache) == puts - overwrites - invalidations

    ``puts`` counts every store, ``overwrites`` the stores that replaced
    a live entry under the same key, and ``invalidations`` every entry
    dropped for any reason.
    """

    def __init__(
        self, max_entries: int = 256, metrics: Optional[MetricsRegistry] = None
    ):
        self.max_entries = max_entries
        self.metrics = metrics
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.puts = 0
        self.overwrites = 0

    def _note_invalidated(self, count: int) -> None:
        self.invalidations += count
        if count and self.metrics is not None:
            self.metrics.inc("chase.cache.invalidations", count)

    def key_for(self, tgd: Tgd, instance: RelationalInstance) -> Tuple:
        """Cache key of one stratum against the current instance."""
        operands = tuple(
            (name, self.fingerprint(instance, name))
            for name in sorted(set(tgd.source_relations))
        )
        return (tgd.label or tgd.target_relation, str(tgd), operands)

    @staticmethod
    def fingerprint(instance: RelationalInstance, relation: str) -> int:
        """Order-independent content hash of one relation.

        Delegated to the instance, which caches the hash per store and
        row count — repeat key computations over unchanged relations
        (the warm-update workload) don't re-hash the facts.
        """
        native = getattr(instance, "fingerprint", None)
        if native is not None:
            return native(relation)
        return hash(frozenset(instance.facts(relation)))

    def get(self, key: Tuple) -> Optional[Tuple]:
        with self._lock:
            facts = self._entries.get(key)
            if facts is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return facts

    def put(self, key: Tuple, facts: Iterable[Tuple]) -> None:
        with self._lock:
            self.puts += 1
            if key in self._entries:
                # replacing a live entry: the old tuple is dropped
                # silently by the dict store, so without this counter
                # duplicate-key puts would leak out of the accounting
                # (len could never be reconciled with puts/invalidations)
                self.overwrites += 1
            self._entries[key] = tuple(facts)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._note_invalidated(evicted)

    def invalidate_relations(self, relations: Iterable[str]) -> int:
        """Drop every entry whose stratum reads one of ``relations``.

        Fine-grained invalidation for incremental updates: when a
        source cube changes, only strata downstream of it lose their
        entries; clean strata keep replaying from cache (their operand
        content hashes still match).  Returns the entries dropped.
        """
        names = set(relations)
        if not names:
            return 0
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if any(name in names for name, _ in key[2])
            ]
            for key in doomed:
                del self._entries[key]
            self._note_invalidated(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._note_invalidated(dropped)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
