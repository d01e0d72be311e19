"""Stratum-parallel chase scheduling with cube-level result caching.

The paper's stratified chase (Section 4.2) applies the target tgds in
*statement order*, each to saturation.  Statement order is sufficient
for correctness but over-serializes: two tgds whose operand cubes are
disjoint cannot influence each other, so they may chase concurrently —
the same observation OLAP engines use to schedule independent nodes of
the aggregation lattice.

This module derives the *stratum DAG* from a mapping (edge A → B when
tgd B consumes the cube tgd A defines), groups the tgds into
topological *waves* of mutually independent strata, and executes each
wave on a thread pool.  Because every cube is defined by exactly one
tgd and a wave barrier separates producers from consumers, no fact is
ever read while it is being written; per-relation locks on
:class:`RelationalInstance` inserts protect the egd-checking insert
path itself.  ``ParallelStratifiedChase`` is solution-equivalent to the
sequential :class:`StratifiedChase` — the property pinned tuple-for-
tuple by ``tests/test_parallel_chase.py``.

The :class:`ChaseCache` memoizes each stratum's result keyed by the tgd
and a content fingerprint of its operand relations, so re-running a
program over unchanged sources (the incremental-update workload) skips
already-chased strata.  Hits are replayed through the egd-checking
insert, so a cached stratum can never mask a functionality violation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import MappingError
from ..mappings.dependencies import Tgd
from ..mappings.mapping import SchemaMapping
from ..obs import MetricsRegistry
from .engine import ChaseResult, ChaseStats, StratifiedChase
from .instance import RelationalInstance

__all__ = [
    "ChaseCache",
    "ParallelStratifiedChase",
    "schedule_waves",
    "stratum_dag",
]


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


# -- the parallel engine -----------------------------------------------------
class ParallelStratifiedChase(StratifiedChase):
    """Wave-parallel stratified chase.

    Executes the copy stratum, then each wave of independent target
    tgds, on a :class:`ThreadPoolExecutor`.  ``max_workers=1`` degrades
    to wave-ordered sequential execution; ``StratifiedChase`` itself
    remains the bit-exact statement-order ablation baseline.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        use_indexes: bool = True,
        max_workers: int = 4,
        cache: Optional[ChaseCache] = None,
        vectorized: Optional[bool] = None,
        kernel_hook=None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(
            mapping,
            use_indexes,
            cache=cache,
            vectorized=vectorized,
            kernel_hook=kernel_hook,
            tracer=tracer,
            metrics=metrics,
        )
        self.max_workers = max(1, int(max_workers))
        self._stats_lock = threading.Lock()
        # validate the schedule eagerly: a cyclic or racy mapping should
        # fail at construction, not deadlock mid-run
        self.waves = schedule_waves(
            mapping.target_tgds,
            reserved=[t.target_relation for t in mapping.st_tgds],
        )

    def run(self, source: RelationalInstance) -> ChaseResult:
        self._check_source(source)
        stats = ChaseStats()
        target = RelationalInstance()
        functional: Dict[str, Dict[Tuple, Any]] = {}
        # pre-create every relation slot, lock, and functional index so
        # workers never mutate the shared outer dicts
        for tgd in self.mapping.st_tgds:
            target.ensure(tgd.target_relation)
            functional.setdefault(tgd.target_relation, {})
        for tgd in self.mapping.target_tgds:
            target.ensure(tgd.target_relation)
            functional.setdefault(tgd.target_relation, {})

        with self.tracer.span(
            "chase", category="chase", scheduler="parallel",
            jobs=self.max_workers,
        ) as chase_span:
            # imported where the pool is made: a serial run never pays
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                # wave 0: the source-to-target copies are mutually
                # independent
                self._run_wave(
                    pool,
                    self.mapping.st_tgds,
                    lambda tgd: self._apply_copy(
                        tgd, source, target, functional
                    ),
                    stats,
                    label="wave:copy",
                    source=source,
                )
                for index, wave in enumerate(self.waves):
                    tgds = [self.mapping.target_tgds[i] for i in wave]
                    self._run_wave(
                        pool,
                        tgds,
                        lambda tgd: self._apply_cached(
                            tgd, target, functional, stats
                        ),
                        stats,
                        label=f"wave:{index + 1}",
                        source=target,
                        timed=True,
                    )
            chase_span.note(
                tuples_generated=stats.tuples_generated,
                waves=len(self.waves),
                max_wave_width=max(
                    (len(w) for w in self.waves), default=0
                ),
            )
        stats.waves = len(self.waves)
        stats.max_wave_width = max((len(w) for w in self.waves), default=0)
        return ChaseResult(target, stats, metrics=self.metrics, functional=functional)

    def _run_wave(
        self,
        pool,
        tgds,
        apply_one,
        stats: ChaseStats,
        label: str = "wave",
        source: Optional[RelationalInstance] = None,
        timed: bool = False,
    ) -> None:
        if not tgds:
            return
        started = time.perf_counter()
        with self.tracer.span(
            label, category="wave", width=len(tgds)
        ) as wave_span:
            # each task opens its tgd span against the wave span
            # explicitly: workers run on pool threads, where the
            # tracer's thread-local stack is empty
            def traced(tgd):
                with self._tgd_span(tgd, parent=wave_span):
                    return apply_one(tgd)

            if self.max_workers == 1 or len(tgds) == 1:
                produced = [traced(tgd) for tgd in tgds]
            else:
                produced = list(pool.map(traced, tgds))
        if timed:
            self._note_wave(len(tgds), time.perf_counter() - started)
        for tgd, count in zip(tgds, produced):
            reads = 0 if source is None else self._operand_rows(tgd, source)
            self._record(stats, tgd, count, reads=reads)

    # -- thread safety --------------------------------------------------------
    def _note_cache(self, stats: ChaseStats, hit: bool) -> None:
        with self._stats_lock:
            super()._note_cache(stats, hit)

    def _note_kernel(self, stats, used: bool, reason: Optional[str] = None) -> None:
        with self._stats_lock:
            super()._note_kernel(stats, used, reason)

    def _insert(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        fact: Tuple,
    ) -> int:
        with target.lock(relation):
            return super()._insert(target, functional, relation, fact)

    def _insert_batch(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        facts,
        dims=None,
        measures=None,
        assume_unique: bool = False,
        columns=None,
        n: int = 0,
    ) -> int:
        with target.lock(relation):
            return StratifiedChase._insert_batch(
                self,
                target,
                functional,
                relation,
                facts,
                dims=dims,
                measures=measures,
                assume_unique=assume_unique,
                columns=columns,
                n=n,
            )
