"""The stratified chase (Section 4.2).

The chase applies the target tgds *in statement order*, each to
saturation, so that the operands of aggregations and table functions
are completely known before they fire — the paper's stratified
variation of the classical procedure.  All tgds are full, so every
generated tuple is made of constants and the procedure terminates.

Every tgd runs on a columnar kernel (:mod:`repro.chase.columnar`); the
tuple-at-a-time reading of the same rules lives beside the tests, in
``tests/oracle/chase.py``, as the reference the kernels are held to.

Functionality egds are checked *incrementally*: inserting a tuple
whose dimension tuple is already present with a different measure is a
chase failure.  Section 4.2 proves this cannot happen for mappings
generated from valid EXL programs; the check is kept as a defensive
invariant (and is exercised by tests with hand-built broken mappings).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ChaseError, ChaseSourceError
from ..mappings.dependencies import Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..obs import NULL_TRACER, MetricsRegistry
from ..stats.aggregates import get_aggregate
from . import columnar, groupreduce
from .instance import RelationalInstance

__all__ = [
    "ChaseStats",
    "ChaseResult",
    "StratifiedChase",
]


@dataclass
class ChaseStats:
    """Counters describing one chase run.

    ``waves``/``max_wave_width`` describe the stratum DAG schedule of
    the parallel scheduler (a sequential run is one tgd per wave).
    """

    rule_applications: int = 0
    tuples_generated: int = 0
    per_tgd: Dict[str, int] = field(default_factory=dict)
    waves: int = 0
    max_wave_width: int = 0
    # sharded execution (chase.shard): worker-process count, tuples
    # generated per shard, wall time spent merging/re-reducing shard
    # outputs, and why individual tgds ran in the parent instead of a
    # shard.  All stay zero/empty unless shard workers ran.
    shards: int = 0
    shard_tuples: List[int] = field(default_factory=list)
    shard_merge_s: float = 0.0
    shard_fallback_reasons: Dict[str, int] = field(default_factory=dict)


@dataclass
class ChaseResult:
    """Solution instance plus run statistics."""

    instance: RelationalInstance
    stats: ChaseStats
    #: the metrics registry the run recorded into (the chase's own
    #: per-engine registry unless the caller supplied a shared one)
    metrics: Optional[MetricsRegistry] = None


class StratifiedChase:
    """Chases a source instance through a generated schema mapping.

    One executor, three ways to run it, chosen by two constructor
    values that are resolved here into data — a *schedule* of waves, an
    optional thread *pool* and a per-tgd *apply* function:

    * ``jobs=None`` walks the target tgds in statement order, one tgd
      per wave (the paper's procedure; hand-built mappings with several
      writers of one relation are accepted);
    * ``jobs=N`` groups them into waves of mutually independent strata
      (:func:`~repro.chase.scheduler.schedule_waves`; a cyclic or
      doubly-defined cube is a :class:`MappingError` here, not a
      deadlock mid-run) and runs each wave on ``N`` threads;
    * ``shards=S`` (``0`` = one per core) additionally chases the
      partitionable tgds in ``S`` forked workers over hash partitions
      of the sources (:mod:`repro.chase.shard`) and merges their
      outputs through the egd-checking insert, wave by wave.  A mapping
      with nothing to partition, a platform without ``fork`` and an
      exhausted worker-retry budget all run the same loop without shard
      results, each under a counted ``chase.shard.fallback.reason:*``.

    Every way computes the same solution, tuple for tuple.  Every tgd
    runs on its columnar kernel (:mod:`repro.chase.columnar`); a tgd no
    kernel covers is a :class:`ChaseError`.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        jobs: Optional[int] = None,
        shards: int = 1,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        fault_context: Optional[Tuple[Any, str, Tuple[str, ...], int]] = None,
        shard_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
    ):
        self.mapping = mapping
        self.registry = mapping.registry
        #: span sink; the shared no-op tracer unless the caller traces
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: named counter/histogram sink (one per chase unless shared)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        #: the dispatcher's fault plan for this attempt, ``(plan, target,
        #: cubes, attempt)``: a sharded run draws one decision per shard
        #: from it (see chase.shard.run_shards)
        self.fault_context = fault_context
        #: pool-rebuild rounds allowed after the first before quarantine
        self.shard_retries = max(0, int(shard_retries))
        #: per-shard result wait; None trusts workers not to wedge
        self.shard_timeout_s = shard_timeout_s
        #: worker processes; the partition plan exists only when > 1
        self.shards = 1
        self.plan = None
        if shards != 1:
            # chase.shard (numpy, and multiprocessing under it) loads
            # only for a chase that asked for shards
            from . import shard

            self._shard = shard
            self.shards = shard.resolve_shards(shards)
            if self.shards > 1:
                self.plan = shard.ShardPlan.analyze(mapping)
                # shard outputs merge on the wave schedule
                jobs = jobs or 1
        #: worker threads; ``None`` is statement order
        self.jobs = jobs
        if jobs is None:
            self.waves = [[i] for i in range(len(mapping.target_tgds))]
        else:
            # the wave schedule loads only for a chase that asked for one
            from .scheduler import schedule_waves

            self.waves = schedule_waves(
                mapping.target_tgds,
                reserved=[t.target_relation for t in mapping.st_tgds],
            )
        self._tgd_index = {id(t): i for i, t in enumerate(mapping.target_tgds)}
        # stats are shared by the tasks of a wave
        self._stats_lock = threading.Lock()
        # compiled kernel plans, keyed by tgd identity
        self.kernel_plans: Dict[int, Tuple[Tgd, Any]] = {}
        # relations written by exactly one tgd: the functional index is
        # only ever *read* by a later tgd writing the same relation, so
        # a single-writer batch whose keys are proven distinct can skip
        # populating it (mappings generated from programs define every
        # cube once; hand-built multi-writer mappings keep the index)
        writers: Dict[str, int] = {}
        for tgd in list(mapping.st_tgds) + list(mapping.target_tgds):
            writers[tgd.target_relation] = writers.get(tgd.target_relation, 0) + 1
        self._single_writer = {r for r, count in writers.items() if count == 1}

    def run(
        self,
        source: RelationalInstance,
        check: Optional[Callable[[], None]] = None,
    ) -> ChaseResult:
        """Compute the data exchange solution for ``source``.

        ``check`` — the dispatcher's cooperative deadline — is called
        before each wave, the copy wave included; what it raises ends
        the run.
        """
        self._check_source(source)
        if self.plan is not None:
            reason = self.plan.fallback_reason or self._shard.unavailable()
            if reason is None:
                try:
                    return self._run(source, check, sharded=True)
                except self._shard.ShardFallback as fallback:
                    reason = fallback.reason
            self.metrics.inc(f"chase.shard.fallback.reason:{reason}")
        return self._run(source, check)

    def _run(
        self, source: RelationalInstance, check, sharded=False
    ) -> ChaseResult:
        """The chase loop: the copy wave, then each wave of the schedule.

        A ``sharded`` run first fans the partitionable tgds out to
        worker processes; their outputs are then merged by the same
        loop, in wave order.
        """
        stats = ChaseStats()
        target = RelationalInstance()
        # functional index: relation -> {dims: measure}, for egd checking
        functional: Dict[str, Dict[Tuple, Any]] = {}
        mapping = self.mapping
        span_args: Dict[str, Any] = {}
        pool = None
        if self.jobs is not None:
            span_args = {"scheduler": "parallel", "jobs": self.jobs}
            # pre-create every relation slot, lock, and functional index
            # so pool threads never mutate the shared outer dicts
            for tgd in list(mapping.st_tgds) + list(mapping.target_tgds):
                target.ensure(tgd.target_relation)
                functional.setdefault(tgd.target_relation, {})
            if self.jobs > 1:
                # imported where the pool is made: a serial run never pays
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(max_workers=self.jobs)
        copy, apply = self.copy, self.apply
        if sharded:
            span_args.update(scheduler="sharded", shards=self.shards)
            stats.shards = self.shards
            for index in self.plan.parent:
                reason = self.plan.reasons.get(index, "parent")
                self.metrics.inc(f"chase.shard.fallback.reason:{reason}")
                stats.shard_fallback_reasons[reason] = (
                    stats.shard_fallback_reasons.get(reason, 0) + 1
                )
        widest = max((len(wave) for wave in self.waves), default=0)
        with self.tracer.span(
            "chase", category="chase", **span_args
        ) as chase_span, (pool or nullcontext()):
            if check is not None:
                check()
            if sharded:
                results = self._shard.run_shards(self, source, stats)
                apply = partial(self._apply_merged, results, stats)
            if pool is not None:
                copy, apply = _locking(copy, target), _locking(apply, target)
            self.run_wave(
                mapping.st_tgds,
                lambda tgd: copy(tgd, source, target, functional),
                stats, source, "wave:copy", pool,
            )
            for number, wave in enumerate(self.waves, 1):
                if check is not None:
                    check()
                started = time.perf_counter()
                self.run_wave(
                    [mapping.target_tgds[i] for i in wave],
                    lambda tgd: apply(tgd, target, functional),
                    stats, target, f"wave:{number}", pool,
                )
                self.metrics.inc("chase.waves")
                self.metrics.observe("chase.wave.width", len(wave))
                self.metrics.observe(
                    "chase.wave.duration_s", time.perf_counter() - started
                )
            chase_span.note(
                tuples_generated=stats.tuples_generated,
                waves=len(self.waves),
                max_wave_width=widest,
            )
            if sharded:
                chase_span.note(shard_tuples=list(stats.shard_tuples))
        stats.waves = len(self.waves)
        stats.max_wave_width = widest
        return ChaseResult(target, stats, metrics=self.metrics)

    def run_wave(
        self,
        tgds: Sequence[Tgd],
        apply_one,
        stats: ChaseStats,
        operands: RelationalInstance,
        label: Optional[str] = None,
        pool=None,
    ) -> None:
        """Apply ``tgds`` — in order, or concurrently on ``pool`` when
        they are mutually independent — and record each in ``stats``.

        ``apply_one(tgd)`` returns the tuples the tgd produced;
        ``operands`` is the instance its lhs reads.  ``label`` names the
        wave span (none is opened without it: a shard worker's tgd
        spans hang off its shard span).
        """

        def task(tgd):
            reads = sum(operands.size(atom.relation) for atom in tgd.lhs)
            # the parent is explicit: pool threads start with an empty
            # span stack
            with self.tracer.span(
                f"tgd:{tgd.label or tgd.target_relation}",
                category="tgd",
                parent=wave_span,
                kind=tgd.kind.value,
            ):
                return apply_one(tgd), reads

        wave = (
            self.tracer.span(label, category="wave", width=len(tgds))
            if label
            else nullcontext()
        )
        with wave as wave_span:
            if pool is None or len(tgds) == 1:
                outcomes = [task(tgd) for tgd in tgds]
            else:
                outcomes = list(pool.map(task, tgds))
        for tgd, (produced, reads) in zip(tgds, outcomes):
            stats.rule_applications += 1
            stats.tuples_generated += produced
            stats.per_tgd[tgd.label or tgd.target_relation] = produced
            self.metrics.inc("chase.rule_applications")
            self.metrics.inc("chase.tuples.inserted", produced)
            self.metrics.inc("chase.tuples.read", reads)

    def _check_source(self, source: RelationalInstance) -> None:
        """Every copy tgd's operand must exist in the source instance.

        A relation that was never registered (not even empty) means the
        caller forgot an input cube: silently chasing an empty relation
        would just produce an inexplicably empty solution.
        """
        for tgd in self.mapping.st_tgds:
            relation = tgd.lhs[0].relation
            if relation not in source:
                raise ChaseSourceError(
                    f"tgd {tgd.label or tgd.target_relation!r} references "
                    f"relation {relation!r}, which is absent from the source "
                    f"instance (known relations: {sorted(source.relations())})"
                )

    # -- rule application --------------------------------------------------
    def apply(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Apply one target tgd to saturation against ``target`` on its
        columnar kernel and return the tuples it produced."""
        if tgd.kind is TgdKind.COPY:
            return self.copy(tgd, target, target, functional)
        try:
            return columnar.apply_vectorized(
                tgd,
                target,
                target,
                functional,
                self.registry,
                self._insert_batch,
                self.kernel_plans,
                tracer=self.tracer,
            )
        except columnar.FallbackUnsupported as unsupported:
            raise _refused(tgd, unsupported) from None

    def copy(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Apply one copy tgd reading ``source`` and writing ``target``."""
        relation = tgd.lhs[0].relation
        adopted = self._adopt(
            tgd.target_relation, source.export_store(relation), target, functional
        )
        if adopted is not None:
            return adopted
        # materialized as a list on purpose: the batch must flow
        # element-wise into the target store so the insertion sequence
        # matches what per-fact inserts build
        return self._insert_batch(
            target, functional, tgd.target_relation, list(source.facts(relation))
        )

    def collect(
        self, tgd: Tgd, instance: RelationalInstance
    ) -> Dict[Tuple, List[Any]]:
        """The contribution bag of every group of one aggregation tgd
        over ``instance`` — the aggregation minus its reduce, which is
        all a shard worker runs of a group-by that is not shard-aligned."""
        try:
            return columnar.collect_bags(
                tgd,
                instance,
                self.registry,
                self.kernel_plans,
                tracer=self.tracer,
            )
        except columnar.FallbackUnsupported as unsupported:
            raise _refused(tgd, unsupported) from None

    def _adopt(
        self,
        relation: str,
        store,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> Optional[int]:
        """Adopt a columnar store as ``relation``'s content, sharing its
        buffers copy-on-write — no per-fact insert, no re-encode.

        Sound when the store's dimension tuples are provably distinct
        and the (single-writer, still empty) relation will never consult
        the functional index: a copy tgd whose operand qualifies is
        O(1), and so is the merge of disjoint shard outputs.  Returns
        None when a precondition fails and the caller must run the
        element-wise path.
        """
        if (
            store is None
            or not store.dims_distinct
            or relation not in self._single_writer
            or functional.get(relation)
        ):
            return None
        adopted = target.adopt(relation, store)
        if adopted is not None:
            self.metrics.inc("chase.egd.checks", adopted)
        return adopted

    def _apply_merged(
        self,
        results: List[Dict[str, Any]],
        stats: ChaseStats,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """A target tgd of a sharded run: insert what the workers
        computed — disjoint stores verbatim, contribution bags through
        the one reduce — or apply it here when it ran in no worker."""
        if self.plan.klass[self._tgd_index[id(tgd)]] == self._shard.PARENT:
            return self.apply(tgd, target, functional)
        started = time.perf_counter()
        relation = tgd.target_relation
        merged = self._shard.merge_outputs(relation, results)
        if isinstance(merged, dict):
            produced = self._insert_batch(
                target, functional, relation, self._reduced_facts(tgd, merged)
            )
        elif isinstance(merged, list):
            produced = self._insert_batch(target, functional, relation, merged)
        else:
            produced = self._adopt(relation, merged, target, functional)
            if produced is None:
                # defensive: element-wise through the egd-checking insert
                produced = self._insert_batch(
                    target, functional, relation, list(merged.rows())
                )
        with self._stats_lock:
            stats.shard_merge_s += time.perf_counter() - started
        return produced

    @staticmethod
    def _reduced_facts(tgd: Tgd, bags: Dict[Tuple, List[Any]]) -> List[Tuple]:
        """One fact per group: its key and its bag's aggregate."""
        aggregate = get_aggregate(tgd.rhs.terms[-1].func)
        reduced = groupreduce.reduce_bags(bags, aggregate)
        return [key + (value,) for key, value in reduced.items()]

    # -- insertion with incremental egd check --------------------------------
    def insert(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        fact: Tuple,
    ) -> int:
        dims, measure = fact[:-1], fact[-1]
        seen = functional.setdefault(relation, {})
        if dims in seen:
            if seen[dims] != measure:
                raise ChaseError(
                    f"egd violation (chase failure): {relation}{dims!r} would "
                    f"hold both {seen[dims]!r} and {measure!r}"
                )
            return 0
        seen[dims] = measure
        return 1 if target.add(relation, fact) else 0

    def _insert_batch(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        facts: Optional[Collection[Tuple]],
        assume_unique: bool = False,
        columns: Optional[List[Any]] = None,
        n: int = 0,
    ) -> int:
        """Insert a batch of facts with a batched egd check.

        ``facts`` must be in the order the reference chase would
        insert them — the relation's insertion sequence (hence fact-set
        iteration order) must not depend on how it was computed.  When the
        relation is still empty the functionality check reduces to
        duplicate-key detection over the batch itself; the kernels
        pass ``assume_unique=True`` when they already proved key
        distinctness columnarly.  Any remaining case replays through
        the per-fact egd-checking insert, raising the identical
        :class:`ChaseError`.

        Kernels may pass encoded output ``columns`` (with row count
        ``n``) instead of ``facts``: on the single-writer empty-target
        fast path the columns are appended straight into the target's
        columnar buffers — no fact tuples are ever built; otherwise
        they are decoded and flow through the generic path.
        """
        if columns is not None:
            if n == 0:
                return 0
            if (
                assume_unique
                and relation in self._single_writer
                and not functional.get(relation)
                and not target.size(relation)
            ):
                appended = target.append_columns(relation, columns, n)
                if appended is not None:
                    self.metrics.inc("chase.egd.checks", appended)
                    return appended
            facts = columnar.decode_facts(columns, n)
        if not facts:
            return 0
        self.metrics.inc("chase.egd.checks", len(facts))
        seen = functional.setdefault(relation, {})
        if not seen and not target.size(relation):
            single = relation in self._single_writer
            if assume_unique and single:
                # keys proven distinct and nothing will ever consult
                # the functional index again: the egd cannot fire
                return target.add_batch(relation, facts)
            merged = {fact[:-1]: fact[-1] for fact in facts}
            if len(merged) == len(facts):
                if not single:
                    seen.update(merged)
                return target.add_batch(relation, facts)
        produced = 0
        for fact in facts:
            produced += self.insert(target, functional, relation, fact)
        return produced


def _locking(apply_one, target: RelationalInstance):
    """``apply_one`` holding the insert lock of the one relation its tgd
    writes — how the tasks of a pooled wave share ``target``."""

    def locked(tgd, *args):
        with target.lock(tgd.target_relation):
            return apply_one(tgd, *args)

    return locked


def _refused(tgd: Tgd, unsupported: Exception) -> ChaseError:
    """A tgd no kernel covers: a chase failure naming the tgd and the shape."""
    return ChaseError(
        f"no kernel covers tgd {tgd.label or tgd.target_relation!r} "
        f"({tgd.kind.value}): {unsupported}"
    )
