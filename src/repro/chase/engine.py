"""The stratified chase (Section 4.2).

The chase applies the target tgds *in statement order*, each to
saturation, so that the operands of aggregations and table functions
are completely known before they fire — the paper's stratified
variation of the classical procedure.  All tgds are full, so every
generated tuple is made of constants and the procedure terminates.

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
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ChaseError, ChaseSourceError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Term, Var, evaluate
from ..model.time import TimePoint
from ..obs import NULL_TRACER, MetricsRegistry
from ..stats.aggregates import get_aggregate
from . import columnar, groupreduce
from .instance import RelationalInstance

if TYPE_CHECKING:
    from ..model.cube import Cube

__all__ = [
    "ChaseStats",
    "ChaseResult",
    "DeltaStats",
    "DeltaRunResult",
    "StratifiedChase",
    "DEFAULT_VECTORIZED",
]

#: Default for ``StratifiedChase(vectorized=None)``.  Read at
#: construction time, so the test harness can flip it process-wide
#: (``pytest --no-vectorize``) without threading a flag everywhere.
DEFAULT_VECTORIZED = True


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
    # target tgds that ran on a columnar kernel vs. the ones that fell
    # back to the tuple-at-a-time path (table functions, outer
    # vectorials, …).  Both stay 0 with ``vectorized=False``.
    vectorized_tgds: int = 0
    fallback_tgds: int = 0
    # why each fallback happened (FallbackUnsupported reason -> count)
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
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
    #: the functional (egd) index built during the run: relation ->
    #: {dims: measure}.  May be *incomplete* for single-writer
    #: relations inserted on the vectorized fast path (which proves key
    #: distinctness without populating it); the delta chase snapshot
    #: completes missing relations lazily from the instance.
    functional: Dict[str, Dict[Tuple, Any]] = field(default_factory=dict)


@dataclass
class DeltaStats:
    """Counters describing one incremental update (:mod:`.delta`), or a
    full run standing in for one."""

    #: target tgds re-fired incrementally (changed operands, delta rules)
    dirty_tgds: int = 0
    #: target tgds skipped because every operand delta was empty
    clean_tgds: int = 0
    #: target tgds recomputed in full (table functions, unsupported shapes)
    fallback_tgds: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    tuples_retracted: int = 0
    tuples_asserted: int = 0

    def note_fallback(self, reason: str, count: int = 1) -> None:
        self.fallback_tgds += count
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + count
        )


@dataclass
class DeltaRunResult:
    """What an incremental backend run returns to the dispatcher:
    the (full) output cubes, which of them actually changed, and the
    update statistics."""

    cubes: Dict[str, Cube]
    changed: Dict[str, bool]
    stats: DeltaStats


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

    Every way computes the same solution, tuple for tuple.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        jobs: Optional[int] = None,
        shards: int = 1,
        vectorized: Optional[bool] = None,
        kernel_hook=None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        fault_context: Optional[Tuple[Any, str, Tuple[str, ...], int]] = None,
        shard_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
    ):
        self.mapping = mapping
        self.registry = mapping.registry
        #: columnar kernels on/off; ``None`` defers to the module default
        self.vectorized = (
            DEFAULT_VECTORIZED if vectorized is None else bool(vectorized)
        )
        #: optional ``hook(used: bool, reason: Optional[str])`` called per
        #: target-tgd kernel decision (ChaseBackend aggregates counters
        #: across runs here)
        self.kernel_hook = kernel_hook
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
        # stats and kernel_hook are shared by the tasks of a wave
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
                apply = partial(self._apply_merged, results)
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
                    lambda tgd: apply(tgd, target, functional, stats),
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
        return ChaseResult(target, stats, metrics=self.metrics, functional=functional)

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
    def _note_kernel(
        self,
        stats: Optional[ChaseStats],
        used: bool,
        reason: Optional[str] = None,
    ) -> None:
        """Record one kernel decision (the tasks of a wave share ``stats``)."""
        if stats is not None:
            with self._stats_lock:
                if used:
                    stats.vectorized_tgds += 1
                else:
                    stats.fallback_tgds += 1
                    if reason:
                        stats.fallback_reasons[reason] = (
                            stats.fallback_reasons.get(reason, 0) + 1
                        )
        if used:
            self.metrics.inc("chase.kernel.vectorized")
        else:
            self.metrics.inc("chase.kernel.fallback")
            if reason:
                self.metrics.inc(f"chase.kernel.fallback.reason:{reason}")
        if self.kernel_hook is not None:
            self.kernel_hook(used, reason)

    def apply(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        stats: Optional[ChaseStats] = None,
    ) -> int:
        """Apply one target tgd to saturation against ``target`` — on a
        columnar kernel when one covers it, tuple-at-a-time otherwise —
        and return the tuples it produced."""
        if self.vectorized:
            if tgd.kind is TgdKind.COPY:
                produced = self._adopt(
                    tgd.target_relation,
                    target.export_store(tgd.lhs[0].relation),
                    target,
                    functional,
                )
                if produced is not None:
                    self._note_kernel(stats, used=True)
                    return produced
            try:
                produced = columnar.apply_vectorized(
                    tgd,
                    target,
                    target,
                    functional,
                    self.registry,
                    self._insert_batch,
                    self.kernel_plans,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            except columnar.FallbackUnsupported as unsupported:
                self._note_kernel(stats, used=False, reason=str(unsupported))
            else:
                self._note_kernel(stats, used=True)
                return produced
        return self._apply_scalar(tgd, target, functional)

    def _apply_scalar(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Tuple at a time: the rule enumerates the facts it derives,
        each goes through the egd-checking insert."""
        if tgd.kind is TgdKind.COPY:
            return self.copy(tgd, target, target, functional)
        if tgd.kind is TgdKind.TUPLE_LEVEL:
            facts = self._tuple_level_facts(tgd, target)
        elif tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
            facts = self._outer_tuple_level_facts(tgd, target)
        elif tgd.kind is TgdKind.AGGREGATION:
            facts = self._reduced_facts(tgd, self.collect(tgd, target))
        else:
            facts = self._table_function_facts(tgd, target)
        return self._insert_each(target, functional, tgd.rhs.relation, facts)

    def _insert_each(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        facts: Iterable[Tuple],
    ) -> int:
        produced = checks = 0
        for fact in facts:
            produced += self.insert(target, functional, relation, fact)
            checks += 1
        self.metrics.inc("chase.egd.checks", checks)
        return produced

    def copy(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Apply one copy tgd reading ``source`` and writing ``target``."""
        relation = tgd.lhs[0].relation
        # a chase with shard workers adopts even on scalar kernels: data
        # movement is merge machinery, not a kernel choice, and a per-fact
        # rebuild of data the workers already chased would be all cost
        if self.vectorized or self.plan is not None:
            adopted = self._adopt(
                tgd.target_relation,
                source.export_store(relation),
                target,
                functional,
            )
            if adopted is not None:
                return adopted
        if self.vectorized:
            # materialized as a list on purpose: the batch must flow
            # element-wise into the target store so the insertion
            # sequence matches what per-fact inserts build
            return self._insert_batch(
                target,
                functional,
                tgd.target_relation,
                list(source.facts(relation)),
            )
        return self._insert_each(
            target, functional, tgd.target_relation, source.facts(relation)
        )

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
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        stats: ChaseStats,
    ) -> int:
        """A target tgd of a sharded run: insert what the workers
        computed — disjoint stores verbatim, contribution bags through
        the one reduce — or apply it here when it ran in no worker."""
        if self.plan.klass[self._tgd_index[id(tgd)]] == self._shard.PARENT:
            return self.apply(tgd, target, functional, stats)
        started = time.perf_counter()
        relation = tgd.target_relation
        merged = self._shard.merge_outputs(relation, results)
        if isinstance(merged, dict):
            produced = self._insert_each(
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

    def _tuple_level_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        for env in self.matches(tgd.lhs, target):
            yield tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )

    def _outer_tuple_level_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        """Vectorial rule with a default for missing tuples: the result
        is defined on the union of the two operands' dimension tuples,
        padding the absent side with the tgd's default value."""
        left_atom, right_atom = tgd.lhs
        left = {f[:-1]: f[-1] for f in target.facts(left_atom.relation)}
        right = {f[:-1]: f[-1] for f in target.facts(right_atom.relation)}
        default = tgd.outer_default
        left_measure = left_atom.terms[-1]
        right_measure = right_atom.terms[-1]
        dim_terms = left_atom.terms[:-1]
        for dims in left.keys() | right.keys():
            env = {
                term.name: value
                for term, value in zip(dim_terms, dims)
                if isinstance(term, Var)
            }
            env[left_measure.name] = left.get(dims, default)
            env[right_measure.name] = right.get(dims, default)
            yield tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )

    def collect(
        self, tgd: Tgd, instance: RelationalInstance
    ) -> Dict[Tuple, List[Any]]:
        """The contribution bag of every group of one aggregation tgd
        over ``instance`` — the aggregation minus its reduce, which is
        all a shard worker runs of a group-by that is not shard-aligned."""
        group_terms = tgd.rhs.terms[: tgd.group_arity]
        agg_term = tgd.rhs.terms[-1]
        if not isinstance(agg_term, AggTerm):
            raise ChaseError("aggregation tgd without an aggregate term")
        registry = self.registry
        return groupreduce.collect(
            (
                tuple(evaluate(t, env, registry) for t in group_terms),
                evaluate(agg_term.operand, env, registry),
            )
            for env in self.matches([tgd.lhs[0]], instance)
        )

    @staticmethod
    def _reduced_facts(tgd: Tgd, bags: Dict[Tuple, List[Any]]) -> List[Tuple]:
        """One fact per group: its key and its bag's aggregate."""
        aggregate = get_aggregate(tgd.rhs.terms[-1].func)
        reduced = groupreduce.reduce_bags(bags, aggregate)
        return [key + (value,) for key, value in reduced.items()]

    def _table_function_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        spec = self.registry.get(tgd.table_function)
        rows = sorted(target.facts(tgd.lhs[0].relation), key=_time_key)
        series = [(fact[0], fact[-1]) for fact in rows]
        for point, value in spec.impl(series, tgd.params_dict()):
            yield (point, float(value))

    # -- matching ----------------------------------------------------------
    def matches(
        self, atoms: Sequence[Atom], instance: RelationalInstance
    ) -> Iterator[Dict[str, Any]]:
        """Enumerate variable assignments satisfying the conjunction.

        Atoms are matched left to right.  For every atom after the
        first, a hash index is built on the positions whose value is
        determined by the bindings so far (bound variables, constants,
        or computable function terms), so equi-joins run in linear
        time instead of as nested loops.
        """
        yield from self._match_rest(list(atoms), 0, {}, instance, {})

    def _match_rest(
        self,
        atoms: List[Atom],
        index: int,
        env: Dict[str, Any],
        instance: RelationalInstance,
        index_cache: Dict,
    ) -> Iterator[Dict[str, Any]]:
        if index == len(atoms):
            yield env
            return
        atom = atoms[index]
        bound = set(env)
        key_positions = [
            i for i, term in enumerate(atom.terms) if _determined(term, bound)
        ]
        if key_positions and index > 0:
            cache_key = (index, atom.relation, tuple(key_positions))
            if cache_key not in index_cache:
                built: Dict[Tuple, List[Tuple]] = {}
                for fact in instance.facts(atom.relation):
                    built.setdefault(
                        tuple(fact[i] for i in key_positions), []
                    ).append(fact)
                index_cache[cache_key] = built
            key = tuple(
                evaluate(atom.terms[i], env, self.registry) for i in key_positions
            )
            candidates = index_cache[cache_key].get(key, ())
        else:
            candidates = instance.facts(atom.relation)
        for fact in candidates:
            extended = self._unify(atom, fact, env)
            if extended is not None:
                yield from self._match_rest(
                    atoms, index + 1, extended, instance, index_cache
                )

    def _unify(
        self, atom: Atom, fact: Tuple, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if len(atom.terms) != len(fact):
            raise ChaseError(
                f"arity mismatch matching {atom} against fact of length {len(fact)}"
            )
        extended = dict(env)
        for term, value in zip(atom.terms, fact):
            if isinstance(term, Var):
                if term.name in extended:
                    if extended[term.name] != value:
                        return None
                else:
                    extended[term.name] = value
            elif isinstance(term, Const):
                if term.value != value:
                    return None
            elif isinstance(term, FuncApp):
                solved = self._solve(term, value, extended)
                if solved is None:
                    return None
                extended = solved
            else:
                raise ChaseError(f"cannot match term {term} in a lhs atom")
        return extended

    def _solve(
        self, term: FuncApp, value: Any, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Match a function term in a lhs atom against a value.

        If all variables are bound the term is evaluated and compared;
        otherwise the invertible shift shape ``v ± const`` is solved for
        its variable (this is how the simplified tgd (5)'s ``q - 1``
        atom is matched).
        """
        free = [v for v in _term_variables(term) if v not in env]
        if not free:
            return env if evaluate(term, env, self.registry) == value else None
        if (
            term.name in ("+", "-")
            and len(term.args) == 2
            and isinstance(term.args[0], Var)
            and isinstance(term.args[1], Const)
            and term.args[0].name not in env
        ):
            shift = term.args[1].value
            inverse = FuncApp("-" if term.name == "+" else "+", (Const(value), Const(shift)))
            solved_value = evaluate(inverse, {}, self.registry)
            extended = dict(env)
            extended[term.args[0].name] = solved_value
            return extended
        raise ChaseError(
            f"cannot match lhs term {term}: variables {free} are unbound and "
            f"the term is not invertible"
        )

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
        dims: Optional[List[Tuple]] = None,
        measures: Optional[List[Any]] = None,
        assume_unique: bool = False,
        columns: Optional[List[Any]] = None,
        n: int = 0,
    ) -> int:
        """Insert a batch of facts with a batched egd check.

        ``facts`` must be in the order the scalar path would insert
        them — the relation's insertion sequence (hence fact-set
        iteration order) must not depend on which path ran.  When the
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
            if dims is None:
                dims = [fact[:-1] for fact in facts]
                measures = [fact[-1] for fact in facts]
            if assume_unique:
                seen.update(zip(dims, measures))
                return target.add_batch(relation, facts)
            merged = dict(zip(dims, measures))
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


def _determined(term: Term, bound: set) -> bool:
    if isinstance(term, Const):
        return True
    if isinstance(term, Var):
        return term.name in bound
    if isinstance(term, FuncApp):
        return all(v in bound for v in _term_variables(term))
    return False


def _term_variables(term: Term) -> List[str]:
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, Const):
        return []
    if isinstance(term, FuncApp):
        out: List[str] = []
        for arg in term.args:
            out.extend(_term_variables(arg))
        return out
    raise ChaseError(f"unexpected term {term!r} in a lhs atom")


def _time_key(fact: Tuple):
    first = fact[0]
    if isinstance(first, TimePoint):
        return (first.freq.value, first.ordinal)
    return (str(first),)
