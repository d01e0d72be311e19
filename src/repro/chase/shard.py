"""Multi-process sharded chase: shared-nothing scale-out over columnar partitions.

The stratum-parallel scheduler (:mod:`repro.chase.scheduler`) overlaps
waves on *threads*, so pure-Python tgd work is GIL-bound.  This module
converts that wave parallelism into real multi-core speedup:

1. **Partition.**  Each elementary relation feeding shard-friendly
   tgds is hash-partitioned on one dimension (time slices via
   ``TimePoint.ordinal``, entity buckets via a stable blake2b of the
   value — never the process-salted builtin ``hash``).  The partition
   column is chosen statically by :class:`ShardPlan` so every join and
   group-by that must see co-located rows does.

2. **Chase per shard.**  A fork-context ``ProcessPoolExecutor`` runs a
   plain :class:`StratifiedChase` over each shard's slice.  Inputs ride
   the fork (copy-on-write inheritance of the staged module global);
   outputs come back as pickled :class:`ColumnStore`/:class:`TupleStore`
   buffers (codes/dicts/measures round-trip; NaN identity inside a
   payload survives via pickle memoization).

3. **Merge.**  Shard outputs are merged through the existing
   egd-checking insert.  The hot path concatenates columnar shard
   stores (:meth:`ColumnStore.extend_from`) and proves global key
   distinctness with one mixed-radix ``np.unique`` pass; any
   precondition failure drops to the defensive element-wise
   ``_insert_batch`` path, which raises :class:`ChaseError` on true
   functionality violations exactly like an unsharded run.

Classification (the fallback taxonomy surfaced as
``chase.shard.fallback.reason:*`` metrics):

* **local** — copies, vectorial rules, and joins whose every operand
  carries the partition variable at its partition column, and
  aggregations whose group-by keys include it: shard outputs are
  disjoint and merge verbatim.
* **rereduce** — aggregations whose group-by keys are *not*
  shard-aligned: workers return per-group contribution bags (the delta
  layer's per-group contribution approach) and the parent re-reduces
  the concatenated bags; ``stats.aggregates.canonical_bag`` makes the
  fold order-insensitive, so the result is bit-exact.
* **parent** — everything else (cross-shard joins with no shared key,
  table functions, rules over globally-materialized operands) runs
  single-process in the parent, in normal wave order, against the
  already-merged relations.

A mapping with no local/rereduce tgds or a platform without ``fork``
falls back to the thread scheduler wholesale — same result, no
scale-out, one counted reason.

**Supervision.**  Worker death no longer abandons the run: the parent
supervises the fork pool, keeps every shard result that completed, and
rebuilds the pool to retry only the shards that died (a SIGKILLed or
OOM-killed worker breaks the whole ``ProcessPoolExecutor``, so the pool
is disposable per round).  Each retry round counts
``chase.shard.retries`` per retried shard; after ``shard_retries``
rounds the survivors are quarantined (``chase.shard.quarantined``) and
the run falls back to the thread scheduler with reason
``shard-retries-exhausted`` — still correct, just not scaled out.  With
``shard_timeout_s`` set, a wedged worker (the ``hang`` fault kind) trips
a per-shard timeout (``chase.shard.timeouts``), its process is
terminated, and the shard retries like a crash.  Genuine chase errors
(egd violations) raised *inside* a worker still propagate unchanged —
only process death and timeouts are retried.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ChaseError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Var, evaluate
from ..model.time import TimePoint
from ..obs import MetricsRegistry, Tracer
from ..stats.aggregates import get_aggregate
from . import instance as instance_mod
from .colstore import ColumnStore, TupleStore
from .engine import ChaseResult, ChaseStats, StratifiedChase
from .instance import RelationalInstance
from .scheduler import ParallelStratifiedChase

__all__ = [
    "ShardPlan",
    "ShardedStratifiedChase",
    "resolve_shards",
    "shard_of",
]

_INT = np.int64


def resolve_shards(shards: int) -> int:
    """Effective shard count: ``0`` means auto (one per CPU core)."""
    shards = int(shards)
    if shards == 0:
        shards = os.cpu_count() or 1
    return max(1, shards)


def shard_of(value: Any, shards: int) -> int:
    """Stable shard assignment for one dimension value.

    Time points partition into contiguous-by-ordinal slices modulo the
    shard count; strings (entities) hash with blake2b.  The builtin
    ``hash`` is never used — it is salted per process, and the parent
    and any observer must agree on placement across runs.
    """
    if isinstance(value, TimePoint):
        return value.ordinal % shards
    if isinstance(value, bool):
        return int(value) % shards
    if isinstance(value, int):
        return value % shards
    text = value if isinstance(value, str) else repr(value)
    digest = hashlib.blake2b(
        text.encode("utf-8", "backslashreplace"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % shards


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _var_column(atom: Atom, name: str) -> Optional[int]:
    """The dimension position where ``name`` appears as a plain Var."""
    for j, term in enumerate(atom.terms[:-1]):
        if isinstance(term, Var) and term.name == name:
            return j
    return None


LOCAL = "local"
REREDUCE = "rereduce"
PARENT = "parent"


@dataclass
class ShardPlan:
    """Static partition/classification plan for one mapping.

    ``part`` holds committed partition columns (by *target* relation
    name for st copies, so hand-built mappings that rename on copy
    still resolve); ``cand`` holds elementary relations whose column is
    still free — resolved at partition time by distinct-value
    cardinality.  ``klass[i]`` classifies ``mapping.target_tgds[i]``.
    """

    part: Dict[str, int] = field(default_factory=dict)
    cand: Dict[str, Set[int]] = field(default_factory=dict)
    klass: List[str] = field(default_factory=list)
    #: parent-tgd index -> fallback reason (the taxonomy)
    reasons: Dict[int, str] = field(default_factory=dict)
    local: List[int] = field(default_factory=list)
    rereduce: List[int] = field(default_factory=list)
    parent: List[int] = field(default_factory=list)
    #: st-tgd indices whose source relation is shipped to workers
    sharded_st: List[int] = field(default_factory=list)
    fallback_reason: Optional[str] = None

    @classmethod
    def analyze(cls, mapping: SchemaMapping) -> "ShardPlan":
        plan = cls()
        part = plan.part
        cand = plan.cand
        # every elementary copy target starts with all dim positions
        # free; 0-dim (scalar) relations are global from the start
        for tgd in mapping.st_tgds:
            dims = len(tgd.rhs.terms) - 1
            if dims > 0:
                cand[tgd.target_relation] = set(range(dims))

        for index, tgd in enumerate(mapping.target_tgds):
            target = tgd.target_relation
            if tgd.kind is TgdKind.TABLE_FUNCTION:
                plan._classify(index, PARENT, reason="table-function")
                continue
            operand_names = [atom.relation for atom in tgd.lhs]
            if any(
                name not in part and name not in cand
                for name in operand_names
            ):
                plan._classify(index, PARENT, reason="global-operand")
                continue
            if tgd.kind is TgdKind.AGGREGATION:
                plan._classify_aggregation(index, tgd)
                continue
            # copy / tuple-level / outer: find a variable that sits at
            # every operand's partition column AND at some rhs dim
            # position — rows that must meet then share a shard
            chosen = None
            for pos, term in enumerate(tgd.rhs.terms[:-1]):
                if not isinstance(term, Var):
                    continue
                # pending commits for this candidate variable; checked
                # alongside the committed state so a self-join that
                # needs one relation at two different columns is
                # rejected instead of double-committed
                commits: Dict[str, int] = {}
                ok = True
                for atom in tgd.lhs:
                    col = _var_column(atom, term.name)
                    if col is None:
                        ok = False
                        break
                    name = atom.relation
                    pending = commits.get(name, part.get(name))
                    if pending is not None:
                        if pending != col:
                            ok = False
                            break
                    else:
                        free = cand.get(name)
                        if free is None or col not in free:
                            ok = False
                            break
                        commits[name] = col
                if ok:
                    chosen = (pos, commits)
                    break
            if chosen is None:
                plan._classify(index, PARENT, reason="no-aligned-key")
                continue
            pos, commits = chosen
            for name, col in commits.items():
                part[name] = col
                cand.pop(name, None)
            part[target] = pos
            plan._classify(index, LOCAL)

        # which elementary relations do workers actually need?  the
        # operand closure of the shard-side tgds (derived operands are
        # produced in-worker by their own local tgds)
        needed: Set[str] = set()
        for i in plan.local + plan.rereduce:
            needed.update(a.relation for a in mapping.target_tgds[i].lhs)
        plan.sharded_st = [
            i
            for i, tgd in enumerate(mapping.st_tgds)
            if tgd.target_relation in needed
            and (tgd.target_relation in part or tgd.target_relation in cand)
        ]
        if not plan.local and not plan.rereduce:
            plan.fallback_reason = "no-partitionable-tgds"
        return plan

    def _classify(self, index: int, klass: str, reason: str = "") -> None:
        self.klass.append(klass)
        if klass == LOCAL:
            self.local.append(index)
        elif klass == REREDUCE:
            self.rereduce.append(index)
        else:
            self.parent.append(index)
            self.reasons[index] = reason

    def _classify_aggregation(self, index: int, tgd: Tgd) -> None:
        atom = tgd.lhs[0]
        name = atom.relation
        group_terms = tgd.rhs.terms[: tgd.group_arity]
        committed = self.part.get(name)
        if committed is not None:
            key = atom.terms[committed]
            pos = (
                None
                if not isinstance(key, Var)
                else next(
                    (
                        i
                        for i, t in enumerate(group_terms)
                        if isinstance(t, Var) and t.name == key.name
                    ),
                    None,
                )
            )
            if pos is None:
                self._classify(index, REREDUCE)
            else:
                self.part[tgd.target_relation] = pos
                self._classify(index, LOCAL)
            return
        # operand column still free: prefer one that keeps the group-by
        # shard-aligned; otherwise any column works for re-reduction
        free = self.cand.get(name) or ()
        for i, term in enumerate(group_terms):
            if not isinstance(term, Var):
                continue
            col = _var_column(atom, term.name)
            if col is not None and col in free:
                self.part[name] = col
                self.cand.pop(name, None)
                self.part[tgd.target_relation] = i
                self._classify(index, LOCAL)
                return
        self._classify(index, REREDUCE)

    def column_for(self, relation: str, store) -> int:
        """Resolve the partition column of one elementary relation.

        Still-free relations pick the dimension with the most distinct
        values (most balanced hash), lowest position on ties.
        """
        committed = self.part.get(relation)
        if committed is not None:
            return committed
        best_col, best_card = -1, -1
        for col in sorted(self.cand[relation]):
            if isinstance(store, ColumnStore):
                card = len(store.dicts[col])
            else:
                card = len({fact[col] for fact in store.rows()})
            if card > best_card:
                best_col, best_card = col, card
        return best_col


# -- partitioning ---------------------------------------------------------------


def _partition_store(store, col: int, shards: int) -> List[Optional[Any]]:
    """Split one relation store into per-shard slices on ``col``.

    Columnar stores slice their code/measure buffers with numpy row
    masks (dictionaries ship whole — they are small and append-only);
    tuple stores bucket facts.  Key distinctness of the source is
    inherited: a slice of a distinct-keyed store is distinct-keyed.
    """
    if store is None or store.n_rows == 0:
        return [None] * shards
    if isinstance(store, ColumnStore):
        by_value = np.fromiter(
            (shard_of(v, shards) for v in store.dicts[col]),
            dtype=_INT,
            count=len(store.dicts[col]),
        )
        owner = by_value[np.asarray(store.codes[col], dtype=_INT)]
        pieces: List[Optional[Any]] = []
        measures = store.measures
        code_cols = [np.asarray(c, dtype=_INT) for c in store.codes]
        for s in range(shards):
            idx = np.nonzero(owner == s)[0]
            if idx.size == 0:
                pieces.append(None)
                continue
            piece = ColumnStore(store.arity)
            piece.dicts = [list(d) for d in store.dicts]
            piece.vmaps = [dict(v) for v in store.vmaps]
            piece.codes = [c[idx].tolist() for c in code_cols]
            rows = idx.tolist()
            piece.measures = [measures[i] for i in rows]
            piece.dims_distinct = store.dims_distinct
            pieces.append(piece)
        return pieces
    buckets: List[Dict[Tuple, None]] = [{} for _ in range(shards)]
    for fact in store.rows():
        buckets[shard_of(fact[col], shards)][fact] = None
    return [
        TupleStore(bucket) if bucket else None for bucket in buckets
    ]


# -- worker side ----------------------------------------------------------------

#: staged by the parent immediately before the fork pool spins up;
#: workers inherit it copy-on-write, so the mapping (with its operator
#: registry closures) and the shard payloads never cross pickle
_WORKER_STATE: Optional["_WorkerState"] = None


@dataclass
class _WorkerState:
    mapping: SchemaMapping
    plan: ShardPlan
    payloads: List[Dict[str, Any]]
    use_indexes: bool
    vectorized: bool
    trace: bool
    #: (fault_plan, target, cubes, base_attempt) from the dispatcher, or
    #: None — workers consult it for process-level fault kinds only
    fault: Optional[Tuple[Any, str, Tuple[str, ...], int]] = None
    #: which supervision round staged this state; folded into the fault
    #: attempt index so "fail the first N attempts" rules see retries
    pool_round: int = 0


def _collect_contributions(
    chase: StratifiedChase, tgd: Tgd, target: RelationalInstance
) -> Dict[Tuple, List[Any]]:
    """Per-group contribution bags of one non-aligned aggregation.

    Mirrors ``StratifiedChase._apply_aggregation`` exactly, minus the
    reduce: the parent concatenates the bags across shards and folds
    once, through the same canonical-order aggregate.
    """
    atom = tgd.lhs[0]
    group_terms = tgd.rhs.terms[: tgd.group_arity]
    agg_term = tgd.rhs.terms[-1]
    if not isinstance(agg_term, AggTerm):
        raise ChaseError("aggregation tgd without an aggregate term")
    registry = chase.registry
    groups: Dict[Tuple, List[Any]] = {}
    for env in chase._matches([atom], target):
        key = tuple(evaluate(t, env, registry) for t in group_terms)
        value = evaluate(agg_term.operand, env, registry)
        groups.setdefault(key, []).append(value)
    return groups


def _export_spans(tracer: Optional[Tracer]) -> Optional[List[Dict]]:
    if tracer is None:
        return None
    return [
        {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "category": span.category,
            "args": span.args,
            "started": span.started - tracer.epoch,
            "duration": span.duration,
        }
        for span in tracer.spans
    ]


def _run_shard(index: int) -> Dict[str, Any]:
    """One worker: chase the shard slice, return plain-data results."""
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive
        raise RuntimeError("shard worker started without staged state")
    if state.fault is not None:
        # deliver process-level faults *inside* the expendable worker:
        # "kill" SIGKILLs this forked process (breaking the pool so the
        # supervisor retries the shard), "hang" wedges it until the
        # supervisor's timeout fires; the in-process kinds already fired
        # on the parent's pre-pool hook and are excluded here
        plan, fault_target, fault_cubes, base_attempt = state.fault
        plan.apply(
            fault_target,
            tuple(fault_cubes) + (f"shard:{index}",),
            base_attempt + state.pool_round,
            kinds=("kill", "hang"),
        )
    mapping = state.mapping
    plan = state.plan
    tracer = Tracer() if state.trace else None
    metrics = MetricsRegistry()
    chase = StratifiedChase(
        mapping,
        use_indexes=state.use_indexes,
        vectorized=state.vectorized,
        tracer=tracer,
        metrics=metrics,
    )
    stats = ChaseStats()
    source = RelationalInstance()
    target = RelationalInstance()
    functional: Dict[str, Dict[Tuple, Any]] = {}
    sharded_st = [mapping.st_tgds[i] for i in plan.sharded_st]
    for tgd in sharded_st:
        source.ensure(tgd.lhs[0].relation)
        target.ensure(tgd.target_relation)
        functional.setdefault(tgd.target_relation, {})
    for i in plan.local + plan.rereduce:
        tgd = mapping.target_tgds[i]
        target.ensure(tgd.target_relation)
        functional.setdefault(tgd.target_relation, {})
    payload = state.payloads[index]
    for relation, store in payload.items():
        if (
            isinstance(store, ColumnStore)
            and source.adopt(relation, store) is not None
        ):
            continue
        source.add_batch(relation, store.rows())

    span = (
        tracer.span(f"shard:{index}", category="shard", shard=index)
        if tracer is not None
        else _NULL_CTX
    )
    contribs: Dict[int, Dict[Tuple, List[Any]]] = {}
    with span:
        for tgd in sharded_st:
            with chase._tgd_span(tgd):
                produced = chase._apply_copy(tgd, source, target, functional)
            chase._record(
                stats, tgd, produced,
                reads=source.size(tgd.lhs[0].relation),
            )
        for i in plan.local:
            tgd = mapping.target_tgds[i]
            reads = chase._operand_rows(tgd, target)
            with chase._tgd_span(tgd):
                produced = chase._apply(tgd, target, functional, stats)
            chase._record(stats, tgd, produced, reads=reads)
        for i in plan.rereduce:
            tgd = mapping.target_tgds[i]
            with chase._tgd_span(tgd):
                contribs[i] = _collect_contributions(chase, tgd, target)
            chase._record(
                stats, tgd, 0, reads=chase._operand_rows(tgd, target)
            )
    stores: Dict[str, Any] = {}
    for i in plan.local:
        relation = mapping.target_tgds[i].target_relation
        store = target._relations.get(relation)
        if store is not None and store.n_rows:
            stores[relation] = store
    return {
        "stores": stores,
        "contribs": contribs,
        "stats": {
            "tuples_generated": stats.tuples_generated,
            "rule_applications": stats.rule_applications,
            "per_tgd": stats.per_tgd,
            "vectorized_tgds": stats.vectorized_tgds,
            "fallback_tgds": stats.fallback_tgds,
            "fallback_reasons": stats.fallback_reasons,
        },
        "metrics": metrics.snapshot(),
        "spans": _export_spans(tracer),
    }


class _NullCtx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CTX = _NullCtx()


class _ShardFallback(Exception):
    """Internal: abandon sharding, rerun on the thread scheduler."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- parent side ----------------------------------------------------------------


class ShardedStratifiedChase(ParallelStratifiedChase):
    """Shared-nothing sharded chase over columnar partitions.

    Degrades to the thread-parallel scheduler for ``shards <= 1``, for
    mappings with nothing to partition, and on platforms without
    ``fork`` — always with a counted ``chase.shard.fallback.reason:*``
    metric, never silently.

    ``fault_hook(shard_index)`` — when supplied by the backend — is
    consulted once per shard before workers launch (in-process kinds
    only), so the deterministic fault-injection plan composes with
    sharding: an injected fault aborts the run exactly like a backend
    fault and the dispatcher's retry/degradation machinery takes over.
    ``fault_context`` — ``(plan, target, cubes, attempt)`` — is staged
    into the workers instead, where the process-level ``kill``/``hang``
    kinds are delivered and the supervisor (see module docstring)
    proves it can outlive them.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        use_indexes: bool = True,
        max_workers: int = 4,
        shards: int = 0,
        cache=None,
        vectorized: Optional[bool] = None,
        kernel_hook=None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        fault_hook=None,
        fault_context: Optional[Tuple[Any, str, Tuple[str, ...], int]] = None,
        shard_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
    ):
        super().__init__(
            mapping,
            use_indexes,
            max_workers=max_workers,
            cache=cache,
            vectorized=vectorized,
            kernel_hook=kernel_hook,
            tracer=tracer,
            metrics=metrics,
        )
        self.shards = resolve_shards(shards)
        self.fault_hook = fault_hook
        self.fault_context = fault_context
        #: pool-rebuild rounds allowed after the first before quarantine
        self.shard_retries = max(0, int(shard_retries))
        #: per-shard result wait; None trusts workers not to wedge
        self.shard_timeout_s = shard_timeout_s
        self.plan = ShardPlan.analyze(mapping)

    # -- orchestration --------------------------------------------------------
    def run(self, source: RelationalInstance) -> ChaseResult:
        if self.shards <= 1:
            return super().run(source)
        reason = self.plan.fallback_reason
        if reason is None and not _fork_available():
            reason = "no-fork"
        if reason is not None:
            self.metrics.inc(f"chase.shard.fallback.reason:{reason}")
            return super().run(source)
        try:
            return self._run_sharded(source)
        except _ShardFallback as fallback:
            self.metrics.inc(
                f"chase.shard.fallback.reason:{fallback.reason}"
            )
            return super().run(source)

    def _run_sharded(self, source: RelationalInstance) -> ChaseResult:
        self._check_source(source)
        plan = self.plan
        mapping = self.mapping
        stats = ChaseStats()
        stats.shards = self.shards
        for index in plan.parent:
            reason = plan.reasons.get(index, "parent")
            self.metrics.inc(f"chase.shard.fallback.reason:{reason}")
            stats.shard_fallback_reasons[reason] = (
                stats.shard_fallback_reasons.get(reason, 0) + 1
            )
        target = RelationalInstance()
        functional: Dict[str, Dict[Tuple, Any]] = {}
        for tgd in mapping.st_tgds:
            target.ensure(tgd.target_relation)
            functional.setdefault(tgd.target_relation, {})
        for tgd in mapping.target_tgds:
            target.ensure(tgd.target_relation)
            functional.setdefault(tgd.target_relation, {})

        with self.tracer.span(
            "chase", category="chase", scheduler="sharded",
            shards=self.shards, jobs=self.max_workers,
        ) as chase_span:
            results = self._run_shards(source, stats)
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                self._run_wave(
                    pool,
                    mapping.st_tgds,
                    lambda tgd: self._apply_copy_sharded(
                        tgd, source, target, functional
                    ),
                    stats,
                    label="wave:copy",
                    source=source,
                )
                for index, wave in enumerate(self.waves):
                    tgds = [mapping.target_tgds[i] for i in wave]
                    self._run_wave(
                        pool,
                        tgds,
                        lambda tgd: self._apply_sharded(
                            tgd, target, functional, stats, results
                        ),
                        stats,
                        label=f"wave:{index + 1}",
                        source=target,
                        timed=True,
                    )
            chase_span.note(
                tuples_generated=stats.tuples_generated,
                waves=len(self.waves),
                max_wave_width=max((len(w) for w in self.waves), default=0),
                shard_tuples=list(stats.shard_tuples),
            )
        stats.waves = len(self.waves)
        stats.max_wave_width = max((len(w) for w in self.waves), default=0)
        return ChaseResult(
            target, stats, metrics=self.metrics, functional=functional
        )

    def _run_shards(
        self, source: RelationalInstance, stats: ChaseStats
    ) -> List[Dict[str, Any]]:
        """Partition, fan out to the fork pool, absorb worker results."""
        global _WORKER_STATE
        plan = self.plan
        mapping = self.mapping
        shards = self.shards
        with self.tracer.span(
            "wave:shard", category="wave", width=shards
        ) as shard_span:
            payloads: List[Dict[str, Any]] = [dict() for _ in range(shards)]
            for i in plan.sharded_st:
                tgd = mapping.st_tgds[i]
                relation = tgd.lhs[0].relation
                store = source._relations.get(relation)
                if store is None or store.n_rows == 0:
                    continue
                col = plan.column_for(tgd.target_relation, store)
                for s, piece in enumerate(
                    _partition_store(store, col, shards)
                ):
                    if piece is not None:
                        payloads[s][relation] = piece
            if self.fault_hook is not None:
                for s in range(shards):
                    self.fault_hook(s)
            phase_started = time.perf_counter()
            results = self._supervise(mapping, plan, payloads, shards)
            for s, result in enumerate(results):
                worker = result["stats"]
                stats.shard_tuples.append(worker["tuples_generated"])
                self.metrics.absorb(
                    result["metrics"], prefix=f"chase.shard:{s}."
                )
                if self.tracer.enabled and result["spans"]:
                    self.tracer.absorb(
                        result["spans"],
                        parent=shard_span,
                        offset=phase_started - self.tracer.epoch,
                    )
        return results

    def _supervise(
        self,
        mapping: SchemaMapping,
        plan: "ShardPlan",
        payloads: List[Dict[str, Any]],
        shards: int,
    ) -> List[Dict[str, Any]]:
        """Run the fork pool under supervision, retrying dead shards.

        A worker that dies (SIGKILL, OOM) breaks the entire
        ``ProcessPoolExecutor``, so each round uses a disposable pool
        over only the still-pending shards; results gathered before the
        breakage are kept.  A shard whose result does not arrive within
        ``shard_timeout_s`` is presumed wedged — its processes are
        terminated and it retries like a crash.  Exceptions *raised* by
        a live worker (real chase errors) propagate unchanged.  After
        ``shard_retries`` rebuild rounds the still-failing shards are
        quarantined and the whole run falls back to the thread
        scheduler via :class:`_ShardFallback`.
        """
        global _WORKER_STATE
        # the pool machinery is imported where the pool is made
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        context = multiprocessing.get_context("fork")
        results: List[Optional[Dict[str, Any]]] = [None] * shards
        pending = list(range(shards))
        rounds = 0
        while True:
            _WORKER_STATE = _WorkerState(
                mapping=mapping,
                plan=plan,
                payloads=payloads,
                use_indexes=self.use_indexes,
                vectorized=self.vectorized,
                trace=self.tracer.enabled,
                fault=self.fault_context,
                pool_round=rounds,
            )
            # no `with`: a wedged worker must be terminable mid-round,
            # and shutdown timing differs between the outcomes below
            pool = ProcessPoolExecutor(
                max_workers=len(pending), mp_context=context
            )
            failed: List[int] = []
            try:
                futures = {s: pool.submit(_run_shard, s) for s in pending}
                for s, future in futures.items():
                    try:
                        results[s] = future.result(
                            timeout=self.shard_timeout_s
                        )
                    except BrokenProcessPool:
                        failed.append(s)
                    except FuturesTimeout:
                        self.metrics.inc("chase.shard.timeouts")
                        failed.append(s)
                        for process in list(pool._processes.values()):
                            process.terminate()
            except BrokenProcessPool:
                # the pool can break at submit time too (prior round's
                # kill racing pool start) — everything unfinished retries
                failed = [s for s in pending if results[s] is None]
            finally:
                pool.shutdown(wait=True)
                _WORKER_STATE = None
            if not failed:
                return results
            pending = sorted(failed)
            rounds += 1
            if rounds > self.shard_retries:
                self.metrics.inc("chase.shard.quarantined", len(pending))
                raise _ShardFallback("shard-retries-exhausted")
            self.metrics.inc("chase.shard.retries", len(pending))

    def _apply_copy_sharded(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """St copies on the sharded parent: O(1) columnar adoption.

        Data movement is merge machinery, not a kernel choice: even in
        scalar-kernel mode the parent seeds single-writer copy targets
        by adopting the source store copy-on-write instead of paying a
        per-fact rebuild of data the workers already chased.  Falls
        back to the engine's element-wise path when the adoption
        preconditions fail (shared writers, pending egd state, tuple
        layout) — producing the identical store contents either way.
        """
        adopted = self._copy_columnar(tgd, source, target, functional)
        if adopted is not None:
            return adopted
        return self._apply_copy(tgd, source, target, functional)

    # -- merge ----------------------------------------------------------------
    def _apply_sharded(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        stats: ChaseStats,
        results: List[Dict[str, Any]],
    ) -> int:
        index = self._tgd_index[id(tgd)]
        klass = self.plan.klass[index]
        if klass == LOCAL:
            started = time.perf_counter()
            produced = self._merge_local(tgd, target, functional, results)
            with self._stats_lock:
                stats.shard_merge_s += time.perf_counter() - started
            return produced
        if klass == REREDUCE:
            started = time.perf_counter()
            produced = self._apply_rereduce(
                tgd, index, target, functional, results
            )
            with self._stats_lock:
                stats.shard_merge_s += time.perf_counter() - started
            return produced
        return self._apply_cached(tgd, target, functional, stats)

    def _merge_local(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        results: List[Dict[str, Any]],
    ) -> int:
        relation = tgd.target_relation
        stores = [
            result["stores"].get(relation)
            for result in results
        ]
        present = [s for s in stores if s is not None and s.n_rows]
        if not present:
            return 0
        if (
            relation in self._single_writer
            and not functional.get(relation)
            and not target.size(relation)
            and not instance_mod.FORCE_TUPLE_VIEW
            and all(isinstance(s, ColumnStore) for s in present)
        ):
            # concatenate into a fresh store so the shard outputs stay
            # pristine for the element-wise path if a precondition of
            # the bulk adoption fails after the splice
            merged = ColumnStore(present[0].arity)
            for other in present:
                merged.extend_from(other)
            if _dims_distinct(merged):
                merged.dims_distinct = True
                with target.lock(relation):
                    adopted = target.adopt(relation, merged)
                if adopted is not None:
                    self.metrics.inc("chase.egd.checks", adopted)
                    return adopted
        # defensive path: element-wise through the egd-checking insert
        facts = [fact for store in present for fact in store.rows()]
        return self._insert_batch(target, functional, relation, facts)

    def _apply_rereduce(
        self,
        tgd: Tgd,
        index: int,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        results: List[Dict[str, Any]],
    ) -> int:
        agg_term = tgd.rhs.terms[-1]
        aggregate = get_aggregate(agg_term.func)
        groups: Dict[Tuple, List[Any]] = {}
        for result in results:
            for key, bag in result["contribs"].get(index, {}).items():
                existing = groups.get(key)
                if existing is None:
                    groups[key] = list(bag)
                else:
                    existing.extend(bag)
        produced = 0
        self.metrics.inc("chase.egd.checks", len(groups))
        for key, bag in groups.items():
            # canonical_bag inside the aggregate makes the fold
            # order-insensitive, so concatenation order across shards
            # cannot change the result
            fact = key + (aggregate(bag),)
            produced += self._insert(target, functional, tgd.rhs.relation, fact)
        return produced

    @property
    def _tgd_index(self) -> Dict[int, int]:
        cached = getattr(self, "_tgd_index_cache", None)
        if cached is None:
            cached = {
                id(tgd): i
                for i, tgd in enumerate(self.mapping.target_tgds)
            }
            self._tgd_index_cache = cached
        return cached


def _dims_distinct(store: ColumnStore) -> bool:
    """One-pass global key-distinctness proof over merged codes.

    Mixed-radix int64 key per row; overflow can only merge *distinct*
    keys (a safe false-negative that drops to the element-wise egd
    path), never split equal ones.
    """
    n = store.n_rows
    if store.arity == 1:
        return n <= 1
    key = np.asarray(store.codes[0], dtype=_INT)
    for j in range(1, store.arity - 1):
        key = key * _INT(max(len(store.dicts[j]), 1)) + np.asarray(
            store.codes[j], dtype=_INT
        )
    return int(np.unique(key).size) == n
