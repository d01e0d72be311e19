"""Shard workers for the chase: shared-nothing scale-out over columnar partitions.

:class:`~repro.chase.engine.StratifiedChase` walks the tgds one at a
time in one process.  Given ``shards``, it calls the functions of this
module (imported only then) to spread them over several cores:

1. **Partition.**  Each elementary relation feeding shard-friendly
   tgds is hash-partitioned on one dimension (time slices via
   ``TimePoint.ordinal``, entity buckets via a stable blake2b of the
   value — never the process-salted builtin ``hash``).  The partition
   column is chosen statically by :class:`ShardPlan` so every join and
   group-by that must see co-located rows does.

2. **Chase per shard.**  A fork-context ``ProcessPoolExecutor`` runs a
   chase of the parent's class over each shard's slice.  Inputs ride
   the fork (copy-on-write inheritance of the staged module global);
   outputs come back as pickled :class:`ColumnStore` buffers
   (codes/dicts/measures round-trip; NaN identity inside a payload
   survives via pickle memoization).

3. **Merge.**  :func:`merge_outputs` hands the executor each tgd's
   shard outputs to insert, in statement order.  It concatenates the shard
   stores (:meth:`ColumnStore.extend_from`) and proves global key
   distinctness with one mixed-radix sort-and-compare pass, so the
   executor adopts the result whole; when the proof fails the rows
   arrive as a list of facts for the element-wise egd-checking insert,
   which raises
   :class:`ChaseError` on true functionality violations exactly like an
   unsharded run.

Classification (the fallback taxonomy surfaced as
``chase.shard.fallback.reason:*`` metrics):

* **local** — copies, vectorial rules, and joins whose every operand
  carries the partition variable at its partition column, and
  aggregations whose group-by keys include it: shard outputs are
  disjoint and merge verbatim.
* **rereduce** — aggregations whose group-by keys are *not*
  shard-aligned: workers return per-group contribution bags (the
  aggregation kernel without its reduce) and the parent reduces
  the concatenated bags; ``stats.aggregates.canonical_bag`` makes the
  fold order-insensitive, so the result is bit-exact.
* **parent** — everything else (cross-shard joins with no shared key,
  table functions, rules over globally-materialized operands) runs
  single-process in the parent, in statement order, against the
  already-merged relations.

The plan assumes what mappings generated from EXL programs guarantee:
every cube is defined once, and each tgd reads only cubes copied from
the source or defined by an earlier tgd.  :func:`check_statement_order`
refuses a hand-built mapping that breaks this with a
:class:`~repro.errors.MappingError` when the plan is made.

A mapping with no local/rereduce tgds or a platform without ``fork``
runs the executor's loop without shards — same result, no scale-out,
one counted reason.

**Supervision.**  Worker death no longer abandons the run: the parent
supervises the fork pool, keeps every shard result that completed, and
rebuilds the pool to retry only the shards that died (a SIGKILLed or
OOM-killed worker breaks the whole ``ProcessPoolExecutor``, so the pool
is disposable per round).  Each retry round counts
``chase.shard.retries`` per retried shard; after ``shard_retries``
rounds the survivors are quarantined (``chase.shard.quarantined``) and
the executor reruns its loop without shards under reason
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

from ..errors import MappingError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import Var
from ..model.cube import as_list
from ..model.time import TimePoint
from ..obs import MetricsRegistry, Tracer
from .colstore import ColumnStore
from .engine import ChaseStats, StratifiedChase
from .groupreduce import concatenate, distinct
from .instance import RelationalInstance

__all__ = [
    "ShardFallback",
    "ShardPlan",
    "merge_outputs",
    "resolve_shards",
    "run_shards",
    "shard_of",
    "unavailable",
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


def unavailable() -> Optional[str]:
    """Why this platform cannot run shard workers, or None when it can."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return None
    return "no-fork"


def _var_column(atom: Atom, name: str) -> Optional[int]:
    """The dimension position where ``name`` appears as a plain Var."""
    for j, term in enumerate(atom.terms[:-1]):
        if isinstance(term, Var) and term.name == name:
            return j
    return None


LOCAL = "local"
REREDUCE = "rereduce"
PARENT = "parent"

#: which injected fault kinds fire where (``repro.engine.faults``): the
#: error kind in the parent, the process-level ones only inside an
#: expendable worker
_PARENT_KINDS = ("permanent",)
_WORKER_KINDS = ("kill", "hang")


def check_statement_order(mapping: SchemaMapping) -> None:
    """Raise :class:`MappingError` unless statement order is a valid
    stratification of ``mapping``: no target tgd redefines a cube
    copied from the source (:class:`SchemaMapping` already refuses two
    target tgds for one cube), and none reads its own cube or one that
    only a later tgd defines.  The plan keys its partition columns by
    relation and the merge inserts in statement order, so such a
    mapping would leave the forward-read relations empty without an
    error."""
    copied = {tgd.target_relation for tgd in mapping.st_tgds}
    defined = set()
    targets = {tgd.target_relation for tgd in mapping.target_tgds}
    for tgd in mapping.target_tgds:
        name = tgd.target_relation
        label = tgd.label or name
        if name in copied:
            raise MappingError(
                f"tgd {label!r} redefines cube {name!r}, which is copied "
                f"from the source instance"
            )
        if name in tgd.source_relations:
            raise MappingError(
                f"tgd {label!r} consumes the cube it defines "
                f"(self-referential mapping)"
            )
        forward = sorted(
            n for n in tgd.source_relations
            if n in targets and n not in defined and n not in copied
        )
        if forward:
            raise MappingError(
                f"tgd {label!r} reads {', '.join(map(repr, forward))}, "
                f"defined only by a later tgd (cyclic or out-of-order "
                f"mapping); the stratified chase applies tgds in "
                f"statement order"
            )
        defined.add(name)


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
        check_statement_order(mapping)
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

    def column_for(self, relation: str, store: ColumnStore) -> int:
        """Resolve the partition column of one elementary relation.

        Still-free relations pick the dimension with the most distinct
        values (most balanced hash), lowest position on ties.
        """
        committed = self.part.get(relation)
        if committed is not None:
            return committed
        best_col, best_card = -1, -1
        for col in sorted(self.cand[relation]):
            card = len(store.dicts[col])
            if card > best_card:
                best_col, best_card = col, card
        return best_col


# -- partitioning ---------------------------------------------------------------


def _partition_store(
    store: ColumnStore, col: int, shards: int
) -> List[Optional[ColumnStore]]:
    """Split one non-empty relation store into per-shard slices on
    ``col``: numpy row masks over its code/measure buffers
    (dictionaries ship whole — they are small and append-only).  Key
    distinctness of the source is inherited: a slice of a
    distinct-keyed store is distinct-keyed.
    """
    by_value = np.fromiter(
        (shard_of(v, shards) for v in store.dicts[col]),
        dtype=_INT,
        count=len(store.dicts[col]),
    )
    owner = by_value[np.asarray(store.codes[col], dtype=_INT)]
    pieces: List[Optional[ColumnStore]] = []
    measures = as_list(store.measures)
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


# -- worker side ----------------------------------------------------------------

#: ``(parent chase, per-shard payloads, supervision round)``, staged by
#: the parent immediately before the fork pool spins up; workers inherit
#: it copy-on-write, so the mapping (with its operator registry
#: closures) and the shard payloads never cross pickle
_WORKER_STATE: Optional[Tuple[StratifiedChase, List[Dict[str, Any]], int]] = None


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
    if _WORKER_STATE is None:  # pragma: no cover - defensive
        raise RuntimeError("shard worker started without staged state")
    parent, payloads, pool_round = _WORKER_STATE
    if parent.fault_context is not None:
        # deliver process-level faults *inside* the expendable worker:
        # "kill" SIGKILLs this forked process (breaking the pool so the
        # supervisor retries the shard), "hang" wedges it until the
        # supervisor's timeout fires; the permanent kind already fired
        # in the parent (run_shards) and is excluded here; the round
        # is folded into the attempt so "fail the first N attempts" rules
        # see the supervisor's retries
        faults, fault_target, fault_cubes, base_attempt = parent.fault_context
        faults.apply(
            fault_target,
            tuple(fault_cubes) + (f"shard:{index}",),
            base_attempt + pool_round,
            kinds=_WORKER_KINDS,
        )
    mapping = parent.mapping
    plan = parent.plan
    tracer = Tracer() if parent.tracer.enabled else None
    metrics = MetricsRegistry()
    chase = type(parent)(mapping, tracer=tracer, metrics=metrics)
    stats = ChaseStats()
    source = RelationalInstance()
    target = RelationalInstance()
    functional: Dict[str, Dict[Tuple, Any]] = {}
    for relation, store in payloads[index].items():
        source.adopt(relation, store)

    #: re-reduced relation -> this shard's per-group contribution bags;
    #: the parent concatenates them across shards and reduces once
    contribs: Dict[str, Dict[Tuple, List[Any]]] = {}

    def gather(tgd: Tgd) -> int:
        contribs[tgd.target_relation] = chase.collect(tgd, target)
        return 0

    with chase.tracer.span(f"shard:{index}", category="shard", shard=index):
        chase.run_wave(
            [mapping.st_tgds[i] for i in plan.sharded_st],
            lambda tgd: chase.copy(tgd, source, target, functional),
            stats,
            source,
        )
        chase.run_wave(
            [mapping.target_tgds[i] for i in plan.local],
            lambda tgd: chase.apply(tgd, target, functional),
            stats,
            target,
        )
        chase.run_wave(
            [mapping.target_tgds[i] for i in plan.rereduce],
            gather,
            stats,
            target,
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
        "tuples": stats.tuples_generated,
        "metrics": metrics.snapshot(),
        "spans": _export_spans(tracer),
    }


class ShardFallback(Exception):
    """Abandon sharding: the executor reruns its loop without shards."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- parent side ----------------------------------------------------------------


def run_shards(
    chase: StratifiedChase, source: RelationalInstance, stats: ChaseStats
) -> List[Dict[str, Any]]:
    """Partition ``source``, fan out to the fork pool, absorb the
    workers' metrics and spans; one result per shard."""
    plan = chase.plan
    mapping = chase.mapping
    shards = chase.shards
    tracer = chase.tracer
    with tracer.span("wave:shard", category="wave", width=shards) as shard_span:
        payloads: List[Dict[str, Any]] = [dict() for _ in range(shards)]
        for i in plan.sharded_st:
            tgd = mapping.st_tgds[i]
            relation = tgd.lhs[0].relation
            store = source._relations.get(relation)
            if store is None or store.n_rows == 0:
                continue
            col = plan.column_for(tgd.target_relation, store)
            for s, piece in enumerate(_partition_store(store, col, shards)):
                if piece is not None:
                    payloads[s][relation] = piece
        if chase.fault_context is not None:
            # one deterministic draw per shard, before any worker forks:
            # an injected error aborts the run like a backend fault and
            # the dispatcher's failure policy takes over
            faults, fault_target, cubes, attempt = chase.fault_context
            for s in range(shards):
                faults.apply(
                    fault_target,
                    tuple(cubes) + (f"shard:{s}",),
                    attempt,
                    metrics=chase.metrics,
                    kinds=_PARENT_KINDS,
                )
        phase_started = time.perf_counter()
        results = _supervise(chase, payloads)
        for s, result in enumerate(results):
            stats.shard_tuples.append(result["tuples"])
            chase.metrics.absorb(result["metrics"], prefix=f"chase.shard:{s}.")
            if tracer.enabled and result["spans"]:
                tracer.absorb(
                    result["spans"],
                    parent=shard_span,
                    offset=phase_started - tracer.epoch,
                )
    return results


def _supervise(
    chase: StratifiedChase, payloads: List[Dict[str, Any]]
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
    quarantined and the whole run falls back via :class:`ShardFallback`.
    """
    global _WORKER_STATE
    # the pool machinery is imported where the pool is made
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    metrics = chase.metrics
    results: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    rounds = 0
    while True:
        _WORKER_STATE = (chase, payloads, rounds)
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
                    results[s] = future.result(timeout=chase.shard_timeout_s)
                except BrokenProcessPool:
                    failed.append(s)
                except FuturesTimeout:
                    metrics.inc("chase.shard.timeouts")
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
        if rounds > chase.shard_retries:
            metrics.inc("chase.shard.quarantined", len(pending))
            raise ShardFallback("shard-retries-exhausted")
        metrics.inc("chase.shard.retries", len(pending))


def merge_outputs(relation: str, results: List[Dict[str, Any]]):
    """What the shards computed for the tgd defining ``relation``, for
    the executor to insert: the concatenated contribution bags of a
    re-reduced aggregation (a dict), or the disjoint outputs of a local
    tgd — one :class:`ColumnStore` when its keys are proven distinct,
    its facts as a list otherwise."""
    if relation in results[0]["contribs"]:
        return concatenate(
            result["contribs"].get(relation, {}) for result in results
        )
    present = [
        store
        for store in (result["stores"].get(relation) for result in results)
        if store is not None and store.n_rows
    ]
    if not present:
        return []
    # a fresh store: the shard outputs stay pristine
    merged = ColumnStore(present[0].arity)
    for other in present:
        merged.extend_from(other)
    if _dims_distinct(merged):
        merged.dims_distinct = True
        return merged
    return [fact for store in present for fact in store.rows()]


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
    return int(distinct(key).size) == n
