"""The chase as a backend.

Wrapping the stratified chase in the :class:`Backend` interface lets
equivalence tests and benchmarks treat the reference executor uniformly
with the translated targets — the paper's claim is precisely that every
translation computes the same solution the chase does.  Its arguments
say how many threads and shard workers run the chase; none chooses its
kernels, its storage or its snapshotting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..chase.engine import DeltaRunResult, DeltaStats, StratifiedChase
from ..chase.instance import RelationalInstance, store_for_cube
from ..errors import BackendError
from ..mappings.dependencies import Tgd
from ..mappings.mapping import SchemaMapping
from ..model.cube import Cube
from .base import Backend, CompiledTgd

# chase.delta loads for the first incremental replay, chase.scheduler
# for a chase with waves: a one-shot ``exl run`` / ``update`` has
# neither (DESIGN.md, "Start-up and the import graph")
if TYPE_CHECKING:
    from ..chase.delta import DeltaSnapshot

__all__ = ["ChaseBackend"]


class ChaseBackend(Backend):
    """Reference executor: every mapping run is one
    :class:`StratifiedChase` run.

    ``jobs > 1`` runs its waves on that many threads, ``shards`` on
    forked workers.  Every whole-mapping run keeps what a
    :class:`DeltaSnapshot` of it is made of — references only, no
    copies, and no snapshot object until :meth:`run_mapping_delta`
    asks for one — so ``EXLEngine.update`` gets tuple-level deltas.
    ``compile_tgd`` gives each tgd's text for ``exl compile --target
    chase``; its runner is never called.
    """

    name = "chase"

    def __init__(
        self,
        jobs: int = 1,
        tracer=None,
        metrics=None,
        shards: int = 1,
    ):
        #: worker threads for chase waves (1 = statement order)
        self.jobs = jobs
        #: worker-process count for whole-mapping runs (0 = one per
        #: core, 1 = no sharding); see chase.shard
        self.shards = shards
        #: observability sinks threaded into every chase this backend
        #: constructs (``None`` = untraced / per-chase registry)
        self.tracer = tracer
        self.metrics = metrics
        self._kernel_lock = threading.Lock()
        self.reset_counts()
        # the dispatcher's fault plan for the in-flight attempt, scoped
        # per dispatcher thread so shard workers can honor `--inject-faults`
        self._fault_ctx = threading.local()
        # snapshots — or the constructor arguments of one not yet asked
        # for — keyed by mapping identity: sound because the
        # translation engine caches TranslatedSubgraph per (cubes,
        # target), so the same subgraph reuses one mapping object (and
        # the entry keeps the mapping alive, pinning its id)
        self._snapshots: Dict[int, object] = {}
        self._snap_lock = threading.Lock()

    def reset_counts(self) -> None:
        """Zero the counters the engine copies into each run's record."""
        with self._kernel_lock:
            # kernel decisions aggregated across every chase this backend
            # runs; the dispatcher may execute subgraphs concurrently
            self.vectorized_tgds = 0
            self.fallback_tgds = 0
            # sharded-run accounting, accumulated like the kernel counters
            self.shard_runs = 0
            self.shard_tuples: List[int] = []
            self.shard_merge_s = 0.0

    def _on_kernel(self, used: bool, reason: Optional[str] = None) -> None:
        with self._kernel_lock:
            if used:
                self.vectorized_tgds += 1
            else:
                self.fallback_tgds += 1

    # -- fault-injection plumbing ---------------------------------------------
    @contextmanager
    def fault_scope(self, plan, target: str, cubes, attempt: int):
        """Expose the dispatcher's fault plan to sharded chase runs.

        The dispatcher wraps each backend attempt in this scope; a
        sharded run then draws one deterministic fault decision per
        shard (cube label ``shard:<i>`` appended, so shards fail
        independently but reproducibly).
        """
        self._fault_ctx.value = (plan, target, tuple(cubes), attempt)
        try:
            yield
        finally:
            self._fault_ctx.value = None

    def run_mapping(
        self,
        mapping: SchemaMapping,
        inputs: Dict[str, Cube],
        wanted: Optional[Iterable[str]] = None,
        check: Optional[Callable[[], None]] = None,
        units: Optional[List[CompiledTgd]] = None,
    ) -> Dict[str, Cube]:
        """One :class:`StratifiedChase` run over ``inputs``; ``check``
        is called before each of its waves, ``units`` is unused."""
        source = RelationalInstance()
        for tgd in mapping.st_tgds:
            name = tgd.lhs[0].relation
            if name not in inputs:
                raise BackendError(f"missing input cube {name!r}")
            source.ensure(name)
            # adopt the cube's cached columnar store when it has one
            # (warm runs: zero re-encode of unchanged inputs)
            store = store_for_cube(inputs[name])
            if store is not None and source.adopt(name, store) is not None:
                continue
            source.add_all(name, inputs[name].to_rows())
        chase = StratifiedChase(
            mapping,
            jobs=self.jobs if self.jobs > 1 else None,
            shards=self.shards,
            kernel_hook=self._on_kernel,
            tracer=self.tracer,
            metrics=self.metrics,
            fault_context=getattr(self._fault_ctx, "value", None),
        )
        result = chase.run(source, check=check)
        if result.stats.shards:
            with self._kernel_lock:
                self.shard_runs += 1
                self.shard_merge_s += result.stats.shard_merge_s
                for i, count in enumerate(result.stats.shard_tuples):
                    if i >= len(self.shard_tuples):
                        self.shard_tuples.append(0)
                    self.shard_tuples[i] += count
        if wanted is None:
            wanted = mapping.outputs
        outputs: Dict[str, Cube] = {}
        for name in wanted:
            schema = mapping.target[name]
            store = result.instance.export_store(name)
            cube = None
            if store is not None:
                # validated per distinct value, not per cell
                cube = Cube.from_columns(
                    schema, store.dicts, store.codes, store.measures,
                    keys_distinct=store.dims_distinct,
                )
            if cube is None:
                cube = Cube.from_rows(schema, result.instance.facts(name))
            if store is not None and store.n_rows == len(cube):
                # every row was accepted, so the dimension tuples are
                # distinct; carry the encoded columns on the cube for
                # the next run to adopt
                store.dims_distinct = True
                cube._colstore = store
            outputs[name] = cube
        with self._snap_lock:
            self._snapshots[id(mapping)] = (
                mapping, result.instance, result.functional,
                {**dict(inputs), **outputs},
            )
        return outputs

    # -- incremental execution ------------------------------------------------
    def run_mapping_delta(
        self,
        mapping: SchemaMapping,
        inputs: Dict[str, Cube],
        wanted: Optional[Iterable[str]] = None,
        check: Optional[Callable[[], None]] = None,
        units: Optional[List[CompiledTgd]] = None,
    ) -> DeltaRunResult:
        """Re-run a mapping incrementally against its previous snapshot.

        Diffs the new input cubes against the snapshot's baselines,
        propagates the deltas through :class:`DeltaChase`, and returns
        the full output cubes (previous versions patched in place)
        together with per-cube changed flags.  Without a snapshot — or
        when the mapping has no incremental semantics — this degrades
        to a full :meth:`run_mapping`, counted as ``delta.fallback``.

        A failed update poisons the snapshot (it may be half-spliced),
        so it is dropped before the error propagates; the retrying
        caller then lands on the full-run path, which re-captures it.
        """
        snapshot = self._snapshot_for(mapping)
        if snapshot is None:
            return self._full_run_delta(
                mapping, inputs, wanted, check, units, reason="no-snapshot"
            )
        from ..chase.delta import DeltaChase, DeltaUnsupported, input_deltas_for

        if check is not None:
            check()
        with snapshot.lock:
            try:
                input_deltas = input_deltas_for(mapping, snapshot, inputs)
                chase = snapshot.chaser
                if chase is None:
                    chase = DeltaChase(
                        snapshot, tracer=self.tracer, metrics=self.metrics
                    )
                    snapshot.chaser = chase
                result = chase.update(input_deltas)
            except DeltaUnsupported as unsupported:
                with self._snap_lock:
                    self._snapshots.pop(id(mapping), None)
                return self._full_run_delta(
                    mapping, inputs, wanted, check, units, reason=str(unsupported)
                )
            except Exception:
                with self._snap_lock:
                    self._snapshots.pop(id(mapping), None)
                raise
            for tgd in mapping.st_tgds:
                name = tgd.lhs[0].relation
                snapshot.cubes[name] = inputs[name]
            if wanted is None:
                wanted = mapping.outputs
            cubes: Dict[str, Cube] = {}
            changed: Dict[str, bool] = {}
            for name in wanted:
                delta = result.deltas.get(name)
                previous = snapshot.cubes.get(name)
                if delta is None or delta.is_empty:
                    if previous is None:
                        previous = Cube.from_rows(
                            mapping.target[name], snapshot.instance.facts(name)
                        )
                        snapshot.cubes[name] = previous
                    cubes[name] = previous
                    changed[name] = False
                    continue
                if previous is None:
                    cube = Cube.from_rows(
                        mapping.target[name], snapshot.instance.facts(name)
                    )
                else:
                    cube = previous.patched(delta)
                snapshot.cubes[name] = cube
                cubes[name] = cube
                changed[name] = True
        return DeltaRunResult(cubes, changed, result.stats)

    def drop_snapshots(self) -> None:
        """Forget every snapshot: their mappings are retired (a new
        translator builds new mapping objects, which no entry is keyed by)."""
        with self._snap_lock:
            self._snapshots.clear()

    def _snapshot_for(self, mapping: SchemaMapping) -> Optional[DeltaSnapshot]:
        with self._snap_lock:
            held = self._snapshots.get(id(mapping))
            if isinstance(held, tuple):
                from ..chase.delta import DeltaSnapshot

                held = self._snapshots[id(mapping)] = DeltaSnapshot(*held)
            return held

    def _full_run_delta(
        self,
        mapping: SchemaMapping,
        inputs: Dict[str, Cube],
        wanted: Optional[Iterable[str]],
        check: Optional[Callable[[], None]],
        units: Optional[List[CompiledTgd]],
        reason: str,
    ) -> DeltaRunResult:
        """Full run in delta clothing: every stratum counts as a
        fallback and every output is reported changed (the dispatcher
        refines that by diffing against the stored versions)."""
        cubes = self.run_mapping(mapping, inputs, wanted, check=check, units=units)
        stats = DeltaStats()
        stats.note_fallback(reason, count=len(mapping.target_tgds))
        if self.metrics is not None:
            self.metrics.inc("delta.fallback", len(mapping.target_tgds))
            self.metrics.inc(
                f"delta.fallback.reason:{reason}", len(mapping.target_tgds)
            )
        return DeltaRunResult(cubes, {name: True for name in cubes}, stats)

    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        return CompiledTgd(tgd.label, str(tgd), None)
