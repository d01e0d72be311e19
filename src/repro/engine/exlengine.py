"""EXLEngine: the metadata-driven facade (Section 6, Figure 2).

Usage::

    engine = EXLEngine()
    engine.declare_elementary(pdr_schema)
    engine.declare_elementary(rgdppc_schema)
    engine.add_program(GDP_PROGRAM)          # declares the derived cubes
    engine.load(pdr_cube)
    engine.load(rgdppc_cube)
    record = engine.run()                    # determination -> translation -> dispatch
    pchng = engine.data("PCHNG")

Subsequent ``engine.load`` of new elementary data followed by
``engine.run()`` recomputes only the affected part of the DAG.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..backends import LazyBackends
from ..backends.base import Backend
from ..backends.chasebackend import ChaseBackend
from ..errors import EngineError
from ..exl.operators import OperatorRegistry, default_registry
from ..model.catalog import MetadataCatalog
from ..model.cube import Cube, CubeSchema
from ..obs import NULL_TRACER, MetricsRegistry
from .determination import DEFAULT_TARGET_PRIORITY, DependencyGraph, Subgraph
from .dispatcher import Dispatcher, RunMode
from .faults import FaultPlan, RunPolicy
from .history import RunLog, RunRecord
from .translation import TranslationEngine

# loaded by the engines that use it: ``adaptive``
if TYPE_CHECKING:
    from .costmodel import CostModel

__all__ = ["EXLEngine"]


class EXLEngine:
    """The engineered system: catalog + determination + translation +
    dispatch + historicity."""

    def __init__(
        self,
        registry: Optional[OperatorRegistry] = None,
        backends: Optional[Mapping[str, Backend]] = None,
        target_priority: Sequence[str] = DEFAULT_TARGET_PRIORITY,
        shards: int = 1,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        journal=None,
        adaptive: bool = False,
        cost_model: Optional[CostModel] = None,
    ):
        self.registry = registry or default_registry()
        #: target name -> backend; the default builds each target the
        #: first time the partition selects it
        self.backends = backends or LazyBackends()
        self.target_priority = tuple(target_priority)
        #: optional :class:`repro.engine.journal.RunJournal`; when set,
        #: every dispatch write-ahead-logs its plan and commits so
        #: ``RunDirectory.recover`` can roll a hard crash forward (the CLI wires
        #: this for every ``exl run``/``update``/``resume``)
        self.journal = journal
        if shards < 0:
            raise EngineError(
                f"shards must be 0 (one per core) or more, got {shards!r}"
            )
        #: worker processes for sharded chase runs (0 = one per core,
        #: 1 = sharding off); see repro.chase.shard
        self.shards = int(shards)
        #: span sink shared by the engine, dispatcher, and chase layers
        #: (the no-op tracer unless the caller wants a trace)
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: accumulating counters/histograms across this engine's runs
        self.metrics = MetricsRegistry() if metrics is None else metrics
        #: cost-model-driven per-subgraph target choice, for every run
        #: of this engine; the model itself always learns from every
        #: dispatch once present (an in-memory one is created when
        #: adaptive is requested without an explicit model).  A model
        #: built with a ``path`` loads its persisted history here — a damaged file is a
        #: counted cold start, never an error — and is re-saved after
        #: every dispatch.
        self.adaptive = bool(adaptive)
        if cost_model is None and self.adaptive:
            from .costmodel import CostModel

            cost_model = CostModel()
        if cost_model is not None:
            if cost_model.metrics is None:
                cost_model.metrics = self.metrics
            cost_model.load()
        self.cost_model = cost_model
        chase_backend = self.backends.get("chase")
        if isinstance(chase_backend, ChaseBackend):
            chase_backend.shards = self.shards
            chase_backend.tracer = self.tracer
            chase_backend.metrics = self.metrics
        self.catalog = MetadataCatalog()
        self.runs = RunLog()
        #: the OLAP query service; None until enable_olap() is called
        self.olap = None
        self._graph: Optional[DependencyGraph] = None
        self._translator: Optional[TranslationEngine] = None
        self._loaded_since_last_run: List[str] = []

    # -- metadata definition ------------------------------------------------
    def declare_elementary(
        self, schema: CubeSchema, preferred_target: Optional[str] = None
    ) -> None:
        """Register an elementary cube (base data fed from outside)."""
        self.catalog.declare_elementary(schema, preferred_target)
        self._invalidate()

    def add_program(
        self,
        source: str,
        preferred_targets: Optional[Dict[str, str]] = None,
    ) -> List[str]:
        """Register an EXL program: each statement declares a derived cube.

        The program is validated against the current catalog; inferred
        schemas are recorded.  ``preferred_targets`` optionally pins
        specific cubes to specific target systems (technical metadata).

        Returns the names of the derived cubes added.
        """
        from ..exl.program import Program

        program = Program.compile(
            source, self.catalog.as_schema(), self.registry
        )
        added = self.catalog.declare_program(program, preferred_targets)
        self._invalidate()
        return added

    # -- data ----------------------------------------------------------------
    def load(self, cube: Cube) -> int:
        """Feed elementary data; marks the cube changed for the next run."""
        if not self.catalog.is_elementary(cube.schema.name):
            raise EngineError(
                f"only elementary cubes can be loaded, {cube.schema.name} is "
                f"derived"
            )
        version = self.catalog.load(cube)
        self._loaded_since_last_run.append(cube.schema.name)
        return version

    def data(self, name: str, version: Optional[int] = None) -> Cube:
        """Read a cube (latest or a historical version)."""
        return self.catalog.data(name, version)

    # -- OLAP --------------------------------------------------------------
    def enable_olap(
        self,
        cubes: Optional[Iterable[str]] = None,
        aggregate="sum",
    ):
        """Turn on the OLAP query layer (:mod:`repro.olap`).

        Nothing is built here, and runs do not touch the OLAP layer:
        the first query on a cube binds a roll-up lattice to its head
        version, and each lattice node group-reduces when a query first
        reads it, so repeated slice/dice/roll-up queries — and ``as_of``
        queries pinned at any past run — answer from memory.  A query
        that finds its cube moved on since (a run or ``update``
        committed a new version) rebinds the lattice to the new head,
        and the nodes it reads reduce again from the new rows.

        Args:
            cubes: restrict the queryable set (default: every cube
                with data).
            aggregate: measure aggregate for the lattices — a name
                from the aggregate registry, or a callable (which a
                lattice sidecar cannot name).
        """
        from ..olap import OlapService

        self.olap = OlapService(
            self.catalog,
            runs=self.runs,
            aggregate=aggregate,
            metrics=self.metrics,
            cubes=cubes,
        )
        return self.olap

    # -- lazy internals -----------------------------------------------------------
    def _invalidate(self) -> None:
        self._graph = None
        self._translator = None

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = DependencyGraph(self.catalog, self.registry)
        return self._graph

    @property
    def translator(self) -> TranslationEngine:
        if self._translator is None:
            self._translator = TranslationEngine(
                self.catalog, self.graph, self.registry, self.backends
            )
        return self._translator

    # -- running ---------------------------------------------------------------------
    def run(
        self,
        changed: Optional[Iterable[str]] = None,
        as_of: Optional[int] = None,
        deadline_s: Optional[float] = None,
        on_error: str = "fail",
        fault_plan: Optional[FaultPlan] = None,
    ) -> RunRecord:
        """One determination → translation → dispatch cycle.

        Args:
            changed: elementary cubes whose data changed; defaults to
                everything loaded since the previous run (or all
                elementary cubes with data on the first run).
            as_of: replay a *vintage*: elementary inputs are read at
                this historical version (derived intermediates are
                recomputed, not read historically).  Results are stored
                as new versions, so the replay itself is versioned.
            deadline_s / on_error / fault_plan: this run's
                failure policy (see
                :class:`~repro.engine.faults.RunPolicy`).  Under
                ``on_error="continue"`` or ``"degrade"`` the run
                finishes even when subgraphs fail; the returned record
                then carries a partial-failure ``error`` and per-
                subgraph outcomes, and :meth:`resume` can finish it.

        Under ``adaptive`` each subgraph record carries the target
        decision (``chosen_target``, ``predicted_s``, ``observed_s``).
        """
        policy = RunPolicy(deadline_s, on_error, fault_plan)
        return self._run(changed, policy, RunMode(as_of=as_of))

    def _run(
        self, changed: Optional[Iterable[str]], policy: RunPolicy, mode: RunMode
    ) -> RunRecord:
        if changed is None:
            changed = self._loaded_since_last_run or [
                n for n in self.catalog.elementary_names if self.catalog.has_data(n)
            ]
        changed = list(dict.fromkeys(changed))
        if not changed:
            raise EngineError("nothing to run: no elementary data has changed")
        record = self._execute(changed, lambda: self.plan(changed), policy, mode)
        self._loaded_since_last_run = []
        return record

    def update(
        self,
        changed: Optional[Iterable[str]] = None,
        against: Optional[int] = None,
        deadline_s: Optional[float] = None,
        on_error: str = "fail",
        fault_plan: Optional[FaultPlan] = None,
    ) -> RunRecord:
        """Incremental run: recompute only what changed since a baseline.

        Picks a baseline run (``against``, or the most recent run that
        finished without failing), determines which elementary cubes are *dirty* — their
        stored version moved past the baseline's **and** their rows
        actually differ (:meth:`~repro.model.cube.Cube.same_rows`; a
        reload of identical data stays clean) — and dispatches only the
        affected subgraphs: each is recomputed by its target's
        ``run_mapping``, as in a full run, and an output whose rows
        equal its stored version's keeps that version, so subgraphs
        whose inputs all stayed clean are skipped with outcome
        ``clean``.  The final store state is tuple-for-tuple identical
        to a full :meth:`run` on the same data.

        Args:
            changed: elementary cubes to treat as dirty, bypassing the
                version/content check (an actually-unchanged name is
                harmless: its consumers recompute their stored rows and
                everything further downstream comes out clean).  A
                derived name means its stored content cannot be used
                (``exl update`` found its baseline file damaged): it is
                recomputed along with everything downstream.  Defaults
                to auto-detection against the baseline.
            against: run id of the baseline; defaults to the last
                run that finished without failing (a failed or partial
                run left consumers of its inputs stale).  Without any
                usable baseline, update() degrades to a full :meth:`run`.
        """
        policy = RunPolicy(deadline_s, on_error, fault_plan)
        if against is not None:
            baseline = self.runs.get(against)
            if baseline is None:
                raise EngineError(f"unknown run id {against}")
            if not baseline.baseline_versions:
                raise EngineError(
                    f"run {against} recorded no baseline versions to "
                    f"update against"
                )
        else:
            # a run that failed, wholly or partly, pinned inputs whose
            # consumers it never recomputed: it is no baseline
            succeeded = [
                r for r in self.runs.runs
                if r.finished and not r.failed and r.baseline_versions
            ]
            if not succeeded:
                return self._run(changed, policy, RunMode())
            baseline = succeeded[-1]
        if changed is not None:
            dirty = list(dict.fromkeys(changed))
        else:
            dirty = []
            for name in self.catalog.elementary_names:
                if not self.catalog.has_data(name):
                    continue
                base_version = baseline.baseline_versions.get(name)
                if base_version == self.catalog.store.latest_version(name):
                    continue
                if base_version is not None:
                    previous = self.catalog.data(name, base_version)
                    if previous.same_rows(self.catalog.data(name)):
                        continue
                dirty.append(name)

        def plan() -> List[Subgraph]:
            affected = self.graph.affected_by(dirty) if dirty else []
            stale = [n for n in dirty if self.catalog.is_derived(n)]
            if stale:
                affected = self.graph.topological_order(set(affected) | set(stale))
            return self.graph.partition(affected, self.target_priority)

        record = self._execute(
            dirty, plan, policy, RunMode(dirty=tuple(dirty), delta_of=baseline.run_id)
        )
        self._loaded_since_last_run = []
        return record

    def resume(
        self,
        run_id: Optional[int] = None,
        deadline_s: Optional[float] = None,
        on_error: str = "fail",
        fault_plan: Optional[FaultPlan] = None,
    ) -> RunRecord:
        """Finish a partially-failed run: re-dispatch only its
        failed/skipped subgraphs.

        Cubes the original run committed are *not* recomputed — the
        resumed subgraphs read them straight from the versioned store.
        Defaults to the most recent resumable run; the failure policy is
        this call's — the original run's ``fault_plan`` is not inherited
        (resume exists to recover from faults), pass one to keep
        injecting.

        Returns the new run's record (``resumed_from`` links back).
        """
        policy = RunPolicy(deadline_s, on_error, fault_plan)
        if run_id is None:
            resumable = self.runs.failed()
            if not resumable:
                raise EngineError("no failed or partial runs to resume")
            source = resumable[-1]
        else:
            source = self.runs.get(run_id)
            if source is None:
                raise EngineError(f"unknown run id {run_id}")
        todo = [Subgraph(s.cubes, s.target) for s in source.unfinished_subgraphs()]
        if not todo:
            raise EngineError(f"run {source.run_id} left nothing to resume")
        return self._execute(
            (f"resume:{source.run_id}",),
            lambda: todo,
            policy,
            RunMode(resumed_from=source.run_id),
        )

    def _execute(
        self,
        trigger: Sequence[str],
        plan: Callable[[], List[Subgraph]],
        policy: RunPolicy,
        mode: RunMode,
    ) -> RunRecord:
        """Determination → translation → dispatch → bookkeeping, the one
        path of run, update and resume, which differ in the ``trigger``
        they record, the ``plan`` that picks their subgraphs (timed as
        the determination) and their ``mode``."""
        if mode.resumed_from is not None:
            kind, notes = "resume", {"source_run": mode.resumed_from}
        elif mode.delta:
            notes = {"trigger": list(trigger), "baseline": mode.delta_of}
            kind = "update"
        else:
            kind, notes = "run", {"trigger": list(trigger)}
        with self.tracer.span(kind, category="engine", **notes) as run_span:
            t0 = time.perf_counter()
            with self.tracer.span("determination", category="engine"):
                subgraphs = plan()
            determination_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            with self.tracer.span("translation", category="engine"):
                translated = self.translator.translate_all(subgraphs)
            translation_s = time.perf_counter() - t1
            # opened at t0, so the record's duration covers determination
            # and translation too
            record = self.runs.open(
                trigger,
                [cube for s in subgraphs for cube in s.cubes],
                started_at=t0,
            )
            record.delta_of = mode.delta_of
            record.resumed_from = mode.resumed_from
            record.adaptive = self.adaptive
            record.determination_s = determination_s
            record.translation_s = translation_s
            run_span.note(run_id=record.run_id)
            self.metrics.inc(f"engine.{kind}s")
            self.metrics.observe("engine.determination_s", determination_s)
            self.metrics.observe("engine.translation_s", translation_s)
            chase_backend = self.backends.get("chase")
            count_shards = isinstance(chase_backend, ChaseBackend)
            if count_shards:
                chase_backend.reset_counts()
            dispatcher = Dispatcher(self, policy, mode)
            if self.journal is not None:
                # write-ahead: the full plan is durable before any
                # subgraph runs, so recovery knows exactly what a crash
                # interrupted
                self.journal.run_start(record, translated)
            t2 = time.perf_counter()
            try:
                with self.tracer.span("dispatch", category="engine"):
                    dispatcher.dispatch(translated, record)
            except Exception as exc:
                # close the record in its failure state so duration and
                # history stay meaningful, then let the error propagate
                record.error = f"{type(exc).__name__}: {exc}"
                self.metrics.inc("engine.runs.failed")
                self._close(record)
                raise
            self.metrics.observe("engine.dispatch_s", time.perf_counter() - t2)
            if mode.delta:
                record.delta_fallback_tgds = dispatcher.delta_fallback_tgds
            if count_shards and chase_backend.shard_runs:
                record.shard_tuples = list(chase_backend.shard_tuples)
                record.shards = len(record.shard_tuples)
                record.shard_merge_s = chase_backend.shard_merge_s
            if any(not s.committed for s in record.subgraphs):
                counts = record.outcomes()
                record.error = (
                    f"partial failure: {counts.get('failed', 0)} subgraph(s) "
                    f"failed, {counts.get('skipped', 0)} skipped"
                )
                self.metrics.inc("engine.runs.partial")
            self._close(record)
        return record

    def _close(self, record: RunRecord) -> None:
        """Pin the store versions the run left behind, so a later
        ``update`` can diff current data against them, close the record,
        and tell the cost model and the journal."""
        store = self.catalog.store
        record.baseline_versions = {
            name: store.latest_version(name)
            for name in store.names()
            if self.catalog.has_data(name)
        }
        self.runs.close(record)
        if self.cost_model is not None:
            # whatever a failed run managed to measure is still signal
            self.cost_model.save()
        if self.journal is not None:
            self.journal.run_end(record.run_id, record.error)
    # -- inspection ---------------------------------------------------------------
    def plan(self, changed: Optional[Iterable[str]] = None) -> List[Subgraph]:
        """The subgraphs a run would dispatch, without executing them."""
        if changed is None:
            changed = [
                n for n in self.catalog.elementary_names if self.catalog.has_data(n)
            ]
        affected = self.graph.affected_by(changed)
        return self.graph.partition(affected, self.target_priority)

    def scripts(self, changed: Optional[Iterable[str]] = None) -> Dict[str, str]:
        """Generated target scripts per subgraph (keyed by 'target:cubes')."""
        out = {}
        for subgraph in self.plan(changed):
            translated = self.translator.translate(subgraph)
            key = f"{subgraph.target}:{'+'.join(subgraph.cubes)}"
            out[key] = translated.script
        return out
