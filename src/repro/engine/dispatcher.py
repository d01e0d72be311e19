"""The dispatcher (Section 6), hardened for partial failure.

Assigns each translated subgraph to its target engine and executes them
one at a time, in the order determination planned them: the partition
cuts a topological order into contiguous runs, so every subgraph comes
after the subgraphs whose cubes it reads.  Data moves between engines
through the catalog's versioned store: inputs are read from it, results
written back — all cubes of a subgraph are staged first and committed
together, so a failure mid-subgraph never publishes half of it.

Fault tolerance (the paper's chase "never fails"; real target engines
do):

* **Deadlines** — ``deadline_s`` bounds each subgraph execution in
  wall-clock time; backends are checked cooperatively between tgd
  units (the chase: between waves) and overruns raise
  :class:`~repro.errors.DeadlineExceededError`.
* **Degradation** — under ``on_error="degrade"``, a subgraph whose
  native backend failed is re-translated for the reference chase
  backend, which supports every operator, and re-run there; a failed
  ``chase`` subgraph has nowhere to degrade to.
* **Partial failure** — under ``on_error="continue"`` (or ``degrade``),
  a failed subgraph does not abort the run: independent subgraphs keep
  executing, downstream dependents are marked *skipped*, and every
  planned subgraph leaves a :class:`SubgraphRecord` with its outcome so
  the run can be resumed.  Under the default ``on_error="fail"``, the
  first failure stops the dispatch: every later subgraph is recorded as
  skipped ("not reached") and the original exception propagates
  unchanged.

Each subgraph gets one attempt: nothing in a backend raises an error
that a second attempt would cure.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set, Tuple

from ..errors import DeadlineExceededError, EngineError
from ..model.cube import Cube
from ..model.io import canonical_bytes
from .faults import RunPolicy
from .history import RunRecord, SubgraphRecord
from .translation import TranslatedSubgraph

if TYPE_CHECKING:
    from .exlengine import EXLEngine

__all__ = ["Dispatcher", "RunMode"]


@dataclass(frozen=True)
class RunMode:
    """What one run does beside its plan: a full run, an update or the
    resume of run ``resumed_from``.

    A full run with ``as_of`` reads *elementary* inputs at that
    historical version (vintage replay); derived intermediates always
    come from the current run.  An update, ``delta_of`` the baseline
    run, starts from the ``dirty`` cubes: subgraphs whose inputs all
    stayed clean are skipped with outcome "clean", every other one is
    recomputed by its target's ``run_mapping``, and an output whose
    rows equal its stored version's keeps that version (no put), on
    every target alike.
    """

    as_of: Optional[int] = None
    dirty: Tuple[str, ...] = ()
    delta_of: Optional[int] = None
    resumed_from: Optional[int] = None

    @property
    def delta(self) -> bool:
        return self.delta_of is not None


def _store_matches_rows(store, cube: Cube) -> bool:
    """True when ``store``'s insertion order is exactly ``cube``'s
    ``to_rows()`` order (measures pairwise equal and spelled alike, NaN
    matching NaN by identity, so the store's facts equal the cube's rows
    as tuples).

    A columnar store's insertion order becomes the enumeration order of
    every consumer that adopts it — chase relation views, baseline CSV
    writing — so attaching a content-equal store with a *different* row
    order would make warm runs emit differently-ordered baselines than
    cold runs (CSV churn).
    """
    if store.n_rows != len(cube):
        return False
    for fact, row in zip(store.rows(), cube.to_rows()):
        if fact[:-1] != row[:-1]:
            return False
        a, b = fact[-1], row[-1]
        # the cube's text is written from its store: 0.0 and -0.0 are
        # equal and spelled differently
        if a is not b and (a != b or (a == 0 and repr(a) != repr(b))):
            return False
    return True


class Dispatcher:
    """Executes translated subgraphs against their target engines: one
    run of ``engine`` (whose catalog, journal, tracer and metrics it
    uses) under ``policy``, in ``mode``."""

    def __init__(
        self,
        engine: EXLEngine,
        policy: Optional[RunPolicy] = None,
        mode: RunMode = RunMode(),
    ):
        self.catalog = engine.catalog
        #: optional :class:`repro.engine.journal.RunJournal` — when set,
        #: every subgraph logs its dispatch before executing and its
        #: commit *after* the cubes are durably snapshotted, so a hard
        #: crash can be rolled forward by ``exl recover``
        self.journal = engine.journal
        self.tracer = engine.tracer
        self.metrics = engine.metrics
        #: ``(cubes, target) -> TranslatedSubgraph``, for degradation
        self.retranslate = engine.translator.for_target
        self.policy = RunPolicy() if policy is None else policy
        self.mode = mode
        # cube names whose *content* changed this run; seeded with the
        # dirty elementary cubes, grows as subgraphs publish changed
        # outputs
        self._dirty: Set[str] = set(mode.dirty)
        #: target tgds an update recomputed, across its subgraphs
        self.delta_fallback_tgds = 0
        # _computed_this_run feeds the as_of vintage logic; _unavailable
        # holds cubes whose producing subgraph failed or was skipped, so
        # dependents skip instead of silently reading stale versions
        self._computed_this_run: Set[str] = set()
        self._unavailable: Set[str] = set()
        # the exception of the last subgraph that failed
        self._failure: Optional[BaseException] = None

    def dispatch(
        self, translated: Sequence[TranslatedSubgraph], record: RunRecord
    ) -> None:
        """Run all subgraphs in the order given, which must be
        topological (a subgraph after every subgraph it reads from)."""
        record.on_error = self.policy.on_error
        for index, item in enumerate(translated):
            result = self._run_subgraph(item)
            record.subgraphs.append(result)
            if result.outcome == "failed" and self.policy.on_error == "fail":
                # persist outcomes for the work that never ran, so a
                # resume knows what is left, then surface the original
                # exception unchanged
                for later in translated[index + 1 :]:
                    record.subgraphs.append(
                        SubgraphRecord(
                            later.subgraph.cubes,
                            later.subgraph.target,
                            0.0,
                            0,
                            {},
                            outcome="skipped",
                            attempts=0,
                            error="not reached: an earlier subgraph failed",
                        )
                    )
                raise self._failure
        self.metrics.inc("dispatch.subgraphs", len(record.subgraphs))

    # -- execution of one subgraph ----------------------------------------------
    def _run_subgraph(self, item: TranslatedSubgraph) -> SubgraphRecord:
        """Execute one subgraph under the full failure policy."""
        cubes = item.subgraph.cubes
        blocked = [n for n in item.inputs if n in self._unavailable]
        if blocked:
            self._unavailable.update(cubes)
            self.metrics.inc("dispatch.skipped")
            return SubgraphRecord(
                cubes,
                item.subgraph.target,
                0.0,
                0,
                {},
                outcome="skipped",
                attempts=0,
                error=f"upstream cube(s) unavailable: {', '.join(blocked)}",
            )
        if self.mode.delta:
            input_dirty = any(n in self._dirty for n in item.inputs)
            if not input_dirty and all(
                self.catalog.has_data(n) for n in cubes
            ):
                # every input is content-identical to the baseline and
                # the previous outputs are in the store: replay them by
                # reference instead of re-executing anything (a version
                # deferred by ``exl update`` stays unread)
                versions = {
                    n: self.catalog.store.latest_version(n) for n in cubes
                }
                self.metrics.inc("dispatch.clean")
                clean_record = SubgraphRecord(
                    cubes,
                    item.subgraph.target,
                    0.0,
                    0,
                    versions,
                    outcome="clean",
                    attempts=0,
                )
                if self.journal is not None:
                    # a clean replay is still a commit the resume path
                    # must be able to re-admit after a crash; deferred
                    # versions need no snapshot, the baseline holds them
                    self.journal.commit_subgraph(
                        clean_record,
                        {
                            n: self.catalog.data(n)
                            for n in cubes
                            if self.catalog.store.digest(n) is None
                        },
                    )
                return clean_record

        target = item.subgraph.target
        if self.journal is not None:
            self.journal.subgraph_dispatch(cubes, target)
        start = time.perf_counter()
        attempts = 1
        error: Optional[str] = None
        outcome = "ok"
        executed_target = target
        try:
            outputs, attempt_s = self._attempt(item)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            outputs = None
            if self.policy.on_error == "degrade" and target != "chase":
                attempts += 1
                outputs, attempt_s = self._degrade(item)
                if outputs is not None:
                    outcome = "degraded"
                    executed_target = "chase"
                    self.metrics.inc("dispatch.degraded")
            if outputs is None:
                self._unavailable.update(cubes)
                self._failure = exc
                self.metrics.inc("dispatch.failed")
                return SubgraphRecord(
                    cubes,
                    target,
                    time.perf_counter() - start,
                    0,
                    {},
                    outcome="failed",
                    attempts=attempts,
                    error=error,
                    executed_target=executed_target,
                )

        wall_s = time.perf_counter() - start
        changed_map: Optional[Dict[str, bool]] = None
        if self.mode.delta:
            # classify each output against its stored version so
            # cleanliness propagates downstream, whatever the target
            changed_map = self._classify_against_store(cubes, outputs)
            self.delta_fallback_tgds += len(item.mapping.target_tgds)
        # stage every output cube first, then commit all of them: the
        # store never sees a partially-written subgraph.  In delta mode
        # an output whose content did not change keeps its stored
        # version — no put, so version history stays stable and
        # downstream subgraphs see it as clean
        staged = [(name, outputs[name]) for name in cubes]
        versions: Dict[str, int] = {}
        tuples = 0
        for name, cube in staged:
            unchanged = (
                changed_map is not None
                and not changed_map.get(name, True)
                and self.catalog.has_data(name)
            )
            if unchanged:
                versions[name] = self.catalog.store.latest_version(name)
                if self.catalog.store.digest(name) is not None:
                    # the stored version was never read: the fresh
                    # cube *is* its content, tuples and columns both
                    self.catalog.store.fulfil(cube)
                else:
                    # a clean recompute keeps the stored version;
                    # carry the fresh cube's columnar store onto it
                    # when the stored one has none, so later runs
                    # adopt instead of re-encoding — but only when
                    # the store's insertion order matches the stored
                    # cube's rows exactly: the rows are the same,
                    # yet a different row order
                    # would leak into everything that enumerates the
                    # adopted store (baseline CSVs, relation views)
                    # and make warm and cold runs diverge
                    stored = self.catalog.data(name)
                    if getattr(stored, "_colstore", None) is None:
                        fresh = getattr(cube, "_colstore", None)
                        if fresh is not None and _store_matches_rows(
                            fresh, stored
                        ):
                            stored._colstore = fresh
            else:
                versions[name] = self.catalog.store.put(cube)
                tuples += len(cube)
                if self.mode.delta:
                    self._dirty.add(name)
            self._computed_this_run.add(name)
        # duration_s is the attempt's execution time; wall_s adds the
        # failed native attempt a degraded subgraph made first
        self.metrics.observe("dispatch.subgraph.duration_s", attempt_s)
        self.metrics.observe("dispatch.subgraph.wall_s", wall_s)
        # normalization temporaries the committed slice filled; composition
        # leaves only those it cannot remove (a table function's operand)
        self.metrics.inc("engine.temporaries", len(item.mapping.temporaries))
        sub_record = SubgraphRecord(
            cubes,
            target,
            wall_s,
            tuples,
            versions,
            outcome=outcome,
            attempts=attempts,
            error=error,
            executed_target=executed_target,
            observed_s=attempt_s,
        )
        if self.journal is not None:
            # the record carries the stored cubes' canonical bytes, the
            # bytes the run's epilogue finds on them; recovery trusts
            # them by digest
            self.journal.commit_subgraph(
                sub_record, {name: self.catalog.data(name) for name in cubes}
            )
        return sub_record

    def _classify_against_store(
        self, cubes: Tuple[str, ...], outputs: Dict[str, Cube]
    ) -> Dict[str, bool]:
        """Changed flags for a subgraph's outputs, against the latest
        stored version: by digest of the canonical bytes when that
        version is deferred (equal bytes mean equal cubes; ``-0.0``
        against ``0.0`` errs toward "changed"), else by
        :meth:`~repro.model.cube.Cube.same_rows` (NaN-consistent, so a
        bit-identical recompute registers as clean)."""
        changed: Dict[str, bool] = {}
        for name in cubes:
            if not self.catalog.has_data(name):
                changed[name] = True
                continue
            digest = self.catalog.store.digest(name)
            if digest is not None:
                changed[name] = canonical_bytes(outputs[name])[1] != digest
                continue
            changed[name] = not self.catalog.data(name).same_rows(outputs[name])
        return changed

    # -- one attempt, and degradation ---------------------------------------
    def _attempt(self, item: TranslatedSubgraph) -> Tuple[Dict[str, Cube], float]:
        """Run one translated subgraph once, under the policy's
        deadline and fault plan.

        Returns ``(outputs, attempt_s)``, ``attempt_s`` timing the
        attempt's execution alone; raises whatever the backend (or the
        deadline check, or the fault plan) raised.
        """
        target = item.subgraph.target
        cubes = item.subgraph.cubes
        label = f"{target}:{'+'.join(cubes)}"
        check = None
        if self.policy.deadline_s is not None:
            deadline_s = self.policy.deadline_s
            deadline = time.monotonic() + deadline_s

            def check():
                if time.monotonic() >= deadline:
                    raise DeadlineExceededError(
                        f"subgraph {label} exceeded its {deadline_s:g}s "
                        f"deadline mid-execution"
                    )

        started = time.perf_counter()
        inputs = self._gather_inputs(item)
        plan = self.policy.fault_plan
        with self.tracer.span(
            f"subgraph:{label}", category="dispatch", target=target
        ):
            if plan is not None:
                plan.apply(target, cubes, metrics=self.metrics)
            # a backend that shards whole-mapping runs draws per-shard
            # fault decisions from the same plan while this subgraph is
            # in flight (see ChaseBackend.fault_scope)
            scope = getattr(item.backend, "fault_scope", None)
            if plan is not None and scope is not None:
                context = scope(plan, target, cubes)
            else:
                context = nullcontext()
            with context:
                # the translation compiled item.mapping once: its units
                # ride along instead of being compiled again
                outputs = item.backend.run_mapping(
                    item.mapping, inputs, wanted=list(cubes), check=check,
                    units=item.units,
                )
        return outputs, time.perf_counter() - started

    def _degrade(
        self, item: TranslatedSubgraph
    ) -> Tuple[Optional[Dict[str, Cube]], float]:
        """Re-translate and re-run on the chase.

        Returns ``(outputs, attempt_s)``; ``outputs`` is None when the
        chase failed too.
        """
        try:
            return self._attempt(self.retranslate(item.subgraph.cubes, "chase"))
        except Exception:
            return None, 0.0

    def _gather_inputs(self, item: TranslatedSubgraph) -> Dict[str, Cube]:
        inputs: Dict[str, Cube] = {}
        for name in item.inputs:
            if not self.catalog.has_data(name):
                raise EngineError(
                    f"subgraph for {item.subgraph.cubes} needs cube {name!r}, "
                    f"which has no stored data"
                )
            version = None
            if (
                self.mode.as_of is not None
                and name not in self._computed_this_run
            ):
                version = self.mode.as_of
            inputs[name] = self.catalog.data(name, version)
        return inputs
