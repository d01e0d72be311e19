"""The dispatcher (Section 6), hardened for partial failure.

Assigns each translated subgraph to its target engine and executes them
in dependency order.  Subgraphs with no mutual dependencies form a
*wave* and can run concurrently (the paper's "parallelization and
optimization patterns"); ``jobs > 1`` executes every wave on one
shared pool of that many threads.  Data moves between engines through the catalog's
versioned store: inputs are read from it, results written back — all
cubes of a subgraph are staged first and committed atomically under the
dispatcher lock, so a crash mid-subgraph never publishes half of it.

Fault tolerance (the paper's chase "never fails"; real target engines
do):

* **Retries** — :class:`~repro.errors.TransientBackendError` is retried
  up to ``retries`` times with exponential backoff and deterministic
  jitter; every other exception is treated as permanent.
* **Deadlines** — ``deadline_s`` bounds each subgraph execution
  (including its retries) in wall-clock time; backends are checked
  cooperatively between tgd units (the chase: between waves) and
  overruns raise
  :class:`~repro.errors.DeadlineExceededError`.
* **Degradation** — under ``on_error="degrade"``, a subgraph whose
  native backend failed permanently is re-translated for the reference
  chase backend, which supports every operator, and re-run there; a
  failed ``chase`` subgraph has nowhere to degrade to.
* **Partial failure** — under ``on_error="continue"`` (or ``degrade``),
  a failed subgraph does not abort the run: independent subgraphs in
  the same and later waves keep executing, downstream dependents are
  marked *skipped*, and every planned subgraph leaves a
  :class:`SubgraphRecord` with its outcome so the run can be resumed.
  Under the default ``on_error="fail"``, the original exception
  propagates unchanged once the current wave has drained.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    DeadlineExceededError,
    EngineError,
    TransientBackendError,
)
from ..model.cube import Cube
from ..model.io import canonical_bytes
from .faults import RunPolicy, _stable_unit
from .history import RunRecord, SubgraphRecord
from .translation import TranslatedSubgraph

if TYPE_CHECKING:
    from .exlengine import EXLEngine

__all__ = ["Dispatcher", "RunMode"]

#: each retry's backoff is this many times the previous one's
BACKOFF_FACTOR = 2.0

# stateless, so one shared instance serves every dispatcher thread
_NULL_SCOPE = nullcontext()


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
    run of ``engine`` (whose catalog, graph, pool size, journal, tracer,
    metrics and cost model it uses) under ``policy``, in ``mode``."""

    def __init__(
        self,
        engine: EXLEngine,
        policy: Optional[RunPolicy] = None,
        mode: RunMode = RunMode(),
    ):
        self.catalog = engine.catalog
        self.graph = engine.graph
        #: optional :class:`repro.engine.journal.RunJournal` — when set,
        #: every subgraph logs its dispatch before executing and its
        #: commit *after* the cubes are durably snapshotted, so a hard
        #: crash can be rolled forward by ``exl recover``
        self.journal = engine.journal
        #: worker threads for waves of several subgraphs (1 = in order)
        self.jobs = engine.jobs
        self.tracer = engine.tracer
        self.metrics = engine.metrics
        #: ``(cubes, target) -> TranslatedSubgraph``, for degradation and
        #: adaptive re-targeting
        self.retranslate = engine.translator.for_target
        #: learned per-(target, signature) execution costs.  When set,
        #: every successful subgraph feeds its clean attempt time back —
        #: static runs train the model too; only ``adaptive`` lets it
        #: *choose* the target (the engine builds a model for it)
        self.cost_model = engine.cost_model
        self.adaptive = engine.adaptive
        self.policy = RunPolicy() if policy is None else policy
        self.mode = mode
        # cube names whose *content* changed this run; seeded with the
        # dirty elementary cubes, grows as subgraphs publish changed
        # outputs.  Guarded by the dispatcher lock.
        self._dirty: Set[str] = set(mode.dirty)
        #: target tgds an update recomputed, across its subgraphs
        self.delta_fallback_tgds = 0
        # -- shared mutable state; every access goes through the lock.
        # _computed_this_run feeds the as_of vintage logic; _unavailable
        # holds cubes whose producing subgraph failed or was skipped, so
        # dependents skip instead of silently reading stale versions.
        self._lock = threading.Lock()
        self._computed_this_run: Set[str] = set()
        self._unavailable: Set[str] = set()
        self._errors: Dict[Tuple[str, ...], BaseException] = {}

    def dispatch(
        self, translated: Sequence[TranslatedSubgraph], record: RunRecord
    ) -> None:
        """Run all subgraphs, respecting inter-subgraph dependencies."""
        waves = self.waves(translated)
        record.waves = len(waves)
        record.max_wave_width = max((len(w) for w in waves), default=0)
        record.on_error = self.policy.on_error
        # one pool for the whole dispatch, not one per wave
        pool = None
        if self.jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=self.jobs)
        try:
            for index, wave in enumerate(waves):
                started = time.perf_counter()
                with self.tracer.span(
                    f"dispatch:wave:{index + 1}", category="dispatch",
                    width=len(wave),
                ) as wave_span:
                    if pool is not None and len(wave) > 1:
                        results = list(
                            pool.map(
                                lambda t: self._run_subgraph(t, wave_span),
                                wave,
                            )
                        )
                    else:
                        results = [self._run_subgraph(t, wave_span) for t in wave]
                self.metrics.observe("dispatch.wave.width", len(wave))
                self.metrics.observe(
                    "dispatch.wave.duration_s", time.perf_counter() - started
                )
                record.subgraphs.extend(results)
                if self.policy.on_error == "fail":
                    failed = next(
                        (r for r in results if r.outcome == "failed"), None
                    )
                    if failed is not None:
                        # persist outcomes for the work that never ran,
                        # so a resume knows what is left, then surface
                        # the original exception unchanged
                        self._record_unreached(waves[index + 1 :], record)
                        raise self._errors.get(
                            failed.cubes,
                            EngineError(
                                f"subgraph {failed.cubes} failed: {failed.error}"
                            ),
                        )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        self.metrics.inc("dispatch.subgraphs", len(record.subgraphs))

    def _record_unreached(
        self, remaining_waves: Sequence[Sequence[TranslatedSubgraph]],
        record: RunRecord,
    ) -> None:
        for wave in remaining_waves:
            for item in wave:
                with self._lock:
                    self._unavailable.update(item.subgraph.cubes)
                record.subgraphs.append(
                    SubgraphRecord(
                        item.subgraph.cubes,
                        item.subgraph.target,
                        0.0,
                        0,
                        {},
                        outcome="skipped",
                        attempts=0,
                        error="not reached: an earlier wave aborted the run",
                    )
                )

    def waves(
        self, translated: Sequence[TranslatedSubgraph]
    ) -> List[List[TranslatedSubgraph]]:
        """Group subgraphs into dependency waves.

        Subgraph B depends on subgraph A when one of B's inputs is a
        cube A computes.  Every subgraph in a wave only depends on
        earlier waves.
        """
        produced_by: Dict[str, int] = {}
        for index, item in enumerate(translated):
            for cube in item.subgraph.cubes:
                produced_by[cube] = index
        depends: List[Set[int]] = []
        for item in translated:
            deps = {
                produced_by[name]
                for name in item.inputs
                if name in produced_by
            }
            depends.append(deps)
        assigned: Dict[int, int] = {}
        waves: List[List[TranslatedSubgraph]] = []
        remaining = set(range(len(translated)))
        while remaining:
            wave = [
                i
                for i in sorted(remaining)
                if all(d in assigned for d in depends[i])
            ]
            if not wave:
                raise EngineError("cyclic dependency between subgraphs")
            for i in wave:
                assigned[i] = len(waves)
            waves.append([translated[i] for i in wave])
            remaining -= set(wave)
        return waves

    # -- execution of one subgraph ----------------------------------------------
    def _run_subgraph(
        self, item: TranslatedSubgraph, wave_span=None
    ) -> SubgraphRecord:
        """Execute one subgraph under the full failure policy."""
        cubes = item.subgraph.cubes
        with self._lock:
            blocked = [n for n in item.inputs if n in self._unavailable]
        if blocked:
            with self._lock:
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
            with self._lock:
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

        static_target = item.subgraph.target
        signature: Optional[str] = None
        chosen_target: Optional[str] = None
        predicted_s: Optional[float] = None
        if self.cost_model is not None:
            signature = self._signature_of(item)
        if self.adaptive and signature is not None:
            decision = self.cost_model.choose(
                signature,
                self._candidate_targets(item),
                static_target,
                metrics=self.metrics,
            )
            chosen_target = decision.target
            predicted_s = decision.predicted_s
            if decision.target != static_target:
                try:
                    item = self.retranslate(cubes, decision.target)
                except Exception:
                    # an untranslatable choice falls back to the static
                    # plan; the model never learns the bogus candidate
                    self.metrics.inc("dispatch.cost.retranslate_failed")
                    chosen_target = static_target
                    predicted_s = None

        if self.journal is not None:
            self.journal.subgraph_dispatch(cubes, item.subgraph.target)
        start = time.perf_counter()
        attempts = 0
        recovered_error: Optional[str] = None
        outputs = None
        outcome = "failed"
        executed_target = item.subgraph.target
        attempt_s = 0.0
        try:
            outputs, native_attempts, recovered_error, attempt_s = (
                self._attempt_with_retries(item, wave_span)
            )
            attempts += native_attempts
            outcome = "ok" if native_attempts == 1 else "retried"
        except Exception as exc:
            attempts += getattr(exc, "_dispatch_attempts", 1)
            primary = exc
            recovered_error = f"{type(exc).__name__}: {exc}"
            if self.policy.on_error == "degrade" and item.subgraph.target != "chase":
                outputs, fb_attempts, executed_target, attempt_s = (
                    self._degrade(item, wave_span)
                )
                attempts += fb_attempts
                if outputs is not None:
                    outcome = "degraded"
                    self.metrics.inc("dispatch.degraded")
            if outputs is None:
                with self._lock:
                    self._unavailable.update(cubes)
                    self._errors[cubes] = primary
                self.metrics.inc("dispatch.failed")
                return SubgraphRecord(
                    cubes,
                    static_target,
                    time.perf_counter() - start,
                    0,
                    {},
                    outcome="failed",
                    attempts=attempts,
                    error=recovered_error,
                    executed_target=executed_target,
                    chosen_target=chosen_target,
                    predicted_s=predicted_s,
                )

        wall_s = time.perf_counter() - start
        if self.cost_model is not None and signature is not None:
            # clean successful-attempt time only — never backoff sleep,
            # never failed attempts — credited to the target that
            # actually ran (a degraded subgraph teaches the fallback's
            # cost, not the broken native target's)
            self.cost_model.record(executed_target, signature, attempt_s)
        changed_map: Optional[Dict[str, bool]] = None
        if self.mode.delta:
            # classify each output against its stored version so
            # cleanliness propagates downstream, whatever the target
            changed_map = self._classify_against_store(cubes, outputs)
            with self._lock:
                self.delta_fallback_tgds += len(item.mapping.target_tgds)
        # stage every output cube first, then commit all of them under
        # the lock: the store never sees a partially-written subgraph.
        # In delta mode an output whose content did not change keeps its
        # stored version — no put, so version history stays stable and
        # downstream subgraphs see it as clean
        staged = [(name, outputs[name]) for name in cubes]
        versions: Dict[str, int] = {}
        tuples = 0
        with self._lock:
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
        # duration_s is the clean successful-attempt execution time (the
        # number any cost reasoning must use); the inclusive span — with
        # retries and backoff sleep — is tracked separately as wall_s
        self.metrics.observe("dispatch.subgraph.duration_s", attempt_s)
        self.metrics.observe("dispatch.subgraph.wall_s", wall_s)
        # normalization temporaries the committed slice filled; composition
        # leaves only those it cannot remove (a table function's operand)
        self.metrics.inc("engine.temporaries", len(item.mapping.temporaries))
        sub_record = SubgraphRecord(
            cubes,
            static_target,
            wall_s,
            tuples,
            versions,
            outcome=outcome,
            attempts=attempts,
            error=recovered_error,
            executed_target=executed_target,
            observed_s=attempt_s,
            chosen_target=chosen_target,
            predicted_s=predicted_s,
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

    # -- adaptive target choice ----------------------------------------------
    def _signature_of(self, item: TranslatedSubgraph) -> str:
        """Workload signature: tgd kinds × log2-bucketed input sizes."""
        from .costmodel import subgraph_signature

        cards = [
            len(self.catalog.data(name))
            if self.catalog.has_data(name)
            else 0
            for name in item.inputs
        ]
        return subgraph_signature(item.mapping, cards, delta=self.mode.delta)

    def _candidate_targets(self, item: TranslatedSubgraph) -> List[str]:
        """Targets every cube of the subgraph supports, in the stable
        ``ADAPTIVE_TARGETS`` order (determinism of exploration)."""
        from .costmodel import ADAPTIVE_TARGETS

        supported: Optional[Set[str]] = None
        for cube in item.subgraph.cubes:
            targets = self.graph.supported_targets(cube)
            supported = targets if supported is None else supported & targets
        return [t for t in ADAPTIVE_TARGETS if supported and t in supported]

    # -- retry / degradation machinery ---------------------------------------
    def _attempt_with_retries(
        self, item: TranslatedSubgraph, wave_span=None
    ) -> Tuple[Dict[str, Cube], int, Optional[str], float]:
        """Run one translated subgraph, retrying transient failures.

        Returns ``(outputs, attempts, recovered_error, attempt_s)``:
        ``recovered_error`` is the message of the most recent retried
        transient failure (None when the first attempt succeeded) and
        ``attempt_s`` times *only* the successful attempt's execution —
        failed attempts and backoff sleep are excluded, so the cost
        model and per-subgraph metrics see what the backend actually
        costs, not what this run's bad luck cost.  Raises the last error
        once retries are exhausted, the error is permanent, or the
        deadline passed; the raised exception carries the attempt count
        for the caller's bookkeeping.
        """
        cubes = item.subgraph.cubes
        target = item.subgraph.target
        deadline = (
            time.monotonic() + self.policy.deadline_s
            if self.policy.deadline_s is not None
            else None
        )
        attempt = 0
        recovered: Optional[str] = None
        while True:
            attempt += 1
            try:
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceededError(
                        f"subgraph {target}:{'+'.join(cubes)} exceeded its "
                        f"{self.policy.deadline_s:g}s deadline after "
                        f"{attempt - 1} attempt(s)"
                    )
                attempt_started = time.perf_counter()
                outputs = self._run_attempt(item, attempt - 1, deadline, wave_span)
                attempt_s = time.perf_counter() - attempt_started
                return outputs, attempt, recovered, attempt_s
            except TransientBackendError as exc:
                out_of_budget = attempt > self.policy.retries or (
                    deadline is not None and time.monotonic() >= deadline
                )
                if out_of_budget:
                    exc._dispatch_attempts = attempt
                    raise
                recovered = f"{type(exc).__name__}: {exc}"
                delay = self._backoff_delay(cubes, attempt, deadline)
                if delay is None:
                    # the backoff would consume the remaining budget (or
                    # the deadline already passed and the clamp would
                    # yield a 0 s hot-loop retry): abort now rather than
                    # sleep into a guaranteed-dead attempt
                    abort = DeadlineExceededError(
                        f"subgraph {target}:{'+'.join(cubes)} aborted "
                        f"before backoff: remaining {self.policy.deadline_s:g}s "
                        f"deadline budget cannot cover the attempt "
                        f"{attempt} backoff"
                    )
                    abort._dispatch_attempts = attempt
                    raise abort from exc
                self.metrics.inc("dispatch.retries")
                time.sleep(delay)
            except Exception as exc:
                exc._dispatch_attempts = attempt
                raise

    def _backoff_delay(
        self,
        cubes: Tuple[str, ...],
        attempt: int,
        deadline: Optional[float],
    ) -> Optional[float]:
        """Exponential backoff with deterministic jitter.

        The jitter fraction comes from a stable hash of the subgraph
        and attempt — not a shared RNG — so parallel and sequential
        dispatch sleep identically and stay reproducible.  Returns None
        (counted as ``dispatch.deadline.aborted_backoffs``) when the
        remaining deadline budget cannot cover the delay — sleeping
        would only set up an attempt that dies on arrival, and a
        deadline that already passed would clamp to a 0 s sleep and
        hot-loop through the remaining retries.  A zero delay with
        budget to spare (``backoff_s=0``) stays a legal immediate retry.
        """
        delay = self.policy.backoff_s * (BACKOFF_FACTOR ** (attempt - 1))
        jitter = _stable_unit(0, "backoff", "+".join(cubes), attempt)
        delay *= 0.5 + jitter  # in [0.5x, 1.5x)
        if deadline is not None and deadline - time.monotonic() <= delay:
            self.metrics.inc("dispatch.deadline.aborted_backoffs")
            return None
        return delay

    def _run_attempt(
        self,
        item: TranslatedSubgraph,
        attempt: int,
        deadline: Optional[float],
        wave_span=None,
    ) -> Dict[str, Cube]:
        inputs = self._gather_inputs(item)
        target = item.subgraph.target
        cubes = item.subgraph.cubes
        check = None
        if deadline is not None:
            label = f"{target}:{'+'.join(cubes)}"
            deadline_s = self.policy.deadline_s

            def check(_deadline=deadline, _label=label, _budget=deadline_s):
                if time.monotonic() >= _deadline:
                    raise DeadlineExceededError(
                        f"subgraph {_label} exceeded its {_budget:g}s "
                        f"deadline mid-execution"
                    )

        with self.tracer.span(
            f"subgraph:{target}:{'+'.join(cubes)}",
            category="dispatch",
            parent=wave_span,
            target=target,
            attempt=attempt,
        ):
            if self.policy.fault_plan is not None:
                self.policy.fault_plan.apply(
                    target, cubes, attempt, metrics=self.metrics
                )
            # a backend that shards whole-mapping runs draws per-shard
            # fault decisions from the same plan while this attempt is
            # in flight (see ChaseBackend.fault_scope)
            scope = getattr(item.backend, "fault_scope", None)
            if self.policy.fault_plan is not None and scope is not None:
                context = scope(self.policy.fault_plan, target, cubes, attempt)
            else:
                context = _NULL_SCOPE
            with context:
                # the translation compiled item.mapping once: its units
                # ride along instead of being compiled again per attempt
                return item.backend.run_mapping(
                    item.mapping, inputs, wanted=list(cubes), check=check,
                    units=item.units,
                )

    def _degrade(
        self, item: TranslatedSubgraph, wave_span=None
    ) -> Tuple[Optional[Dict[str, Cube]], int, str, float]:
        """Re-translate and re-run on the chase.

        Returns ``(outputs, attempts, executed_target, attempt_s)``;
        ``outputs`` is None when the chase failed too.
        """
        try:
            translated = self.retranslate(item.subgraph.cubes, "chase")
            outputs, attempts, _, attempt_s = (
                self._attempt_with_retries(translated, wave_span)
            )
            return outputs, attempts, "chase", attempt_s
        except Exception as exc:
            attempts = getattr(exc, "_dispatch_attempts", 1)
            return None, attempts, item.subgraph.target, 0.0

    def _gather_inputs(self, item: TranslatedSubgraph) -> Dict[str, Cube]:
        inputs: Dict[str, Cube] = {}
        for name in item.inputs:
            if not self.catalog.has_data(name):
                raise EngineError(
                    f"subgraph for {item.subgraph.cubes} needs cube {name!r}, "
                    f"which has no stored data"
                )
            version = None
            if self.mode.as_of is not None:
                with self._lock:
                    fresh = name in self._computed_this_run
                if not fresh:
                    version = self.mode.as_of
            inputs[name] = self.catalog.data(name, version)
        return inputs
