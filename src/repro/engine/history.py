"""Run records: the historicity of engine executions.

Cube data itself is versioned by :class:`~repro.model.VersionedStore`;
this module records the *runs* — what triggered them, which subgraphs
were dispatched where, how long each took, and the versions written —
so any past state of the system can be reconstructed.

Since the fault-tolerance layer, every planned subgraph leaves a record
even when the run goes wrong: the per-subgraph ``outcome`` is one of

* ``ok``       — executed and committed;
* ``degraded`` — its native backend failed, a fallback backend
  (``executed_target``) recomputed and committed it;
* ``clean``    — an incremental update (``EXLEngine.update``) proved
  every input unchanged, so the stored versions were re-published
  without executing anything;
* ``skipped``  — never executed because an upstream subgraph failed,
  or because a fail-fast run stopped before reaching it;
* ``failed``   — its attempt (and the fallback's, if any) failed.

A record written before dispatch made one attempt per subgraph may also
say ``retried`` (committed after retries); it still counts as committed.

``failed``/``skipped`` records are what :meth:`EXLEngine.resume`
re-dispatches; records serialize to/from plain JSON dicts so the CLI
can persist a partial run across processes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SubgraphRecord",
    "RunRecord",
    "RunLog",
    "COMMITTED_OUTCOMES",
    "fold_subgraphs",
]

_run_counter = itertools.count(1)

#: outcomes under which a subgraph's cubes are available in the store
#: ("clean" means an incremental update proved the stored versions are
#: still current and re-published them without executing anything;
#: "retried" is only ever read, from records of older versions)
COMMITTED_OUTCOMES = ("ok", "retried", "degraded", "clean")


def fold_subgraphs(
    previous: List[Dict[str, Any]], current: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Subgraph records (JSON) of a run that was resumed: ``current``
    replaces the outcome of every subgraph it dispatched again, in
    ``previous``'s order, and what only it planned follows; everything
    the earlier run already committed is kept."""
    by_cubes = {tuple(sub["cubes"]): sub for sub in current}
    folded = [by_cubes.pop(tuple(sub["cubes"]), sub) for sub in previous]
    folded.extend(by_cubes.values())
    return folded


@dataclass
class SubgraphRecord:
    """Execution record of one dispatched subgraph."""

    cubes: Tuple[str, ...]
    target: str
    duration_s: float
    tuples_written: int
    versions: Dict[str, int] = field(default_factory=dict)
    #: ok | degraded | clean | skipped | failed
    outcome: str = "ok"
    #: execution attempts across native backend and fallback (0 if skipped)
    attempts: int = 1
    #: final error string for failed/skipped subgraphs (also kept for
    #: degraded ones: the error that was recovered from)
    error: Optional[str] = None
    #: backend that actually committed the result (differs from
    #: ``target`` when the subgraph was degraded to a fallback)
    executed_target: Optional[str] = None
    #: execution time of the successful attempt alone — no failed
    #: attempt (``duration_s`` keeps the inclusive wall time)
    observed_s: float = 0.0

    def __post_init__(self):
        self.cubes = tuple(self.cubes)
        if self.executed_target is None:
            self.executed_target = self.target

    @property
    def committed(self) -> bool:
        return self.outcome in COMMITTED_OUTCOMES

    def to_json(self) -> Dict[str, Any]:
        return {
            "cubes": list(self.cubes),
            "target": self.target,
            "duration_s": self.duration_s,
            "tuples_written": self.tuples_written,
            "versions": dict(self.versions),
            "outcome": self.outcome,
            "attempts": self.attempts,
            "error": self.error,
            "executed_target": self.executed_target,
            "observed_s": self.observed_s,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SubgraphRecord":
        return cls(
            cubes=tuple(data["cubes"]),
            target=data["target"],
            duration_s=data.get("duration_s", 0.0),
            tuples_written=data.get("tuples_written", 0),
            versions=dict(data.get("versions", {})),
            outcome=data.get("outcome", "ok"),
            attempts=data.get("attempts", 1),
            error=data.get("error"),
            executed_target=data.get("executed_target"),
            observed_s=data.get("observed_s", 0.0),
        )


@dataclass
class RunRecord:
    """One determination → translation → dispatch cycle."""

    run_id: int
    trigger: Tuple[str, ...]  # changed elementary cubes
    affected: Tuple[str, ...]  # derived cubes recomputed, in order
    subgraphs: List[SubgraphRecord] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    determination_s: float = 0.0
    translation_s: float = 0.0
    # sharded chase execution (all zero/empty when --shards <= 1 or the
    # mapping had nothing to partition): worker-process count, tuples
    # generated per shard, and wall time merging shard outputs
    shards: int = 0
    shard_tuples: List[int] = field(default_factory=list)
    shard_merge_s: float = 0.0
    # failure semantics the dispatch ran under (fail | continue | degrade)
    on_error: str = "fail"
    # run id this run resumed, when it was started by EXLEngine.resume
    resumed_from: Optional[int] = None
    # run id this run incrementally updated, when it was started by
    # EXLEngine.update (the baseline whose versions defined dirtiness)
    delta_of: Optional[int] = None
    # store versions of every cube with data when this run closed; a
    # later update() diffs against these to decide what is dirty
    baseline_versions: Dict[str, int] = field(default_factory=dict)
    # incremental-update outcome per target tgd (all zero on full runs):
    # the target tgds an update recomputed are ``delta_fallback_tgds``;
    # updates recompute whole subgraphs, so the other two stay 0
    delta_dirty_tgds: int = 0
    delta_clean_tgds: int = 0
    delta_fallback_tgds: int = 0
    # failure state: set when the run raised during dispatch, or — under
    # on_error != "fail" — when any subgraph finished failed/skipped
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def duration_s(self) -> float:
        """Wall time of the run; 0.0 while the run is still open.

        A record abandoned before :meth:`RunLog.close` has
        ``finished_at == 0.0``; the raw difference would be a large
        negative number, so the duration is clamped to zero instead.
        """
        if not self.finished_at:
            return 0.0
        return max(0.0, self.finished_at - self.started_at)

    @property
    def finished(self) -> bool:
        return bool(self.finished_at)

    @property
    def execution_s(self) -> float:
        return sum(s.duration_s for s in self.subgraphs)

    # -- outcome views ------------------------------------------------------
    def outcomes(self) -> Dict[str, int]:
        """Subgraph count per outcome (only outcomes that occurred)."""
        counts: Dict[str, int] = {}
        for record in self.subgraphs:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def unfinished_subgraphs(self) -> List[SubgraphRecord]:
        """The failed/skipped subgraphs a resume would re-dispatch."""
        return [s for s in self.subgraphs if not s.committed]

    @property
    def complete(self) -> bool:
        """Every planned subgraph committed its cubes."""
        return self.finished and all(s.committed for s in self.subgraphs)

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "trigger": list(self.trigger),
            "affected": list(self.affected),
            "subgraphs": [s.to_json() for s in self.subgraphs],
            "shards": self.shards,
            "shard_tuples": list(self.shard_tuples),
            "shard_merge_s": self.shard_merge_s,
            "on_error": self.on_error,
            "resumed_from": self.resumed_from,
            "delta_of": self.delta_of,
            "baseline_versions": dict(self.baseline_versions),
            "delta_dirty_tgds": self.delta_dirty_tgds,
            "delta_clean_tgds": self.delta_clean_tgds,
            "delta_fallback_tgds": self.delta_fallback_tgds,
            "error": self.error,
        }

    def summary(self) -> str:
        state = ""
        if self.failed:
            state = f" FAILED ({self.error})"
        elif not self.finished:
            state = " UNFINISHED"
        resumed = (
            f" resumed-from={self.resumed_from}"
            if self.resumed_from is not None
            else ""
        )
        if self.delta_of is not None:
            resumed += (
                f" update-of={self.delta_of} (tgds: {self.delta_dirty_tgds} "
                f"dirty / {self.delta_clean_tgds} clean / "
                f"{self.delta_fallback_tgds} fallback)"
            )
        lines = [
            f"run {self.run_id}{state}{resumed}: trigger={list(self.trigger)} "
            f"affected={len(self.affected)} cubes in {len(self.subgraphs)} "
            f"subgraphs, {self.duration_s:.3f}s total "
            f"(determination {self.determination_s * 1000:.1f}ms, "
            f"translation {self.translation_s * 1000:.1f}ms)"
        ]
        if self.shards:
            lines.append(
                f"  sharded chase: {self.shards} shards, tuples per shard "
                f"{self.shard_tuples}, merge {self.shard_merge_s * 1000:.1f}ms"
            )
        for record in self.subgraphs:
            flags = ""
            if record.outcome != "ok":
                flags = f" [{record.outcome}"
                if record.outcome == "degraded":
                    flags += f" -> {record.executed_target}"
                if record.attempts > 1:
                    flags += f", {record.attempts} attempts"
                flags += "]"
                if record.error and not record.committed:
                    flags += f" {record.error}"
            lines.append(
                f"  [{record.target}] {', '.join(record.cubes)}: "
                f"{record.tuples_written} tuples in {record.duration_s:.3f}s"
                f"{flags}"
            )
        return "\n".join(lines)


class RunLog:
    """Ordered log of all runs of an engine instance."""

    def __init__(self):
        self._runs: List[RunRecord] = []

    def open(
        self, trigger, affected, started_at: Optional[float] = None
    ) -> RunRecord:
        """A new record, started now or at ``started_at`` (a
        ``time.perf_counter()`` reading)."""
        record = RunRecord(
            run_id=next(_run_counter),
            trigger=tuple(trigger),
            affected=tuple(affected),
            started_at=time.perf_counter() if started_at is None else started_at,
        )
        self._runs.append(record)
        return record

    def close(self, record: RunRecord) -> RunRecord:
        record.finished_at = time.perf_counter()
        return record

    def restore(self, data: Dict[str, Any]) -> RunRecord:
        """Re-admit a serialized run record (CLI resume across processes).

        The record gets a fresh ``run_id`` — the original process's
        counter means nothing here — but keeps its subgraph outcomes
        and error state, so :meth:`EXLEngine.resume` can pick it up.
        """
        record = self.open(data.get("trigger", ()), data.get("affected", ()))
        record.subgraphs = [
            SubgraphRecord.from_json(s) for s in data.get("subgraphs", [])
        ]
        record.shards = data.get("shards", 0)
        record.shard_tuples = list(data.get("shard_tuples", []))
        record.shard_merge_s = data.get("shard_merge_s", 0.0)
        record.on_error = data.get("on_error", "fail")
        record.resumed_from = data.get("resumed_from")
        record.delta_of = data.get("delta_of")
        record.baseline_versions = dict(data.get("baseline_versions", {}))
        record.delta_dirty_tgds = data.get("delta_dirty_tgds", 0)
        record.delta_clean_tgds = data.get("delta_clean_tgds", 0)
        record.delta_fallback_tgds = data.get("delta_fallback_tgds", 0)
        record.error = data.get("error")
        return self.close(record)

    @property
    def runs(self) -> List[RunRecord]:
        return list(self._runs)

    def last(self) -> Optional[RunRecord]:
        return self._runs[-1] if self._runs else None

    def get(self, run_id: int) -> Optional[RunRecord]:
        for record in self._runs:
            if record.run_id == run_id:
                return record
        return None

    def failed(self) -> List[RunRecord]:
        """Runs that left work undone — raised, or finished with
        failed/skipped subgraphs.  ``resume`` picks from these."""
        return [
            r
            for r in self._runs
            if r.failed or any(not s.committed for s in r.subgraphs)
        ]

    def __len__(self) -> int:
        return len(self._runs)
