"""The EXLEngine architecture (Section 6, Figure 2).

Determination engine (dependency DAG, change detection, partitioning),
translation engine (subgraph -> schema mapping -> target code),
dispatcher (per-target execution in plan order, data movement), historicity
(run records on top of versioned cube storage), and the
:class:`EXLEngine` facade tying them together.
"""

from .._lazy import lazy_surface

#: public name -> defining submodule
_EXPORTS = {
    "DependencyGraph": "determination",
    "Subgraph": "determination",
    "choose_target": "determination",
    "DEFAULT_TARGET_PRIORITY": "determination",
    "TranslationEngine": "translation",
    "TranslatedSubgraph": "translation",
    "Dispatcher": "dispatcher",
    "ON_ERROR_MODES": "faults",
    "RunMode": "dispatcher",
    "FaultPlan": "faults",
    "FaultRule": "faults",
    "parse_fault_spec": "faults",
    "RunPolicy": "faults",
    "RunRecord": "history",
    "RunLog": "history",
    "SubgraphRecord": "history",
    "COMMITTED_OUTCOMES": "history",
    "RunJournal": "journal",
    "replay_journal": "journal",
    "RecoveryReport": "rundir",
    "RunDirectory": "rundir",
    "EXLEngine": "exlengine",
}

__getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)
