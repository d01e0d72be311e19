"""Deterministic, seeded fault injection for dispatch testing.

A :class:`FaultPlan` decides — purely as a function of ``(seed, target,
subgraph cubes)`` — whether a given subgraph execution should raise a
:class:`~repro.errors.PermanentBackendError`, kill the process or hang.
Because the decision is a stable hash rather than a draw from a shared
RNG stream, the *same* faults fire whatever else the run or an earlier
run did.

Plans come from two places:

* tests construct :class:`FaultRule`/:class:`FaultPlan` directly;
* the CLI parses ``--inject-faults SPEC`` via :func:`parse_fault_spec`
  (grammar below).

Spec grammar (rules separated by ``;``)::

    SPEC  := RULE [ ";" RULE ]...
    RULE  := TARGET ":" KIND [ ":" OPT ]...
    TARGET:= backend name | "*"
    KIND  := "permanent" | "kill" | "hang"
    OPT   := "p=" FLOAT      probability per subgraph  (default 1.0)
           | "delay=" FLOAT  seconds a "hang" sleeps (default 30.0)
           | "cubes=" A+B    only for subgraphs computing these cubes

No option value may contain ``:``, so the ``shard:N`` keys of a sharded
chase are library-only (``FaultRule(cubes=("shard:0",))``).  Each
subgraph runs once; a ``degrade`` re-run on the chase draws again.  A
negative or non-finite ``delay=`` is refused.

Examples::

    sql:permanent                # the SQL backend is down for good
    chase:hang:delay=0.2:p=0.5   # half the chase runs stall 200ms
    *:kill:p=0.4                 # SIGKILL the process at random points

``kill`` sends the *current process* an uncatchable SIGKILL (the
crash-chaos tests run ``exl run`` in a subprocess and let the plan kill
it mid-run; a sharded chase delivers it inside forked workers), and
``hang`` sleeps, long enough for a ``--deadline`` to trip.  Callers that
must not die — the sharded chase's parent-side hook — pass ``kinds=``
to :meth:`FaultPlan.apply` to restrict which kinds may fire there.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import EngineError, PermanentBackendError

__all__ = [
    "ON_ERROR_MODES",
    "RunPolicy",
    "FaultRule",
    "FaultPlan",
    "parse_fault_spec",
]

PERMANENT = "permanent"
KILL = "kill"  # SIGKILL the current process — uncatchable, for crash tests
HANG = "hang"  # sleep the current thread for delay_s
_KINDS = (PERMANENT, KILL, HANG)

ON_ERROR_MODES = ("fail", "continue", "degrade")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *who* it hits, *what* it does, how often."""

    target: str = "*"  # backend name, or "*" for every backend
    kind: str = PERMANENT
    probability: float = 1.0  # per-subgraph firing probability
    delay_s: float = 30.0  # sleep length for kind "hang"
    cubes: Optional[Tuple[str, ...]] = None  # restrict to these subgraph cubes

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise EngineError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if not 0.0 <= self.delay_s < math.inf:
            raise EngineError(
                f"fault delay must be a finite number of seconds >= 0, "
                f"got {self.delay_s}"
            )

    def matches(self, target: str, cubes: Tuple[str, ...]) -> bool:
        if self.target != "*" and self.target != target:
            return False
        return self.cubes is None or bool(set(self.cubes) & set(cubes))


def _stable_unit(seed: int, *parts: object) -> float:
    """A deterministic uniform draw in [0, 1) from a stable hash.

    The value depends only on the seed and the identifying parts, never
    on call order.
    """
    text = "\x1f".join([str(seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A seeded set of fault rules applied to subgraph executions."""

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        #: injection counts by kind, for assertions and reporting
        self.injected: Dict[str, int] = {kind: 0 for kind in _KINDS}

    def would_fire(self, target: str, cubes: Tuple[str, ...]) -> List[FaultRule]:
        """The rules that fire for this subgraph (no side effects)."""
        fired = []
        for index, rule in enumerate(self.rules):
            if not rule.matches(target, tuple(cubes)):
                continue
            # the trailing 0 stands where an attempt index once was, so
            # every seeded decision stays what it was
            draw = _stable_unit(self.seed, index, target, "+".join(cubes), 0)
            if draw < rule.probability:
                fired.append(rule)
        return fired

    def apply(
        self,
        target: str,
        cubes: Tuple[str, ...],
        metrics=None,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Inject whatever the plan dictates for this subgraph.

        Hangs sleep; ``kill`` SIGKILLs the current process; a permanent
        rule raises once every fired rule has acted.  ``kinds``
        restricts which rule kinds may fire at this call site (``None``
        means all) — the sharded chase's parent-side hook fires only
        ``permanent``, so process-level faults only ever land in
        expendable processes.  ``metrics`` receives ``faults.injected``
        plus a per-kind counter for every fault that fires.
        """
        fired = self.would_fire(target, tuple(cubes))
        if kinds is not None:
            fired = [rule for rule in fired if rule.kind in kinds]
        for rule in fired:
            self.injected[rule.kind] += 1
            if metrics is not None:
                metrics.inc("faults.injected")
                metrics.inc(f"faults.injected.kind:{rule.kind}")
            if rule.kind == KILL:
                os.kill(os.getpid(), signal.SIGKILL)
            elif rule.kind == HANG:
                time.sleep(rule.delay_s)
        if any(rule.kind == PERMANENT for rule in fired):
            raise PermanentBackendError(
                f"injected permanent fault on {target}:{'+'.join(cubes)}"
            )

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


#: the spec's numeric options and the :class:`FaultRule` field of each
_NUMERIC_OPTIONS = {"p": "probability", "delay": "delay_s"}


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse an ``--inject-faults`` spec string into a :class:`FaultPlan`."""
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise EngineError(
                f"bad fault rule {chunk!r}: expected TARGET:KIND[:opt=value...]"
            )
        target, kind = parts[0].strip(), parts[1].strip()
        options: Dict[str, object] = {}
        for opt in parts[2:]:
            if "=" not in opt:
                raise EngineError(
                    f"bad fault option {opt!r} in rule {chunk!r}: options "
                    f"are KEY=VALUE and a value may not contain ':', which "
                    f"separates them; a shard:N key is library-only "
                    f"(FaultRule(cubes=('shard:N',)))"
                )
            key, _, value = opt.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _NUMERIC_OPTIONS:
                try:
                    options[_NUMERIC_OPTIONS[key]] = float(value)
                except ValueError:
                    raise EngineError(
                        f"fault option {key}= needs a number, got {value!r} "
                        f"in rule {chunk!r}"
                    ) from None
            elif key == "cubes":
                options["cubes"] = tuple(value.split("+"))
            else:
                raise EngineError(
                    f"unknown fault option {key!r} in rule {chunk!r}"
                )
        rules.append(FaultRule(target=target, kind=kind, **options))
    if not rules:
        raise EngineError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules, seed=seed)


@dataclass(frozen=True)
class RunPolicy:
    """What one run may do when a subgraph fails, validated once.

    ``deadline_s`` bounds each subgraph's one attempt (None: no
    deadline); ``on_error`` is one of :data:`ON_ERROR_MODES`;
    ``fault_plan`` injects faults.
    """

    deadline_s: Optional[float] = None
    on_error: str = "fail"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise EngineError(
                f"deadline_s must be greater than 0, got {self.deadline_s!r}"
            )
        if self.on_error not in ON_ERROR_MODES:
            raise EngineError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
