"""Deterministic, seeded fault injection for dispatch testing.

A :class:`FaultPlan` decides — purely as a function of ``(seed, target,
subgraph cubes, attempt index)`` — whether a given subgraph execution
attempt should raise a :class:`~repro.errors.PermanentBackendError`,
kill the process or hang.  Because the decision is a stable hash rather
than a draw from a shared RNG stream, the *same* faults fire whatever
else the run or an earlier run did.

Plans come from two places:

* tests construct :class:`FaultRule`/:class:`FaultPlan` directly;
* the CLI parses ``--inject-faults SPEC`` via :func:`parse_fault_spec`
  (grammar below).

Spec grammar (rules separated by ``;``)::

    SPEC  := RULE [ ";" RULE ]...
    RULE  := TARGET ":" KIND [ ":" OPT ]...
    TARGET:= backend name | "*"
    KIND  := "permanent" | "kill" | "hang"
    OPT   := "p=" FLOAT      probability per attempt   (default 1.0)
           | "n=" INT        fire only on the first N attempts
           | "after=" INT    fire only from attempt N on (0-based)
           | "delay=" FLOAT  seconds a "hang" sleeps (default 30.0)
           | "cubes=" A+B    only for subgraphs computing these cubes

A dispatcher makes one attempt per subgraph (attempt 0, and attempt 0
again on the chase when ``on_error="degrade"`` re-runs it there); a
shard supervisor's rebuild rounds count as later attempts of the
workers it re-forks, which is what ``n=`` and ``after=`` select.

Examples::

    sql:permanent                # the SQL backend is down for good
    chase:hang:delay=0.2:p=0.5   # half the chase runs stall 200ms
    *:kill:p=0.4                 # SIGKILL the process at random points
    chase:hang:delay=60:n=1      # one worker wedges for 60s

The process-level kinds back the crash-recovery and shard-supervision
harnesses: ``kill`` sends the *current process* an uncatchable SIGKILL
(the crash-chaos tests run ``exl run`` in a subprocess and let the plan
kill it mid-run; the shard pool delivers it inside forked workers), and
``hang`` sleeps long enough to trip the shard supervisor's timeout.
Callers that must not die — the dispatcher's parent-side shard hook, for
instance — pass ``kinds=`` to :meth:`FaultPlan.apply` to restrict which
kinds may fire at that site.
"""

from __future__ import annotations

import hashlib
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
HANG = "hang"  # wedge the current thread long enough to trip supervision
_KINDS = (PERMANENT, KILL, HANG)

ON_ERROR_MODES = ("fail", "continue", "degrade")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *who* it hits, *what* it does, *when*."""

    target: str = "*"  # backend name, or "*" for every backend
    kind: str = PERMANENT
    probability: float = 1.0  # per-attempt firing probability
    first_n: Optional[int] = None  # only attempts 0..n-1
    after: int = 0  # only attempts >= after
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

    def matches(self, target: str, cubes: Tuple[str, ...], attempt: int) -> bool:
        if self.target != "*" and self.target != target:
            return False
        if self.cubes is not None and not (set(self.cubes) & set(cubes)):
            return False
        if attempt < self.after:
            return False
        if self.first_n is not None and attempt >= self.after + self.first_n:
            return False
        return True


def _stable_unit(seed: int, *parts: object) -> float:
    """A deterministic uniform draw in [0, 1) from a stable hash.

    The value depends only on the seed and the identifying parts, never
    on call order.
    """
    text = "\x1f".join([str(seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A seeded set of fault rules applied to subgraph execution attempts."""

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        #: injection counts by kind, for assertions and reporting
        self.injected: Dict[str, int] = {kind: 0 for kind in _KINDS}

    def would_fire(
        self, target: str, cubes: Tuple[str, ...], attempt: int
    ) -> List[FaultRule]:
        """The rules that fire for this attempt (no side effects)."""
        fired = []
        for index, rule in enumerate(self.rules):
            if not rule.matches(target, tuple(cubes), attempt):
                continue
            draw = _stable_unit(
                self.seed, index, target, "+".join(cubes), attempt
            )
            if draw < rule.probability:
                fired.append(rule)
        return fired

    def apply(
        self,
        target: str,
        cubes: Tuple[str, ...],
        attempt: int,
        metrics=None,
        kinds: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Inject whatever the plan dictates for this attempt.

        Hangs sleep; ``kill`` SIGKILLs the current process; a permanent
        rule raises once every fired rule has acted.  ``kinds``
        restricts which rule kinds may fire at this call site (``None``
        means all) — the sharded chase's parent-side hook fires only
        ``permanent``, so process-level faults only ever land in
        expendable processes.  ``metrics`` receives ``faults.injected``
        plus a per-kind counter for every fault that fires.
        """
        fired = self.would_fire(target, tuple(cubes), attempt)
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
                f"injected permanent fault on {target}:{'+'.join(cubes)} "
                f"attempt {attempt}"
            )

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


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
                raise EngineError(f"bad fault option {opt!r} in rule {chunk!r}")
            key, _, value = opt.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "p":
                options["probability"] = float(value)
            elif key == "n":
                options["first_n"] = int(value)
            elif key == "after":
                options["after"] = int(value)
            elif key == "delay":
                options["delay_s"] = float(value)
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
