"""Deterministic, seeded fault injection for dispatch testing.

A :class:`FaultPlan` decides — purely as a function of ``(seed, target,
subgraph cubes, attempt index)`` — whether a given subgraph execution
attempt should raise a :class:`~repro.errors.TransientBackendError`,
raise a :class:`~repro.errors.PermanentBackendError`, or be delayed.
Because the decision is a stable hash rather than a draw from a shared
RNG stream, the *same* faults fire no matter how many worker threads
dispatch the waves or in what order subgraphs are scheduled — the
property the determinism tests (``--jobs 1`` vs ``--jobs 4``) rely on.

Plans come from three places:

* tests construct :class:`FaultRule`/:class:`FaultPlan` directly;
* the CLI parses ``--inject-faults SPEC`` via :func:`parse_fault_spec`
  (grammar below);
* the CI chaos leg enables a process-wide plan through
  :func:`enable_chaos`, which every :class:`RunPolicy` built without an
  explicit plan picks up — the whole tier-1 suite then runs with
  transient faults firing and must still pass.

Spec grammar (rules separated by ``;``)::

    SPEC  := RULE [ ";" RULE ]...
    RULE  := TARGET ":" KIND [ ":" OPT ]...
    TARGET:= backend name | "*"
    KIND  := "transient" | "permanent" | "delay" | "kill" | "hang"
    OPT   := "p=" FLOAT      probability per attempt   (default 1.0)
           | "n=" INT        fire only on the first N attempts
           | "after=" INT    fire only from attempt N on (0-based)
           | "delay=" FLOAT  seconds to sleep (kinds "delay"/"hang";
                             defaults 0.05 / 30.0)
           | "cubes=" A+B    only for subgraphs computing these cubes

Examples::

    *:transient:p=0.3            # 30% of attempts fail transiently
    sql:permanent                # the SQL backend is down for good
    r:transient:n=2              # first two attempts fail, then recover
    chase:delay:delay=0.2:p=0.5  # half the chase runs stall 200ms
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
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import (
    EngineError,
    PermanentBackendError,
    TransientBackendError,
)

__all__ = [
    "ERROR_KINDS",
    "ON_ERROR_MODES",
    "RunPolicy",
    "FaultRule",
    "FaultPlan",
    "FaultyBackend",
    "parse_fault_spec",
    "enable_chaos",
    "disable_chaos",
    "chaos_plan",
    "chaos_retries",
    "chaos_backoff_s",
]

TRANSIENT = "transient"
PERMANENT = "permanent"
DELAY = "delay"
KILL = "kill"  # SIGKILL the current process — uncatchable, for crash tests
HANG = "hang"  # wedge the current thread long enough to trip supervision
_KINDS = (TRANSIENT, PERMANENT, DELAY, KILL, HANG)

#: the in-process kinds — safe to deliver anywhere (they raise or sleep
#: briefly); the complement, (KILL, HANG), only belongs in expendable
#: processes such as forked shard workers or subprocess harness runs
ERROR_KINDS = (TRANSIENT, PERMANENT, DELAY)

ON_ERROR_MODES = ("fail", "continue", "degrade")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *who* it hits, *what* it does, *when*."""

    target: str = "*"  # backend name, or "*" for every backend
    kind: str = TRANSIENT
    probability: float = 1.0  # per-attempt firing probability
    first_n: Optional[int] = None  # only attempts 0..n-1
    after: int = 0  # only attempts >= after
    delay_s: float = 0.05  # sleep length for kind "delay"
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

    Thread-schedule independent: the value depends only on the seed and
    the identifying parts, never on call order, so parallel and
    sequential dispatch see identical faults.
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
        self._lock = threading.Lock()

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

        Delays and hangs sleep; ``kill`` SIGKILLs the current process;
        transient/permanent rules raise (permanent wins if both fire).
        ``kinds`` restricts which rule kinds may fire at this call site
        (``None`` means all) — the parent-side dispatch path filters to
        :data:`ERROR_KINDS` so process-level faults only ever land in
        expendable processes.  ``metrics`` receives ``faults.injected``
        plus a per-kind counter for every fault that fires.
        """
        fired = self.would_fire(target, tuple(cubes), attempt)
        if kinds is not None:
            fired = [rule for rule in fired if rule.kind in kinds]
        raise_kind = None
        for rule in fired:
            with self._lock:
                self.injected[rule.kind] += 1
            if metrics is not None:
                metrics.inc("faults.injected")
                metrics.inc(f"faults.injected.kind:{rule.kind}")
            if rule.kind == KILL:
                os.kill(os.getpid(), signal.SIGKILL)
            elif rule.kind in (DELAY, HANG):
                time.sleep(rule.delay_s)
            elif rule.kind == PERMANENT:
                raise_kind = PERMANENT
            elif raise_kind is None:
                raise_kind = TRANSIENT
        label = f"{target}:{'+'.join(cubes)} attempt {attempt}"
        if raise_kind == PERMANENT:
            raise PermanentBackendError(f"injected permanent fault on {label}")
        if raise_kind == TRANSIENT:
            raise TransientBackendError(f"injected transient fault on {label}")

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def wrap(self, backend) -> "FaultyBackend":
        """A backend whose ``run_mapping`` consults this plan per call."""
        return FaultyBackend(backend, self)


class FaultyBackend:
    """Wraps any backend; each ``run_mapping`` call is one attempt.

    The attempt index is the per-(target, cubes) call count, so "fail
    the first N calls then recover" rules behave deterministically even
    when several wrapped backends run concurrently.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self._calls: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._calls_lock = threading.Lock()

    def run_mapping(self, mapping, inputs, wanted=None, check=None, units=None):
        cubes = tuple(wanted) if wanted is not None else ()
        key = (self.name, cubes)
        with self._calls_lock:
            attempt = self._calls.get(key, 0)
            self._calls[key] = attempt + 1
        self.plan.apply(self.name, cubes, attempt)
        return self.inner.run_mapping(
            mapping, inputs, wanted=wanted, check=check, units=units
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


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
        if kind == HANG and "delay_s" not in options:
            options["delay_s"] = 30.0  # long enough to trip any supervisor
        rules.append(FaultRule(target=target, kind=kind, **options))
    if not rules:
        raise EngineError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules, seed=seed)


@dataclass(frozen=True)
class RunPolicy:
    """What one run may do when a subgraph fails, validated once.

    ``retries`` transient failures are retried per subgraph, each after
    an exponential backoff from ``backoff_s``; ``deadline_s`` bounds a
    subgraph's execution with its retries; ``on_error`` is one of
    :data:`ON_ERROR_MODES`; ``fault_plan`` injects faults.  A field left
    None takes the chaos-mode default when :func:`enable_chaos` is on,
    else zero retries, a 0.05 s backoff, no deadline, ``"fail"`` and no
    faults.
    """

    retries: Optional[int] = None
    deadline_s: Optional[float] = None
    on_error: Optional[str] = None
    backoff_s: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        retries = (chaos_retries() or 0) if self.retries is None else self.retries
        on_error = "fail" if self.on_error is None else self.on_error
        backoff_s = self.backoff_s
        if backoff_s is None:
            backoff_s = chaos_backoff_s()
            if backoff_s is None:
                backoff_s = 0.05
        if not retries >= 0:
            raise EngineError(f"retries must be at least 0, got {retries!r}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise EngineError(
                f"deadline_s must be greater than 0, got {self.deadline_s!r}"
            )
        if on_error not in ON_ERROR_MODES:
            raise EngineError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        if not backoff_s >= 0:
            raise EngineError(f"backoff_s must be at least 0, got {backoff_s!r}")
        resolved = dict(
            retries=int(retries),
            on_error=on_error,
            backoff_s=backoff_s,
            fault_plan=chaos_plan() if self.fault_plan is None else self.fault_plan,
        )
        for name, value in resolved.items():
            object.__setattr__(self, name, value)


# -- chaos mode: a process-wide default plan -----------------------------------
#
# When enabled (the CI fault-injection leg, or any pytest run with
# ``--inject-faults``), every RunPolicy built without an explicit
# fault plan picks this one up, together with enough retries to
# guarantee recovery from bounded transient rules.


@dataclass
class _ChaosConfig:
    plan: FaultPlan
    retries: int = 3
    backoff_s: float = 0.002  # keep chaos suites fast


_chaos: Optional[_ChaosConfig] = None


def enable_chaos(
    spec: str, seed: int = 0, retries: int = 3, backoff_s: float = 0.002
) -> FaultPlan:
    """Install a process-wide fault plan (see module docstring)."""
    global _chaos
    plan = parse_fault_spec(spec, seed=seed)
    _chaos = _ChaosConfig(plan=plan, retries=retries, backoff_s=backoff_s)
    return plan


def disable_chaos() -> None:
    global _chaos
    _chaos = None


def chaos_plan() -> Optional[FaultPlan]:
    return _chaos.plan if _chaos is not None else None


def chaos_retries() -> Optional[int]:
    return _chaos.retries if _chaos is not None else None


def chaos_backoff_s() -> Optional[float]:
    return _chaos.backoff_s if _chaos is not None else None
