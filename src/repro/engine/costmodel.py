"""Cost-based adaptive dispatch: learn where each subgraph runs fastest.

The paper's architecture translates every determined subgraph to a
*fixed* target engine chosen from technical metadata.  This module adds
the learning half of ROADMAP's "cost-based adaptive dispatch": a
:class:`CostModel` keeps an EWMA of *clean* per-attempt execution
timings per ``(target, subgraph signature)`` and, in adaptive mode, the
dispatcher asks it to *choose* the target per subgraph before
translation — columnar chase vs SQL vs the IR engines vs ETL, with
update runs' timings kept apart from full runs' by the signature's
mode marker.

Three design points keep the model honest:

* **Clean timings only.**  The model is fed the execution time of the
  *successful* attempt — never retry backoff sleep, never the wall time
  of failed attempts (see ``Dispatcher._attempt_with_retries``).  A
  healthy backend that hit one transient fault would otherwise look
  slow forever and the optimizer would systematically avoid it.
* **Transferable signatures.**  A signature is the subgraph's tgd-kind
  histogram × its operand cardinalities bucketed by log2 (plus a
  ``full``/``delta`` mode marker), not the cube names — so estimates
  learned on one run, program, or process transfer to structurally
  similar subgraphs in the next.
* **Cold-start fallback.**  With no history for the static target the
  model keeps the paper's static assignment (and thereby measures it);
  unmeasured alternatives are explored once each, deterministically,
  before the model starts exploiting the argmin estimate.

History persists as an atomic-write JSON document under
``<out>/costs/`` following the PR 9 durability conventions: the file is
written via :func:`repro.chase.atomic.atomic_write` and guarded by a
``payload_sha256`` over its own entries; a torn, tampered, or otherwise
unreadable history is a *counted* cold start
(``dispatch.cost.fallback.reason:history-unreadable``), never a crash.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ADAPTIVE_TARGETS",
    "COST_HISTORY_FILE",
    "COST_HISTORY_FORMAT",
    "CostDecision",
    "CostModel",
    "card_bucket",
    "subgraph_signature",
]

#: on-disk format tag of the persisted history document
COST_HISTORY_FORMAT = 1

#: file name of the history document inside the ``<out>/costs/`` dir
COST_HISTORY_FILE = "cost-history.json"

#: targets the adaptive dispatcher considers
ADAPTIVE_TARGETS: Tuple[str, ...] = ("sql", "r", "matlab", "etl", "chase")


def card_bucket(cardinality: int) -> int:
    """log2 bucket of an operand cardinality (0 for an empty operand).

    ``bit_length`` gives ``floor(log2(n)) + 1`` — cheap, exact on ints,
    and stable across processes.  Bucketing means a 1 000-tuple and a
    1 400-tuple operand share estimates while a 100k-tuple one does not.
    """
    return max(0, int(cardinality)).bit_length()


def subgraph_signature(
    mapping,
    input_cards: Sequence[int],
    delta: bool = False,
) -> str:
    """The workload signature of one translated subgraph.

    Target-independent by construction (the schema mapping is generated
    before backend compilation), so every candidate target of a
    subgraph shares one signature and their timings are comparable.
    """
    kinds: Dict[str, int] = {}
    for tgd in mapping.target_tgds:
        key = tgd.kind.value
        kinds[key] = kinds.get(key, 0) + 1
    kind_part = ",".join(f"{k}x{n}" for k, n in sorted(kinds.items()))
    card_part = ",".join(
        str(b) for b in sorted(card_bucket(c) for c in input_cards)
    )
    mode = "delta" if delta else "full"
    return f"{mode}|{kind_part or '-'}|{card_part or '-'}"


@dataclass(frozen=True)
class CostDecision:
    """One adaptive target choice for a subgraph."""

    target: str
    #: the model's estimate for ``target`` (None while exploring an
    #: unmeasured candidate or falling back to the static assignment)
    predicted_s: Optional[float]
    #: ``hit`` — every candidate measured, exploit the argmin;
    #: ``exploration`` — an unmeasured candidate (or the still-unmeasured
    #: static target) was chosen to learn its cost
    kind: str


def _canonical_entries(entries: Dict[Tuple[str, str], Dict[str, float]]) -> List[Dict]:
    return [
        {
            "target": target,
            "signature": signature,
            "ewma_s": entry["ewma_s"],
            "count": entry["count"],
        }
        for (target, signature), entry in sorted(entries.items())
    ]


def _payload_sha256(entries: List[Dict]) -> str:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CostModel:
    """EWMA cost estimates per ``(target, subgraph signature)``.

    Thread-safe: parallel dispatch waves record and choose concurrently.
    ``path`` (a ``<out>/costs/`` directory) is optional — without it the
    model lives purely in memory, which is what library users and the
    equivalence tests want; the CLI wires the directory so history
    accumulates across ``exl run``/``exl update`` processes.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        alpha: float = 0.3,
        metrics=None,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.path: Optional[Path] = (
            Path(path) / COST_HISTORY_FILE if path is not None else None
        )
        self.alpha = alpha
        #: optional :class:`repro.obs.MetricsRegistry`; the engine wires
        #: its own registry in before :meth:`load` so cold starts from a
        #: damaged history are counted, not silent
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str], Dict[str, float]] = {}

    # -- estimation ---------------------------------------------------------
    def record(self, target: str, signature: str, duration_s: float) -> None:
        """Fold one clean attempt execution time into the EWMA."""
        if duration_s < 0.0 or duration_s != duration_s:  # negative or NaN
            return
        with self._lock:
            entry = self._entries.get((target, signature))
            if entry is None:
                self._entries[(target, signature)] = {
                    "ewma_s": float(duration_s),
                    "count": 1,
                }
            else:
                entry["ewma_s"] += self.alpha * (duration_s - entry["ewma_s"])
                entry["count"] += 1

    def estimate(self, target: str, signature: str) -> Optional[float]:
        """The EWMA estimate, or None when never measured."""
        with self._lock:
            entry = self._entries.get((target, signature))
            return None if entry is None else entry["ewma_s"]

    def observations(self, target: str, signature: str) -> int:
        with self._lock:
            entry = self._entries.get((target, signature))
            return 0 if entry is None else int(entry["count"])

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- choosing -----------------------------------------------------------
    def choose(
        self,
        signature: str,
        candidates: Sequence[str],
        static_target: str,
        metrics=None,
    ) -> CostDecision:
        """Pick the target for a subgraph with this signature.

        Deterministic given the model state: the cold-start policy keeps
        the static assignment until it is measured, then explores each
        unmeasured candidate once (fewest observations first, name as
        tie-break), then exploits the argmin estimate.  Counts
        ``dispatch.cost.decisions`` plus ``.hits`` / ``.explorations``
        in ``metrics`` — the *caller's* registry wins over the model's
        own, so a model shared across engine instances counts each
        decision in the run it actually happened in.
        """
        metrics = metrics if metrics is not None else self.metrics
        candidates = list(dict.fromkeys(candidates))
        if static_target not in candidates:
            candidates.insert(0, static_target)
        if metrics is not None:
            metrics.inc("dispatch.cost.decisions")
        estimates = {c: self.estimate(c, signature) for c in candidates}
        if estimates[static_target] is None:
            # cold start: keep the paper's static assignment (and, by
            # running it, measure the baseline the alternatives must beat)
            if metrics is not None:
                metrics.inc("dispatch.cost.explorations")
            return CostDecision(static_target, None, "exploration")
        unmeasured = [c for c in candidates if estimates[c] is None]
        if unmeasured:
            chosen = min(
                unmeasured,
                key=lambda c: (self.observations(c, signature), c),
            )
            if metrics is not None:
                metrics.inc("dispatch.cost.explorations")
            return CostDecision(chosen, None, "exploration")
        chosen = min(candidates, key=lambda c: (estimates[c], c))
        if metrics is not None:
            metrics.inc("dispatch.cost.hits")
        return CostDecision(chosen, estimates[chosen], "hit")

    # -- persistence --------------------------------------------------------
    def load(self) -> bool:
        """Attach the persisted history, if any.

        Returns True when warm history was loaded.  An *absent* file is
        the ordinary cold start and stays silent; a file that exists
        but cannot be trusted — unreadable, torn JSON, wrong format,
        checksum mismatch, malformed entries — is counted as
        ``dispatch.cost.fallback.reason:history-unreadable`` and the
        model starts cold (the next :meth:`save` heals the file).
        """
        if self.path is None:
            return False
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return False
        except OSError:
            self._count_unreadable()
            return False
        try:
            document = json.loads(text)
        except ValueError:
            self._count_unreadable()
            return False
        if (
            not isinstance(document, dict)
            or document.get("format") != COST_HISTORY_FORMAT
            or not isinstance(document.get("entries"), list)
        ):
            self._count_unreadable()
            return False
        entries = document["entries"]
        try:
            if _payload_sha256(entries) != document.get("payload_sha256"):
                self._count_unreadable()
                return False
            loaded: Dict[Tuple[str, str], Dict[str, float]] = {}
            for item in entries:
                ewma = float(item["ewma_s"])
                count = int(item["count"])
                if ewma < 0.0 or ewma != ewma or count < 1:
                    raise ValueError("corrupt history entry")
                loaded[(str(item["target"]), str(item["signature"]))] = {
                    "ewma_s": ewma,
                    "count": count,
                }
        except (KeyError, TypeError, ValueError):
            self._count_unreadable()
            return False
        with self._lock:
            # on-disk history seeds the model; in-memory observations
            # (there are none at the ordinary load point) win on clash
            for key, entry in loaded.items():
                self._entries.setdefault(key, entry)
        return True

    def save(self) -> bool:
        """Persist the history atomically; False when unwritable.

        The document carries a ``payload_sha256`` over its own entries
        so a corrupted or hand-edited file is rejected on load, and the
        write goes through :func:`~repro.chase.atomic.atomic_write` so
        a crash mid-save leaves the previous complete history.
        """
        if self.path is None:
            return False
        from ..chase.atomic import atomic_write

        with self._lock:
            entries = _canonical_entries(self._entries)
        document = {
            "format": COST_HISTORY_FORMAT,
            "alpha": self.alpha,
            "payload_sha256": _payload_sha256(entries),
            "entries": entries,
        }
        try:
            atomic_write(self.path, json.dumps(document, indent=2) + "\n")
        except OSError:
            return False
        return True

    def _count_unreadable(self) -> None:
        if self.metrics is not None:
            self.metrics.inc("dispatch.cost.fallback.reason:history-unreadable")
