"""Hierarchical tracing for chase and engine runs.

A :class:`Tracer` produces *spans* — named, timed intervals arranged in
a tree::

    run
    ├── determination
    ├── translation
    └── dispatch
        └── wave:1
            └── subgraph:chase:GDP
                └── chase
                    └── wave:1 (width=8)
                        └── tgd:PQR
                            ├── kernel:encode
                            ├── kernel:join
                            ├── kernel:eval
                            ├── kernel:egd-check
                            └── kernel:insert

Spans nest through a thread-local stack; work handed to a worker thread
(the stratum-parallel scheduler, the parallel dispatcher) passes the
enclosing span explicitly via ``parent=``, so the tree stays connected
across threads.

**Disabled tracing is free.**  The module-level :data:`NULL_TRACER`
is the default everywhere; its ``span()`` returns one shared no-op
context manager, so the cost on a hot path is a single attribute load
plus one call that allocates nothing — no conditionals, no clock reads.
Instrumented code never checks ``if tracer.enabled`` in a loop; it just
calls ``with self.tracer.span(...)``.

Finished traces export as Chrome trace-event JSON (the ``chrome://
tracing`` / Perfetto format: one complete ``"ph": "X"`` event per span,
microsecond timestamps relative to the tracer's epoch) and as a
human-readable summary table aggregated by span name.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullSpan", "NullTracer", "NULL_TRACER"]


class NullSpan:
    """The shared do-nothing span: enter/exit/note are all no-ops."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **args: Any) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled tracer: every ``span()`` is the same no-op object.

    Kept API-compatible with :class:`Tracer` so instrumented code never
    branches on the tracing state.
    """

    __slots__ = ()
    enabled = False

    def span(
        self,
        name: str,
        category: str = "chase",
        parent: Optional["Span"] = None,
        **args: Any,
    ) -> NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    @property
    def spans(self) -> List["Span"]:
        return []

    def chrome_trace(self) -> List[dict]:
        return []

    def summary(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()


class Span:
    """One finished-or-running interval in the trace tree."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "category",
        "args",
        "thread_id",
        "started",
        "duration",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        args: Dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.args = args
        self.thread_id = threading.get_ident()
        self.started = 0.0
        self.duration = 0.0

    def note(self, **args: Any) -> "Span":
        """Attach key/value annotations (rendered in the trace viewer)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.started = self.tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = self.tracer.clock() - self.started
        if exc is not None:
            self.args["error"] = f"{exc_type.__name__}: {exc}"
        self.tracer._pop(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration * 1000:.3f}ms)"
        )


class Tracer:
    """Collects a tree of spans across threads.

    Thread-safe: spans may open and close concurrently on scheduler
    workers; the finished list is appended under a lock on span exit.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()

    # -- span lifecycle -----------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "chase",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """A new span, child of ``parent`` (or the thread's current span).

        Used as a context manager; the clock only starts at ``with``
        entry, so constructing a span ahead of time costs nothing.
        """
        if parent is not None:
            parent_id = parent.span_id
        else:
            current = self.current()
            parent_id = current.span_id if current is not None else None
        return Span(self, next(self._ids), parent_id, name, category, dict(args))

    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    def absorb(
        self,
        records: List[Dict[str, Any]],
        parent: Optional[Span] = None,
        offset: float = 0.0,
    ) -> int:
        """Import spans recorded by another tracer (a shard worker).

        ``records`` are plain dicts (``id``/``parent``/``name``/
        ``category``/``args``/``started``/``duration``) with ``started``
        relative to the *worker's* epoch; ``offset`` places them on this
        tracer's clock (seconds after this epoch when the worker phase
        began).  Root records re-parent under ``parent``.  Records may
        arrive in completion order — children before parents — so ids
        are remapped in a first pass before any span is built.
        """
        if not records:
            return 0
        base = parent.span_id if parent is not None else None
        idmap: Dict[Any, int] = {}
        for record in records:
            idmap[record["id"]] = next(self._ids)
        imported: List[Span] = []
        for record in records:
            span = Span(
                self,
                idmap[record["id"]],
                idmap.get(record.get("parent"), base),
                record["name"],
                record.get("category", "chase"),
                dict(record.get("args") or {}),
            )
            span.started = self.epoch + offset + record["started"]
            span.duration = record["duration"]
            imported.append(span)
        with self._lock:
            self._finished.extend(imported)
        return len(imported)

    # -- inspection ---------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def tree(self) -> Dict[Optional[int], List[Span]]:
        """Children-by-parent-id view of the finished spans."""
        children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        return children

    # -- export -------------------------------------------------------------
    def chrome_trace(self) -> List[dict]:
        """Chrome trace-event JSON: complete (``"ph": "X"``) events.

        Thread idents are remapped to small, stable lane numbers and
        named via ``thread_name`` metadata events.  ``args`` carries
        ``span_id``/``parent_id`` so the span tree survives the export.
        """
        spans = self.spans
        lanes: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: s.started):
            lanes.setdefault(span.thread_id, len(lanes) + 1)
        events: List[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "args": {"name": "main" if lane == 1 else f"worker-{lane - 1}"},
            }
            for lane in sorted(lanes.values())
        ]
        for span in spans:
            args = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            args.update(span.args)
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": (span.started - self.epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": lanes[span.thread_id],
                    "args": args,
                }
            )
        return events

    def write_chrome_trace(self, path) -> None:
        """Write the trace as a JSON event array loadable in Perfetto."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_trace()}, handle, indent=1)
            handle.write("\n")

    def summary(self) -> str:
        """Aggregate table: per span name, count / total / mean / max."""
        totals: Dict[tuple, List[float]] = {}
        for span in self.spans:
            totals.setdefault((span.category, span.name), []).append(span.duration)
        if not totals:
            return "(no spans recorded)"
        rows = sorted(totals.items(), key=lambda item: -sum(item[1]))
        width = max(len(name) for (_, name) in totals) + 2
        lines = [
            f"{'span':<{width}} {'cat':<10} {'count':>6} "
            f"{'total ms':>10} {'mean ms':>10} {'max ms':>10}"
        ]
        for (category, name), durations in rows:
            total = sum(durations)
            lines.append(
                f"{name:<{width}} {category:<10} {len(durations):>6} "
                f"{total * 1000:>10.2f} "
                f"{total / len(durations) * 1000:>10.3f} "
                f"{max(durations) * 1000:>10.3f}"
            )
        return "\n".join(lines)
