"""Turn the span dumps of a traced cycle into per-layer self times, a
Chrome trace-event file and a flat table.

One *call* is one traced child process (see :mod:`traced_op`): its dump
plus what the parent measured around it (``wall_s`` from spawn to exit).
A layer's self time is its spans' duration minus the time their direct
child spans cover; the child is single-threaded, so direct children
never overlap.  For every call::

    wall = startup + sum of self times + unattributed

where ``startup`` is spawn -> ``cli.main`` entry and ``unattributed`` is
the wall no span covers (interpreter teardown, dumping the spans).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

ROOT_SPAN = "cli"
STARTUP = "proc.startup"
UNATTRIBUTED = "trace.unattributed"


def load_call(path: Path, label: str, wall_s: float) -> dict:
    """A child's dump plus what the parent knows about the call."""
    return {**json.loads(path.read_text()), "label": label, "wall_s": wall_s}


def self_times(call: dict) -> Dict[str, float]:
    """Self seconds per layer of one call, start-up and unattributed
    included, so the values sum to the call's wall."""
    spans = call["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} never closed")
        if parent >= 0:
            covered[parent] += end - start
    layers: Dict[str, float] = defaultdict(float)
    for (name, start, end, _), inside in zip(spans, covered):
        layers[name] += (end - start) - inside
    root = next(s for s in spans if s[0] == ROOT_SPAN)
    total = sum(layers.values())
    if abs(total - (root[2] - root[1])) > 0.01 * (root[2] - root[1]):
        raise ValueError(
            f"self times sum to {total:.6f}s, the {ROOT_SPAN} span lasted "
            f"{root[2] - root[1]:.6f}s: spans are not properly nested"
        )
    layers[STARTUP] = root[1] - call["spawn_t"]
    layers[UNATTRIBUTED] = call["wall_s"] - layers[STARTUP] - (root[2] - root[1])
    return dict(layers)


def by_op(calls: List[dict]) -> Dict[str, Dict[str, float]]:
    """``{op: {layer: self seconds}}`` summed over the op's calls (the
    query session is three calls)."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for call in calls:
        for layer, seconds in self_times(call).items():
            table[call["op"]][layer] += seconds
    return {op: dict(layers) for op, layers in table.items()}


def total_counts(calls: List[dict]) -> Counter:
    counts: Counter = Counter()
    for call in calls:
        for name, value in call["counts"].items():
            if name.startswith("olap.lattice."):
                # a size, the same in each call that touches the lattice
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    return counts


def write_chrome_trace(calls: List[dict], path: Path) -> None:
    """Chrome trace-event JSON (chrome://tracing, Perfetto): one process
    row per CLI call, timestamps relative to the first spawn."""
    origin = min(call["spawn_t"] for call in calls)
    events = []
    for index, call in enumerate(calls):
        pid = index + 1
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": f"{index + 1}: exl {call['label']}"}})
        root = next(s for s in call["spans"] if s[0] == ROOT_SPAN)
        events.append({"name": STARTUP, "cat": call["op"], "ph": "X", "pid": pid,
                       "tid": 0, "ts": (call["spawn_t"] - origin) * 1e6,
                       "dur": (root[1] - call["spawn_t"]) * 1e6})
        for name, start, end, _ in call["spans"]:
            events.append({"name": name, "cat": call["op"], "ph": "X", "pid": pid,
                           "tid": 0, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def write_flat_table(calls: List[dict], path: Path) -> None:
    walls: Dict[str, float] = defaultdict(float)
    span_counts: Dict[str, Counter] = defaultdict(Counter)
    for call in calls:
        walls[call["op"]] += call["wall_s"]
        for span in call["spans"]:
            span_counts[call["op"]][span[0]] += 1
    lines = [f"{'op':<8}{'layer':<36}{'self_s':>10}{'share':>8}{'spans':>8}"]
    for op, layers in by_op(calls).items():
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            lines.append(
                f"{op:<8}{layer:<36}{seconds:>10.4f}{seconds / walls[op]:>8.1%}"
                f"{span_counts[op].get(layer, 0):>8}"
            )
        lines.append(f"{op:<8}{'(traced wall)':<36}{walls[op]:>10.4f}{1:>8.1%}")
    path.write_text("\n".join(lines) + "\n")
