"""CI benchmark-regression gate.

Reads the unified benchmark report (the ``--bench-json`` output,
written under ``benchmarks/results/``) and fails — exit status 1 — if
any recorded entry with both a ``speedup`` and a ``floor`` key fell
below its floor, or any entry with both a ``value`` and a ``ceiling``
key rose above its ceiling (ratios that must stay *small*:
resume-over-rerun cost, journal overhead).

The floors are deliberately looser than the speedups measured on a
quiet machine (scalar 6.6x -> floor 5x, aggregation 5.0x -> floor 3x,
sharded chase 2.5x at >=4 cores — the sharded bench records a
host-adaptive floor alongside its measurement, so the same gate holds
on any runner): the gate catches real regressions — a de-vectorized
kernel, a no-op update that recomputes, a shard merge gone quadratic —
without flaking on shared CI runners.

The gate also fails when a *required* entry is missing from the
report: every dotted name in :data:`REQUIRED` must appear with its
gate keys intact, so a bench that silently stopped recording (renamed
section, deleted test, skipped file) breaks the build instead of
passing vacuously.

Usage::

    python benchmarks/check_regression.py [REPORT.json]

The report defaults to ``benchmarks/results/BENCH_PR3.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

#: Dotted names of gated entries the CI benchmark job is expected to
#: produce.  Listed here so check() can fail on *absence*, not only on
#: out-of-bounds values — keep in sync with the bench files run by the
#: ``benchmark-regression`` CI job.
REQUIRED = (
    "columnar_chase.aggregation",
    "columnar_chase.scalar_arith",
    "crash_recovery.journal_overhead",
    "crash_recovery.recovery_vs_rerun",
    "delta_chase.noop_update",
    "fault_recovery.resume_vs_rerun",
    "olap_query.first_touch_node",
    "olap_query.warm_rollup_vs_csv",
    "sharded_chase.panel_scaling",
)


def gated_entries(
    document: Dict[str, Any], prefix: str = ""
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield every ``(dotted.name, entry)`` carrying a gate.

    An entry is gated when it has ``speedup`` + ``floor`` (must stay at
    or above) or ``value`` + ``ceiling`` (must stay at or below); one
    entry may carry both kinds.
    """
    for key, value in sorted(document.items()):
        if not isinstance(value, dict):
            continue
        name = f"{prefix}{key}"
        has_floor = "speedup" in value and "floor" in value
        has_ceiling = "value" in value and "ceiling" in value
        if has_floor or has_ceiling:
            yield name, value
        else:
            yield from gated_entries(value, prefix=f"{name}.")


def check(document: Dict[str, Any]) -> List[str]:
    """Return one violation line per out-of-bounds entry (empty = pass)."""
    violations = []
    found = False
    seen = set()
    for name, entry in gated_entries(document):
        found = True
        seen.add(name)
        if "speedup" in entry and "floor" in entry:
            speedup = float(entry["speedup"])
            floor = float(entry["floor"])
            status = "ok" if speedup >= floor else "REGRESSION"
            print(
                f"  {name:<40} speedup {speedup:>6.2f}x  "
                f"floor {floor:>5.2f}x  {status}"
            )
            if speedup < floor:
                violations.append(
                    f"{name}: speedup {speedup:.2f}x is below floor "
                    f"{floor:.2f}x"
                )
        if "value" in entry and "ceiling" in entry:
            value = float(entry["value"])
            ceiling = float(entry["ceiling"])
            status = "ok" if value <= ceiling else "REGRESSION"
            print(
                f"  {name:<40} value   {value:>6.2f}   "
                f"ceiling {ceiling:>4.2f}  {status}"
            )
            if value > ceiling:
                violations.append(
                    f"{name}: value {value:.2f} is above ceiling "
                    f"{ceiling:.2f}"
                )
    if not found:
        violations.append(
            "no gated entries (speedup+floor or value+ceiling) found in report"
        )
    for name in REQUIRED:
        if name not in seen:
            print(f"  {name:<40} MISSING")
            violations.append(
                f"{name}: required gated entry is missing from the report"
            )
    return violations


DEFAULT_REPORT = Path(__file__).parent / "results" / "BENCH_PR3.json"


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        print(
            "usage: python benchmarks/check_regression.py [REPORT.json]",
            file=sys.stderr,
        )
        return 2
    path = Path(argv[0]) if argv else DEFAULT_REPORT
    if not path.exists():
        print(f"error: report {path} does not exist", file=sys.stderr)
        return 2
    document = json.loads(path.read_text())
    print(f"benchmark regression gate: {path}")
    violations = check(document)
    if violations:
        print("\nFAILED:", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nall benchmarks within their floors and ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
