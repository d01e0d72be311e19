"""Incremental group re-reduce: the maintenance kernel of aggregates.

The step the OLAP roll-up lattice refreshes its nodes with, and the one
the delta chase's aggregation rule performs inline.  It lives apart from
:mod:`repro.chase.delta` so the query path can maintain a lattice
without importing the chase executor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

__all__ = ["rereduce_groups"]


def rereduce_groups(
    index: Dict[Tuple, Dict[Tuple, Any]],
    old_facts: Iterable[Tuple],
    new_facts: Iterable[Tuple],
    classify,
    aggregate,
    groups: Dict[Tuple, float],
) -> int:
    """Splice row-level changes through a per-group contribution index
    and re-reduce only the touched groups.

    The maintenance step of the OLAP roll-up lattice (and, inline, of
    the delta chase's aggregation rule, ``DeltaChase._agg_delta``):
    ``index`` maps ``group_key -> {operand_dims: contribution}``,
    ``classify(fact)`` returns ``(group_key, contribution)`` (or None
    to ignore the fact), and ``groups`` — the materialized
    ``group_key -> value`` results — is updated in place.  Old facts
    are retracted from their buckets first, new facts asserted, and
    each touched group re-reduced over its full bucket; the registered
    aggregates canonicalize fold order internally (``canonical_bag``),
    so a group re-reduced here is bit-identical to a recompute from
    scratch.  Groups whose bucket empties are deleted from both maps.

    Returns the number of groups re-reduced (the dirty-group count an
    incremental refresh is judged by — ``olap.lattice.groups.rereduced``).
    """
    affected: Dict[Tuple, None] = {}
    for fact in old_facts:
        entry = classify(fact)
        if entry is None:
            continue
        affected[entry[0]] = None
        bucket = index.get(entry[0])
        if bucket is not None:
            bucket.pop(fact[:-1], None)
    for fact in new_facts:
        entry = classify(fact)
        if entry is None:
            continue
        affected[entry[0]] = None
        index.setdefault(entry[0], {})[fact[:-1]] = entry[1]
    for key in affected:
        bucket = index.get(key)
        if not bucket:
            index.pop(key, None)
            groups.pop(key, None)
        else:
            groups[key] = aggregate(list(bucket.values()))
    return len(affected)
