"""Group-reduce: the one place bags are built and folded.

Every aggregate in the system is the same two steps — *collect* the
contributions of each group into a bag, then *reduce* each bag through
a registered aggregate.  The shard worker and parent, the columnar
kernel and the OLAP roll-up lattice all call the functions below and
own no group-by loop of their own, so a bag is folded identically — in
:func:`repro.stats.aggregates.canonical_bag` order, inside the
aggregate — whichever path built it.  Nothing is maintained: a result
whose input changed is reduced again from the new rows.

The module imports nothing at load time (numpy only inside the two
sort-and-compare kernels, :func:`sorted_slices` and :func:`distinct`),
so the query path can reduce a lattice without the chase executor or
numpy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = [
    "collect",
    "concatenate",
    "distinct",
    "reduce_bags",
    "sorted_slices",
]

Bags = Dict[Tuple, List[Any]]


def collect(entries: Iterable[Tuple[Tuple, Any]]) -> Bags:
    """``(group key, contribution)`` pairs → ``{key: bag}``.

    Keys appear in first-occurrence order and each bag holds its
    contributions in enumeration order.
    """
    bags: Bags = {}
    for key, value in entries:
        bags.setdefault(key, []).append(value)
    return bags


def concatenate(parts: Iterable[Bags]) -> Bags:
    """Merge per-shard bag maps into one: bags of the same key are
    concatenated.  The aggregates fold in canonical order, so the order
    the parts arrive in cannot change a result."""
    merged: Bags = {}
    for bags in parts:
        for key, bag in bags.items():
            merged.setdefault(key, []).extend(bag)
    return merged


def reduce_bags(bags: Bags, aggregate: Callable) -> Dict[Tuple, Any]:
    """``{key: bag}`` → ``{key: aggregate(bag)}``, keys in bag order."""
    return {key: aggregate(bag) for key, bag in bags.items()}


def _run_starts(ordered):
    """Mask over a sorted array: true where a run of equal values
    starts (NaNs are one run, as ``numpy.unique`` counts them)."""
    import numpy as np

    boundary = np.empty(len(ordered), bool)
    boundary[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    if ordered.dtype.kind == "f":
        nan = ordered != ordered
        boundary[1:] &= ~(nan[1:] & nan[:-1])
    return boundary


def distinct(values, return_inverse: bool = False):
    """The sorted distinct values of a 1-d array and, on request, each
    element's index among them: what ``numpy.unique`` returns, by one
    sort and one compare — ``numpy.unique`` itself imports ``numpy.ma``
    on first use, which every ``exl`` call that chases would pay."""
    import numpy as np

    if not return_inverse:
        ordered = np.sort(values)
        return ordered[_run_starts(ordered)]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    boundary = _run_starts(ordered)
    inverse = np.empty(len(values), np.intp)
    inverse[order] = np.cumsum(boundary) - 1
    return ordered[boundary], inverse


def sorted_slices(composite, values) -> Iterator[Tuple[int, List[Any]]]:
    """The columnar collect: one stable argsort over composite group
    codes turns every group's bag into a contiguous slice.

    ``composite`` is an integer array with one code per row (equal
    codes ⇔ same group) and ``values`` the aligned contribution array.
    Yields ``(first row of the group, bag)`` per group, groups in
    first-occurrence order and each bag in row order — value for value
    what :func:`collect` builds from the same rows.
    """
    import numpy as np

    n = len(composite)
    if n == 0:
        return
    order = np.argsort(composite, kind="stable")
    starts = np.nonzero(_run_starts(composite[order]))[0]
    ends = np.append(starts[1:], n).tolist()
    # the stable sort puts each group's earliest row first
    first_rows = order[starts]
    emission = np.argsort(first_rows, kind="stable").tolist()
    first_rows = first_rows.tolist()
    starts = starts.tolist()
    sorted_values = values[order].tolist()
    for g in emission:
        yield first_rows[g], sorted_values[starts[g] : ends[g]]
