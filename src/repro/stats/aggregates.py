"""Aggregation functions over bags of measure values.

These back EXL's summarization operators (``sum``, ``avg``, ``median``,
``stddev`` …, Section 3) and are shared by every executor: the chase
applies them directly, the SQL engine exposes them as aggregate
functions, the dataframe engine uses them in group-by, and the ETL
engine in its aggregation step.  All operate on *bags* — repeated
elements are meaningful, as the paper stresses.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

from ..errors import StatsError

__all__ = ["AGGREGATES", "get_aggregate", "aggregate_names", "canonical_bag"]


def _require_nonempty(values: Sequence[float], name: str) -> None:
    if not values:
        raise StatsError(f"aggregate {name}() applied to an empty bag")


def canonical_bag(values: Sequence[float]) -> List[float]:
    """The bag in canonical (ascending numeric) order.

    Every registered aggregate is a function of the value *multiset*,
    but the float results of the fold-based ones (sum, avg, var,
    product, geomean) depend on fold order.  Those implementations
    reduce the bag in this canonical order, which makes every
    executor's aggregation results independent of operand enumeration
    order — and is what lets an incremental recomputation of a single
    group reproduce a full rerun bit for bit.  NaNs sort first, stably
    among themselves.
    """
    return sorted(values, key=lambda v: (v == v, v if v == v else 0.0))


def _selection_order(values: Sequence[float]) -> List[float]:
    """:func:`canonical_bag` with ``-0.0`` before ``0.0``.

    min, max, median and range *return* elements of the bag, so for them
    even values that compare equal must come in one order — and a NaN,
    which Python's ``min``/``max``/``sorted`` place wherever enumeration
    order left it, always leads (min and max of a bag holding one are
    NaN).
    """
    return sorted(
        values,
        key=lambda v: (v == v, v if v == v else 0.0, math.copysign(1.0, v)),
    )


def agg_sum(values: Sequence[float]) -> float:
    """Sum of the bag; the paper's tgd (3) aggregation."""
    _require_nonempty(values, "sum")
    return float(sum(canonical_bag(values)))


def agg_avg(values: Sequence[float]) -> float:
    """Arithmetic mean; used in tgd (1) for the quarterly population."""
    _require_nonempty(values, "avg")
    return float(sum(canonical_bag(values))) / len(values)


def agg_min(values: Sequence[float]) -> float:
    _require_nonempty(values, "min")
    return float(min(_selection_order(values)))


def agg_max(values: Sequence[float]) -> float:
    _require_nonempty(values, "max")
    return float(max(_selection_order(values)))


def agg_count(values: Sequence[float]) -> float:
    return float(len(values))


def agg_median(values: Sequence[float]) -> float:
    """Median with midpoint interpolation for even-sized bags."""
    _require_nonempty(values, "median")
    ordered = _selection_order(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def agg_var(values: Sequence[float]) -> float:
    """Population variance (denominator n)."""
    _require_nonempty(values, "var")
    mean = agg_avg(values)
    return sum((v - mean) ** 2 for v in canonical_bag(values)) / len(values)


def agg_stddev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    return math.sqrt(agg_var(values))


def agg_product(values: Sequence[float]) -> float:
    _require_nonempty(values, "product")
    result = 1.0
    for v in canonical_bag(values):
        result *= v
    return result


def agg_range(values: Sequence[float]) -> float:
    """max - min of the bag."""
    _require_nonempty(values, "range")
    ordered = _selection_order(values)
    return float(max(ordered) - min(ordered))


def agg_geomean(values: Sequence[float]) -> float:
    """Geometric mean; requires strictly positive values."""
    _require_nonempty(values, "geomean")
    if any(v <= 0 for v in values):
        raise StatsError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in canonical_bag(values)) / len(values))


AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "sum": agg_sum,
    "avg": agg_avg,
    "mean": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "count": agg_count,
    "median": agg_median,
    "var": agg_var,
    "stddev": agg_stddev,
    "product": agg_product,
    "range": agg_range,
    "geomean": agg_geomean,
}


def get_aggregate(name: str) -> Callable[[Sequence[float]], float]:
    """Look up an aggregation function by (case-insensitive) name."""
    try:
        return AGGREGATES[name.lower()]
    except KeyError:
        raise StatsError(f"unknown aggregate function {name!r}") from None


def aggregate_names() -> List[str]:
    return sorted(AGGREGATES)
