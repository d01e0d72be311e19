"""Function registries of the mini SQL engine.

Three kinds, matching Section 5.1's taxonomy:

* *scalar* functions — "any system (or user) defined stored function
  implementing any scalar function", used in tuple-level calculations;
* *aggregate* functions — used with GROUP BY;
* *tabular* functions — "take in input one or more tables and return
  another table", the extended-dialect feature tgd (4) relies on
  (``SELECT … FROM STL_T(GDP)``).

The statistical add-ons (STL components etc.) are registered by the
SQL backend from the EXL operator registry; the built-ins here are the
calendar and numeric functions any engine ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence

from ..errors import SqlExecutionError
from ..model.time import Frequency, TimePoint, convert
from ..stats import aggregates as _agg
from .table import Table

__all__ = ["FunctionRegistry", "TabularFunction", "default_functions"]


@dataclass
class TabularFunction:
    """A registered tabular function.

    ``impl`` receives the input tables (in argument order) and the
    scalar arguments, and returns a :class:`Table` (the name is
    ignored; callers alias it).
    """

    name: str
    impl: Callable[..., Table]
    doc: str = ""


class FunctionRegistry:
    """Scalar, aggregate and tabular function namespaces."""

    def __init__(self):
        self._scalar: Dict[str, Callable] = {}
        self._aggregate: Dict[str, Callable[[Sequence[Any]], Any]] = {}
        self._tabular: Dict[str, TabularFunction] = {}

    # -- registration ---------------------------------------------------
    def register_scalar(self, name: str, impl: Callable) -> None:
        self._scalar[name.lower()] = impl

    def register_aggregate(self, name: str, impl: Callable) -> None:
        self._aggregate[name.lower()] = impl

    def register_tabular(self, name: str, impl: Callable, doc: str = "") -> None:
        self._tabular[name.lower()] = TabularFunction(name, impl, doc)

    # -- lookup --------------------------------------------------------------
    def scalar(self, name: str) -> Callable:
        return _lookup(self._scalar, "scalar", name)

    def aggregate(self, name: str) -> Callable:
        return _lookup(self._aggregate, "aggregate", name)

    def tabular(self, name: str) -> TabularFunction:
        return _lookup(self._tabular, "tabular", name)

    def is_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregate

    def is_tabular(self, name: str) -> bool:
        return name.lower() in self._tabular


def _lookup(namespace: Dict[str, Any], kind: str, name: str) -> Any:
    try:
        return namespace[name.lower()]
    except KeyError:
        raise SqlExecutionError(f"unknown {kind} function {name!r}") from None


def _null_guard(fn: Callable) -> Callable:
    """SQL scalar functions return NULL on NULL input."""

    def guarded(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return guarded


def _agg_skip_nulls(fn: Callable[[Sequence[float]], float]) -> Callable:
    """SQL aggregates ignore NULLs; empty bags yield NULL."""

    def wrapped(values: Sequence[Any]) -> Any:
        filtered = [v for v in values if v is not None]
        if not filtered:
            return None
        return fn(filtered)

    return wrapped


def _time_convert(freq: Frequency) -> Callable:
    def conv(value):
        if not isinstance(value, TimePoint):
            raise SqlExecutionError(f"calendar function applied to {value!r}")
        return convert(value, freq)

    return conv


def default_functions() -> FunctionRegistry:
    """The built-in function set."""
    registry = FunctionRegistry()
    scalars = {
        "abs": abs,
        "ln": lambda v: math.log(v),
        "log": lambda v, base=math.e: math.log(v, base),
        "exp": math.exp,
        "sqrt": math.sqrt,
        "sin": math.sin,
        "cos": math.cos,
        "round": lambda v, nd=0: round(v, int(nd)),
        "pow": lambda v, e: v**e,
        "quarter": _time_convert(Frequency.QUARTER),
        "month": _time_convert(Frequency.MONTH),
        "year": _time_convert(Frequency.YEAR),
        "week": _time_convert(Frequency.WEEK),
    }
    for name, impl in scalars.items():
        registry.register_scalar(name, _null_guard(impl))
    for name, impl in _agg.AGGREGATES.items():
        registry.register_aggregate(name, _agg_skip_nulls(impl))
    return registry
