"""Interpreter for the R subset, over the frame engine.

Executes the scripts the R backend renders — the ``r`` backend runs
the *generated text* itself — using
:class:`~repro.frames.DataFrame` as the data.frame implementation and
the repro statistics library for ``stl`` and the ``exl.*`` runtime
functions.

Value model:

* scalars: ``float`` / ``str`` / ``bool`` / ``None`` (NA/NULL)
* vectors: Python lists (R's recycling of length-1 vectors supported)
* data frames: :class:`repro.frames.DataFrame`
* ``ts(...)``: a :class:`TsVector` (values + frequency)
* ``stl(...)``: an :class:`StlResult` whose ``time.series`` component is
  a named-column matrix supporting ``[, "trend"]``
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError
from ..exl.operators import OperatorRegistry, OpKind, default_registry
from ..frames import DataFrame
from ..model.time import TimePoint
from ..stats import decomposition as _dec
from ..stats.aggregates import get_aggregate
from .rast import (
    RAssign,
    RBinary,
    RBool,
    RCall,
    RDollar,
    RExpr,
    RIndex,
    RIndex2,
    RName,
    RNull,
    RNum,
    RScript,
    RStr,
    RUnary,
)
from .rparser import parse_r

__all__ = ["RInterpreterError", "TsVector", "StlResult", "RInterpreter", "run_r_script"]


class RInterpreterError(ReproError):
    """Runtime error while interpreting an R script."""


@dataclass
class TsVector:
    """The result of ``ts(values, frequency=k)``."""

    values: List[float]
    frequency: int


@dataclass
class RMatrix:
    """A named-column matrix (only what ``$time.series`` needs)."""

    columns: Dict[str, List[float]]

    def column(self, name: str) -> List[float]:
        try:
            return self.columns[name]
        except KeyError:
            raise RInterpreterError(f"matrix has no column {name!r}") from None


@dataclass
class StlResult:
    """The result of ``stl(ts, "periodic")``."""

    time_series: RMatrix


def _as_vector(value: Any) -> List[Any]:
    if isinstance(value, list):
        return value
    return [value]


def _recycle(left: List[Any], right: List[Any]):
    n = max(len(left), len(right))
    if len(left) not in (1, n) or len(right) not in (1, n):
        raise RInterpreterError(
            f"vector lengths {len(left)} and {len(right)} do not recycle"
        )
    left = left * n if len(left) == 1 else left
    right = right * n if len(right) == 1 else right
    return left, right, n


def _elementwise(op: str, a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if isinstance(a, TimePoint) and isinstance(b, (int, float)):
        return a.shift(int(b)) if op == "+" else a.shift(-int(b))
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise RInterpreterError("division by zero")
        return a / b
    if op == "^":
        return a**b
    if op == "==":
        return a == b
    raise RInterpreterError(f"unknown operator {op!r}")


class RInterpreter:
    """Evaluates parsed R scripts against an environment of frames."""

    def __init__(self, registry: Optional[OperatorRegistry] = None):
        self.registry = registry or default_registry()
        self.env: Dict[str, Any] = {}
        self._functions = self._builtins()

    # -- public ----------------------------------------------------------
    def run(self, script: RScript) -> Dict[str, Any]:
        for statement in script:
            if isinstance(statement, RAssign):
                self._assign(statement.target, self.eval(statement.value))
            else:
                self.eval(statement)
        return self.env

    def run_source(self, source: str) -> Dict[str, Any]:
        return self.run(parse_r(source))

    # -- assignment targets -------------------------------------------------
    def _assign(self, target: RExpr, value: Any) -> None:
        if isinstance(target, RName):
            self.env[target.name] = value
            return
        if isinstance(target, RDollar) and isinstance(target.obj, RName):
            frame = self._frame(target.obj.name)
            self.env[target.obj.name] = frame.assign(
                target.name, self._column_values(value, frame.nrow)
            )
            return
        if isinstance(target, RIndex2) and isinstance(target.obj, RName):
            frame = self._frame(target.obj.name)
            column = self.eval(target.index)
            if not isinstance(column, str):
                raise RInterpreterError("[[ ]] assignment needs a column name")
            self.env[target.obj.name] = frame.assign(
                column, self._column_values(value, frame.nrow)
            )
            return
        if isinstance(target, RIndex):
            self._assign_indexed(target, value)
            return
        raise RInterpreterError(f"unsupported assignment target: {target}")

    def _assign_indexed(self, target: RIndex, value: Any) -> None:
        # pattern: names(x)[...] <- "new"
        if (
            isinstance(target.obj, RCall)
            and target.obj.func == "names"
            and len(target.obj.positional()) == 1
            and isinstance(target.obj.positional()[0], RName)
        ):
            self._assign_names(target, value)
            return
        # pattern: x[["col"]][mask] <- scalar  (NA replacement)
        if isinstance(target.obj, RIndex2) and isinstance(target.obj.obj, RName):
            frame_name = target.obj.obj.name
            frame = self._frame(frame_name)
            column = self.eval(target.obj.index)
            mask = _as_vector(self.eval(target.rows))
            values = list(frame.column(column))
            if len(mask) != len(values):
                raise RInterpreterError("replacement mask has wrong length")
            replacement = _as_vector(value)
            if len(replacement) == 1:
                replacement = replacement * len(values)
            for i, flag in enumerate(mask):
                if flag:
                    values[i] = replacement[i]
            self.env[frame_name] = frame.assign(column, values)
            return
        raise RInterpreterError(f"unsupported indexed assignment: {target}")

    def _assign_names(self, target: RIndex, value: Any) -> None:
        frame_name = target.obj.positional()[0].name
        frame = self._frame(frame_name)
        names = list(frame.names)
        subscript = target.rows
        if not isinstance(value, str):
            raise RInterpreterError("names()<- expects a string")
        index = self.eval(subscript)
        if isinstance(index, list):  # logical mask from names(x) == "old"
            positions = [i for i, flag in enumerate(index) if flag]
        else:  # numeric (1-based), e.g. ncol(x)
            positions = [int(index) - 1]
        mapping = {}
        for position in positions:
            if not 0 <= position < len(names):
                raise RInterpreterError("names()<- subscript out of range")
            mapping[names[position]] = value
        self.env[frame_name] = frame.rename(mapping)

    def _frame(self, name: str) -> DataFrame:
        value = self.env.get(name)
        if not isinstance(value, DataFrame):
            raise RInterpreterError(f"{name!r} is not a data.frame")
        return value

    def _column_values(self, value: Any, nrow: int) -> List[Any]:
        values = _as_vector(value)
        if len(values) == 1 and nrow > 1:
            values = values * nrow
        return values

    # -- expression evaluation -------------------------------------------------
    def eval(self, expr: RExpr) -> Any:
        if isinstance(expr, RNum):
            return expr.value
        if isinstance(expr, RStr):
            return expr.value
        if isinstance(expr, RBool):
            return expr.value
        if isinstance(expr, RNull):
            return None
        if isinstance(expr, RName):
            if expr.name not in self.env:
                raise RInterpreterError(f"object {expr.name!r} not found")
            return self.env[expr.name]
        if isinstance(expr, RUnary):
            operand = self.eval(expr.operand)
            if isinstance(operand, list):
                return [None if v is None else -v for v in operand]
            return -operand
        if isinstance(expr, RBinary):
            left = _as_vector(self.eval(expr.left))
            right = _as_vector(self.eval(expr.right))
            left, right, n = _recycle(left, right)
            out = [_elementwise(expr.op, a, b) for a, b in zip(left, right)]
            return out if n > 1 else out[0]
        if isinstance(expr, RDollar):
            return self._dollar(expr)
        if isinstance(expr, RIndex2):
            obj = self.eval(expr.obj)
            index = self.eval(expr.index)
            if isinstance(obj, DataFrame):
                return list(obj.column(index))
            if isinstance(obj, dict):
                return obj[index]
            raise RInterpreterError(f"[[ ]] on unsupported object {type(obj)}")
        if isinstance(expr, RIndex):
            return self._index(expr)
        if isinstance(expr, RCall):
            return self._call(expr)
        raise RInterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _dollar(self, expr: RDollar) -> Any:
        obj = self.eval(expr.obj)
        if isinstance(obj, DataFrame):
            return list(obj.column(expr.name))
        if isinstance(obj, StlResult) and expr.name == "time.series":
            return obj.time_series
        if isinstance(obj, dict):
            return obj[expr.name]
        raise RInterpreterError(f"$ on unsupported object {type(obj).__name__}")

    def _index(self, expr: RIndex) -> Any:
        obj = self.eval(expr.obj)
        if isinstance(obj, RMatrix):
            if expr.rows is not None or expr.cols is None:
                raise RInterpreterError("matrices support only [, \"name\"]")
            return list(obj.column(self.eval(expr.cols)))
        if isinstance(obj, DataFrame):
            frame = obj
            if expr.cols is not None:
                columns = self.eval(expr.cols)
                if isinstance(columns, str):
                    columns = [columns]
                frame = frame.select(list(columns))
            if expr.rows is not None:
                order = self.eval(expr.rows)
                if all(isinstance(v, bool) for v in _as_vector(order)):
                    frame = frame.filter_rows(_as_vector(order))
                else:
                    indices = [int(i) - 1 for i in _as_vector(order)]
                    frame = DataFrame(
                        {
                            name: [frame.column(name)[i] for i in indices]
                            for name in frame.names
                        }
                    )
            return frame
        if isinstance(obj, list):
            if expr.matrix_form:
                raise RInterpreterError("matrix indexing on a vector")
            index = self.eval(expr.rows)
            selector = _as_vector(index)
            if all(isinstance(v, bool) for v in selector) and len(selector) == len(obj):
                return [v for v, keep in zip(obj, selector) if keep]
            return [obj[int(i) - 1] for i in selector]
        raise RInterpreterError(f"[ ] on unsupported object {type(obj).__name__}")

    # -- builtin functions -----------------------------------------------------
    def _call(self, expr: RCall) -> Any:
        func = self._functions.get(expr.func)
        if func is None:
            return self._registry_function(expr)
        return func(expr)

    def _registry_function(self, expr: RCall) -> Any:
        """Scalar EXL operators (quarter, exp, …) applied element-wise."""
        name = expr.func
        if name.startswith("exl."):
            return self._exl_runtime(expr)
        if name in self.registry:
            spec = self.registry.get(name)
            if spec.kind in (OpKind.SCALAR, OpKind.DIM_FUNCTION):
                vectors = [_as_vector(self.eval(a.value)) for a in expr.args]
                if not vectors:
                    raise RInterpreterError(f"{name}() needs arguments")
                length = max(len(v) for v in vectors)
                vectors = [v * length if len(v) == 1 else v for v in vectors]
                out = [spec.impl(*values) for values in zip(*vectors)]
                return out if length > 1 else out[0]
        raise RInterpreterError(f"could not find function {expr.func!r}")

    def _exl_runtime(self, expr: RCall) -> Any:
        """``exl.<tf>(frame, time_col, value_col, out_col, …)`` — the
        runtime library backing non-stl whole-series operators."""
        name = expr.func.split(".", 1)[1]
        spec = self.registry.get(name)
        positional = [self.eval(a.value) for a in expr.args if a.name is None]
        params = {a.name: self.eval(a.value) for a in expr.args if a.name}
        frame, time_col, value_col, out_col = positional[:4]
        if not isinstance(frame, DataFrame):
            raise RInterpreterError(f"exl.{name} needs a data.frame")
        ordered = frame.sort_by([time_col])
        series = list(zip(ordered[time_col], ordered[value_col]))
        result = spec.impl(series, params)
        return DataFrame(
            {
                time_col: [p for p, _v in result],
                out_col: [float(v) for _p, v in result],
            }
        )

    def _builtins(self) -> Dict[str, Callable[[RCall], Any]]:
        return {
            "c": self._fn_c,
            "list": self._fn_list,
            "data.frame": self._fn_data_frame,
            "merge": self._fn_merge,
            "aggregate": self._fn_aggregate,
            "names": self._fn_names,
            "ncol": lambda e: float(len(self._eval1(e, DataFrame).names)),
            "nrow": lambda e: float(self._eval1(e, DataFrame).nrow),
            "setdiff": self._fn_setdiff,
            "order": self._fn_order,
            "sort": self._fn_sort,
            "is.na": self._fn_is_na,
            "as.numeric": self._fn_as_numeric,
            "ts": self._fn_ts,
            "stl": self._fn_stl,
            "length": lambda e: float(len(_as_vector(self.eval(e.args[0].value)))),
            "mean": self._agg("mean"),
            "sum": self._agg("sum"),
            "min": self._agg("min"),
            "max": self._agg("max"),
            "median": self._agg("median"),
            "prod": self._agg("prod"),
            "log": self._fn_log,
            "exp": self._vector_math(math.exp),
            "abs": self._vector_math(abs),
            "sqrt": self._vector_math(math.sqrt),
            "sin": self._vector_math(math.sin),
            "cos": self._vector_math(math.cos),
            "round": self._fn_round,
            "head": self._fn_head,
            # `^`(x, e): the rendering of EXL's pow()
            "^": lambda e: self.eval(RBinary("^", e.args[0].value, e.args[1].value)),
        }

    def _eval1(self, expr: RCall, expected_type=None):
        value = self.eval(expr.args[0].value)
        if expected_type is not None and not isinstance(value, expected_type):
            raise RInterpreterError(
                f"{expr.func}() expects {expected_type.__name__}"
            )
        return value

    def _agg(self, name: str):
        fn = _aggregate(name)

        def wrapped(expr: RCall):
            values = _as_vector(self.eval(expr.args[0].value))
            return fn([float(v) for v in values])

        return wrapped

    def _vector_math(self, fn):
        def wrapped(expr: RCall):
            value = self.eval(expr.args[0].value)
            if isinstance(value, list):
                return [fn(v) for v in value]
            return fn(value)

        return wrapped

    def _fn_log(self, expr: RCall) -> Any:
        value = self.eval(expr.args[0].value)
        base = None
        named = expr.named()
        if "base" in named:
            base = self.eval(named["base"])
        elif len(expr.positional()) > 1:
            base = self.eval(expr.args[1].value)
        fn = (lambda v: math.log(v, base)) if base else math.log

        if isinstance(value, list):
            return [fn(v) for v in value]
        return fn(value)

    def _fn_round(self, expr: RCall) -> Any:
        value = self.eval(expr.args[0].value)
        digits = 0
        if len(expr.args) > 1:
            digits = int(self.eval(expr.args[1].value))
        if isinstance(value, list):
            return [round(v, digits) for v in value]
        return round(value, digits)

    def _fn_c(self, expr: RCall) -> List[Any]:
        out: List[Any] = []
        for arg in expr.args:
            out.extend(_as_vector(self.eval(arg.value)))
        return out

    def _fn_list(self, expr: RCall) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for i, arg in enumerate(expr.args):
            out[arg.name or str(i + 1)] = self.eval(arg.value)
        return out

    def _fn_data_frame(self, expr: RCall) -> DataFrame:
        columns: Dict[str, List[Any]] = {}
        length = 1
        values = {}
        for arg in expr.args:
            if arg.name is None:
                raise RInterpreterError("data.frame() needs named arguments")
            values[arg.name] = _as_vector(self.eval(arg.value))
            length = max(length, len(values[arg.name]))
        for name, vector in values.items():
            columns[name] = vector * length if len(vector) == 1 else vector
        return DataFrame(columns)

    def _fn_merge(self, expr: RCall) -> DataFrame:
        positional = expr.positional()
        left = self.eval(positional[0])
        right = self.eval(positional[1])
        named = expr.named()
        if "by" not in named:
            raise RInterpreterError("merge() needs by=")
        by = _as_vector(self.eval(named["by"]))
        outer = bool(self.eval(named["all"])) if "all" in named else False
        if not outer:
            return left.merge(right, by=by)
        return _outer_merge(left, right, by)

    def _fn_aggregate(self, expr: RCall) -> DataFrame:
        values = _as_vector(self.eval(expr.args[0].value))
        named = expr.named()
        groups = self.eval(named["by"])  # a dict from list(...)
        if not isinstance(groups, dict):
            raise RInterpreterError("aggregate() by= must be a list(...)")
        fun_name = named["FUN"]
        if isinstance(fun_name, RName):
            func = _aggregate(fun_name.name)
        else:
            func = _aggregate(str(self.eval(fun_name)))
        keys = list(groups)
        columns = {k: _as_vector(groups[k]) for k in keys}
        # R names the value column x even beside a key x; a frame's
        # names are unique, so that one takes a suffix
        value_column = "x"
        while value_column in columns:
            value_column += "."
        columns[value_column] = [float(v) for v in values]
        return DataFrame(columns).group_aggregate(keys, value_column, func)

    def _fn_names(self, expr: RCall) -> List[str]:
        return list(self._eval1(expr, DataFrame).names)

    def _fn_setdiff(self, expr: RCall) -> List[Any]:
        left = _as_vector(self.eval(expr.args[0].value))
        right = set(_as_vector(self.eval(expr.args[1].value)))
        return [v for v in left if v not in right]

    def _fn_order(self, expr: RCall) -> List[int]:
        values = _as_vector(self.eval(expr.args[0].value))

        def key(i):
            v = values[i]
            if isinstance(v, TimePoint):
                return (1, v.freq.value, v.ordinal)
            if isinstance(v, str):
                return (2, v, 0)
            return (1, "", v)

        return [i + 1 for i in sorted(range(len(values)), key=key)]

    def _fn_sort(self, expr: RCall) -> List[Any]:
        values = _as_vector(self.eval(expr.args[0].value))
        order = self._fn_order(expr)
        return [values[i - 1] for i in order]

    def _fn_is_na(self, expr: RCall) -> List[bool]:
        values = _as_vector(self.eval(expr.args[0].value))
        return [v is None for v in values]

    def _fn_as_numeric(self, expr: RCall) -> List[float]:
        values = _as_vector(self.eval(expr.args[0].value))
        return [float(v) for v in values]

    def _fn_ts(self, expr: RCall) -> TsVector:
        values = [float(v) for v in _as_vector(self.eval(expr.args[0].value))]
        named = expr.named()
        frequency = int(self.eval(named.get("frequency", None))) if "frequency" in named else 1
        return TsVector(values, frequency)

    def _fn_stl(self, expr: RCall) -> StlResult:
        series = self.eval(expr.args[0].value)
        if not isinstance(series, TsVector):
            raise RInterpreterError("stl() needs a ts object")
        decomposition = _dec.stl_decompose(series.values, series.frequency)
        return StlResult(
            RMatrix(
                {
                    "seasonal": decomposition.seasonal,
                    "trend": decomposition.trend,
                    "remainder": decomposition.remainder,
                }
            )
        )

    def _fn_head(self, expr: RCall) -> Any:
        value = self.eval(expr.args[0].value)
        n = int(self.eval(expr.args[1].value)) if len(expr.args) > 1 else 6
        if isinstance(value, DataFrame):
            return value.filter_rows([i < n for i in range(value.nrow)])
        return _as_vector(value)[:n]


def _outer_merge(left: DataFrame, right: DataFrame, by: List[str]) -> DataFrame:
    """R's ``merge(x, y, by=…, all=TRUE)``: full outer join, NA = None."""
    left_extra = [n for n in left.names if n not in by]
    right_extra = [n for n in right.names if n not in by]
    renames = {
        n: (f"{n}.x", f"{n}.y") for n in set(left_extra) & set(right_extra)
    }
    out_names = (
        list(by)
        + [renames.get(n, (n, n))[0] for n in left_extra]
        + [renames.get(n, (n, n))[1] for n in right_extra]
    )
    left_map = {}
    for i in range(left.nrow):
        key = tuple(left.column(n)[i] for n in by)
        left_map[key] = [left.column(n)[i] for n in left_extra]
    right_map = {}
    for j in range(right.nrow):
        key = tuple(right.column(n)[j] for n in by)
        right_map[key] = [right.column(n)[j] for n in right_extra]
    rows = []
    for key in left_map.keys() | right_map.keys():
        left_values = left_map.get(key, [None] * len(left_extra))
        right_values = right_map.get(key, [None] * len(right_extra))
        rows.append(tuple(key) + tuple(left_values) + tuple(right_values))
    return DataFrame.from_rows(out_names, rows)


#: R's names for the registry aggregates they mean
_R_AGGREGATES = {
    "mean": "avg",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "median": "median",
    "prod": "product",
    "length": "count",
}


def _aggregate(name: str) -> Callable[[List[float]], float]:
    """The bag function an R aggregate name denotes.

    ``exl.<aggregate>`` (the exl runtime library for R) and R's own
    spellings resolve in the shared registry.
    """
    if name.startswith("exl."):
        return get_aggregate(name[len("exl."):])
    if name not in _R_AGGREGATES:
        raise RInterpreterError(f"unsupported aggregate FUN {name!r}")
    return get_aggregate(_R_AGGREGATES[name])


def run_r_script(
    source: str,
    frames: Dict[str, DataFrame],
    registry: Optional[OperatorRegistry] = None,
) -> Dict[str, Any]:
    """Parse and run an R script with the given frames in scope.

    Returns the final environment (input frames plus everything the
    script assigned).
    """
    interpreter = RInterpreter(registry)
    interpreter.env.update(frames)
    return interpreter.run_source(source)
