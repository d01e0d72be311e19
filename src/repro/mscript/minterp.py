"""Interpreter for the Matlab subset, over the matrix engine.

Executes the scripts the Matlab backend renders, using
:class:`~repro.matrixengine.Matrix` for matrices.  ``name(args)``
resolves the Matlab way: indexing when ``name`` is a bound matrix,
otherwise a function call.  The ``exl_*`` runtime functions and the
``isolateTrend`` family are provided on top of the repro statistics
library, with the seasonal period inferred from the time column's
frequency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError
from ..exl.operators import (
    OperatorRegistry,
    OpKind,
    default_registry,
    period_for_frequency,
)
from ..matrixengine import Matrix
from ..model.time import TimePoint
from ..stats.aggregates import get_aggregate
from .mparser import (
    MApply,
    MAssign,
    MBinary,
    MClear,
    MColon,
    MColumnAssign,
    MCompose,
    MExpr,
    MHandle,
    MName,
    MNum,
    MRange,
    MScript,
    MStr,
    MUnary,
    parse_m,
)

__all__ = ["MInterpreterError", "MInterpreter", "run_m_script"]

# Matlab spellings of the aggregate names exl_aggregate receives
_M_AGG_TO_EXL = {
    "mean": "avg",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "median": "median",
    "std": "stddev",
    "var": "var",
    "prod": "product",
    "numel": "count",
}

_M_TF_TO_EXL = {
    "isolateTrend": "stl_t",
    "isolateSeasonal": "stl_s",
    "isolateRemainder": "stl_r",
}


class MInterpreterError(ReproError):
    """Runtime error while interpreting a Matlab script."""


class _Colon:
    """Runtime marker for the bare ``:`` subscript."""


_COLON = _Colon()


class _Handle:
    def __init__(self, name: str):
        self.name = name


def _as_vector(value: Any) -> List[Any]:
    if isinstance(value, list):
        return value
    return [value]


def _elementwise(op: str, a: Any, b: Any) -> Any:
    if isinstance(a, TimePoint) and isinstance(b, (int, float)):
        return a.shift(int(b)) if op == "+" else a.shift(-int(b))
    if op in ("+",):
        return a + b
    if op == "-":
        return a - b
    if op in (".*", "*"):
        return a * b
    if op in ("./", "/"):
        if b == 0:
            raise MInterpreterError("division by zero")
        return a / b
    if op == ".^":
        return a**b
    raise MInterpreterError(f"unknown operator {op!r}")


class MInterpreter:
    """Evaluates parsed Matlab scripts against an environment of matrices."""

    def __init__(self, registry: Optional[OperatorRegistry] = None):
        self.registry = registry or default_registry()
        self.env: Dict[str, Any] = {}
        self._functions: Dict[str, Callable[[List[Any]], Any]] = {
            "join": self._fn_join,
            "sortrows": self._fn_sortrows,
            "exl_aggregate": self._fn_exl_aggregate,
            "exl_outercombine": self._fn_exl_outercombine,
            "arrayfun": self._fn_arrayfun,
        }

    # -- public ----------------------------------------------------------
    def run(self, script: MScript) -> Dict[str, Any]:
        for statement in script:
            if isinstance(statement, MAssign):
                self.env[statement.target] = self.eval(statement.value)
            elif isinstance(statement, MColumnAssign):
                self._column_assign(statement)
            elif isinstance(statement, MClear):
                for name in statement.names:
                    self.env.pop(name, None)
            else:
                raise MInterpreterError(f"unsupported statement {statement!r}")
        return self.env

    def run_source(self, source: str) -> Dict[str, Any]:
        return self.run(parse_m(source))

    # -- statements ----------------------------------------------------------
    def _column_assign(self, statement: MColumnAssign) -> None:
        matrix = self.env.get(statement.target)
        if not isinstance(matrix, Matrix):
            raise MInterpreterError(
                f"{statement.target!r} is not a matrix"
            )
        position = int(self._scalar(self.eval(statement.column)))
        values = _as_vector(self.eval(statement.value))
        if len(values) == 1 and matrix.nrow > 1:
            values = values * matrix.nrow
        self.env[statement.target] = matrix.with_column(position, values)

    def _scalar(self, value: Any) -> float:
        if isinstance(value, list):
            if len(value) != 1:
                raise MInterpreterError(f"expected a scalar, got {value!r}")
            value = value[0]
        return float(value)

    # -- expressions -------------------------------------------------------------
    def eval(self, expr: MExpr) -> Any:
        if isinstance(expr, MNum):
            return expr.value
        if isinstance(expr, MStr):
            return expr.value
        if isinstance(expr, MColon):
            return _COLON
        if isinstance(expr, MHandle):
            return _Handle(expr.name)
        if isinstance(expr, MName):
            if expr.name not in self.env:
                raise MInterpreterError(f"undefined variable {expr.name!r}")
            return self.env[expr.name]
        if isinstance(expr, MRange):
            low = int(self._scalar(self.eval(expr.low)))
            high = int(self._scalar(self.eval(expr.high)))
            return list(range(low, high + 1))
        if isinstance(expr, MUnary):
            value = self.eval(expr.operand)
            if isinstance(value, list):
                return [-v for v in value]
            return -value
        if isinstance(expr, MBinary):
            left = _as_vector(self.eval(expr.left))
            right = _as_vector(self.eval(expr.right))
            n = max(len(left), len(right))
            if len(left) == 1:
                left = left * n
            if len(right) == 1:
                right = right * n
            if len(left) != len(right):
                raise MInterpreterError("operand lengths differ")
            out = [_elementwise(expr.op, a, b) for a, b in zip(left, right)]
            return out if n > 1 else out[0]
        if isinstance(expr, MCompose):
            return self._compose([self.eval(e) for e in expr.elements])
        if isinstance(expr, MApply):
            return self._apply(expr)
        raise MInterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _compose(self, blocks: List[Any]) -> Any:
        if blocks and not any(isinstance(b, (list, Matrix)) for b in blocks):
            return blocks  # [1 3]: a row vector, like 1:2
        columns: List[List[Any]] = []
        nrow = None
        for block in blocks:
            if isinstance(block, Matrix):
                block_columns = [list(block.col(i + 1)) for i in range(block.ncol)]
            else:
                block_columns = [_as_vector(block)]
            for column in block_columns:
                if nrow is None:
                    nrow = len(column)
                elif len(column) != nrow:
                    raise MInterpreterError("composition blocks differ in height")
                columns.append(column)
        if nrow is None:
            return Matrix([])
        rows = [tuple(column[i] for column in columns) for i in range(nrow)]
        return Matrix.from_rows(rows)

    def _apply(self, expr: MApply) -> Any:
        bound = self.env.get(expr.name)
        if isinstance(bound, Matrix):
            return self._index(bound, [self.eval(a) for a in expr.args])
        if expr.name in self._functions:
            return self._functions[expr.name]([self.eval(a) for a in expr.args])
        if expr.name in _M_TF_TO_EXL:
            return self._table_function(
                _M_TF_TO_EXL[expr.name], [self.eval(a) for a in expr.args], {}
            )
        if expr.name.startswith("exl_"):
            return self._exl_generic(expr)
        # element-wise scalar function from the registry (exp, abs, …)
        if expr.name in self.registry:
            spec = self.registry.get(expr.name)
            if spec.kind in (OpKind.SCALAR, OpKind.DIM_FUNCTION):
                vectors = [_as_vector(self.eval(a)) for a in expr.args]
                length = max(len(v) for v in vectors)
                vectors = [v * length if len(v) == 1 else v for v in vectors]
                out = [spec.impl(*vals) for vals in zip(*vectors)]
                return out if length > 1 else out[0]
        raise MInterpreterError(f"unknown function or variable {expr.name!r}")

    def _index(self, matrix: Matrix, args: List[Any]) -> Any:
        if len(args) != 2:
            raise MInterpreterError("matrix indexing needs two subscripts")
        rows, cols = args
        if not isinstance(rows, _Colon):
            raise MInterpreterError("only m(:, k) indexing is supported")
        position = int(self._scalar(cols))
        return list(matrix.col(position))

    # -- runtime library ------------------------------------------------------
    def _fn_join(self, args: List[Any]) -> Matrix:
        left, left_keys, right, right_keys = args
        left_keys = [int(k) for k in _as_vector(left_keys)]
        right_keys = [int(k) for k in _as_vector(right_keys)]
        return left.join(right, left_keys, right_keys)

    def _fn_sortrows(self, args: List[Any]) -> Matrix:
        matrix, key = args
        return matrix.sort_by([int(self._scalar(key))])

    def _fn_exl_aggregate(self, args: List[Any]) -> Matrix:
        matrix, keys, value_position, func_name = args
        keys = [int(k) for k in _as_vector(keys)]
        exl_name = _M_AGG_TO_EXL.get(str(func_name), str(func_name))
        return matrix.group_aggregate(
            keys, int(self._scalar(value_position)), get_aggregate(exl_name)
        )

    def _fn_exl_outercombine(self, args: List[Any]) -> Matrix:
        left, left_keys, left_value, right, right_keys, right_value, op, default = args
        left_keys = [int(k) for k in _as_vector(left_keys)]
        right_keys = [int(k) for k in _as_vector(right_keys)]
        left_value = int(self._scalar(left_value))
        right_value = int(self._scalar(right_value))
        default = float(default)
        left_map = {
            tuple(row[k - 1] for k in left_keys): float(row[left_value - 1])
            for row in left.rows()
        }
        right_map = {
            tuple(row[k - 1] for k in right_keys): float(row[right_value - 1])
            for row in right.rows()
        }
        combine = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
        }.get(str(op))
        if combine is None:
            raise MInterpreterError(f"unsupported outer operator {op!r}")
        rows = [
            key
            + (combine(left_map.get(key, default), right_map.get(key, default)),)
            for key in left_map.keys() | right_map.keys()
        ]
        return Matrix.from_rows(rows) if rows else Matrix([])

    def _fn_arrayfun(self, args: List[Any]) -> List[Any]:
        handle, values = args[0], _as_vector(args[1])
        if not isinstance(handle, _Handle):
            raise MInterpreterError("arrayfun needs a function handle")
        spec = self.registry.get(handle.name)
        if spec.kind not in (OpKind.SCALAR, OpKind.DIM_FUNCTION):
            raise MInterpreterError(
                f"arrayfun handle @{handle.name} is not a scalar function"
            )
        return [spec.impl(v) for v in values]

    def _table_function(self, exl_name: str, args: List[Any], params: Dict) -> Matrix:
        matrix = args[0]
        if not isinstance(matrix, Matrix) or matrix.ncol < 2:
            raise MInterpreterError(
                f"{exl_name} expects a (time, value) matrix"
            )
        spec = self.registry.get(exl_name)
        series = [(row[0], float(row[-1])) for row in matrix.rows()]
        resolved = dict(params)
        if any(name == "period" for name, _req in spec.params) and "period" not in resolved:
            first = series[0][0] if series else None
            if isinstance(first, TimePoint):
                period = period_for_frequency(first.freq)
                if period is not None:
                    resolved["period"] = period
            if "period" not in resolved:
                raise MInterpreterError(
                    f"{exl_name}: cannot infer the seasonal period"
                )
        result = spec.impl(series, resolved)
        return Matrix.from_rows([(p, float(v)) for p, v in result])

    def _exl_generic(self, expr: MApply) -> Matrix:
        """``exl_<tf>(matrix, param…)`` with positional parameters."""
        name = expr.name[len("exl_"):]
        spec = self.registry.get(name)
        values = [self.eval(a) for a in expr.args]
        params = {
            param_name: values[i + 1]
            for i, (param_name, _req) in enumerate(spec.params)
            if i + 1 < len(values)
        }
        return self._table_function(name, values[:1], params)


def run_m_script(
    source: str,
    matrices: Dict[str, Matrix],
    registry: Optional[OperatorRegistry] = None,
) -> Dict[str, Any]:
    """Parse and run a Matlab script with the given matrices in scope."""
    interpreter = MInterpreter(registry)
    interpreter.env.update(matrices)
    return interpreter.run_source(source)
