"""IR executors: run compiled IR programs on the frame and matrix engines."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from ..errors import BackendError
from ..exl.operators import OperatorRegistry, OpKind
from ..frames import DataFrame
from ..model.schema import Schema
from ..model.time import TimePoint
from ..stats.aggregates import get_aggregate
from .ir import (
    BinExpr,
    CallExpr,
    ColExpr,
    ColRef,
    ComputeOp,
    ConstExpr,
    DropOp,
    GroupAggOp,
    IrProgram,
    LoadOp,
    MergeOp,
    OuterCombineOp,
    RenameOp,
    StoreOp,
    TableFuncOp,
)

if TYPE_CHECKING:
    # the matrix engine (numpy) loads with the first matrix program run,
    # not with the frame executor that shares this module
    from ..matrixengine import Matrix

__all__ = ["eval_colexpr", "combine_fn", "FrameIrExecutor", "MatrixIrExecutor"]


def combine_fn(op: str) -> Callable[[float, float], float]:
    """The element-wise combiner of an outer vectorial operator."""
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    raise BackendError(f"unsupported outer operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if isinstance(left, TimePoint) and isinstance(right, (int, float)):
        return left.shift(int(right)) if op == "+" else left.shift(-int(right))
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise BackendError("division by zero in an IR compute")
        return left / right
    if op == "^":
        return left**right
    raise BackendError(f"unknown IR operator {op!r}")


def eval_colexpr(
    expr: ColExpr,
    getcol: Callable[[str], Sequence[Any]],
    n: int,
    registry: OperatorRegistry,
) -> List[Any]:
    """Evaluate a column expression element-wise over ``n`` rows."""
    if isinstance(expr, ColRef):
        column = list(getcol(expr.name))
        if len(column) != n:
            raise BackendError(f"column {expr.name} has unexpected length")
        return column
    if isinstance(expr, ConstExpr):
        return [expr.value] * n
    if isinstance(expr, BinExpr):
        left = eval_colexpr(expr.left, getcol, n, registry)
        right = eval_colexpr(expr.right, getcol, n, registry)
        return [_arith(expr.op, a, b) for a, b in zip(left, right)]
    if isinstance(expr, CallExpr):
        spec = registry.get(expr.name)
        if spec.kind not in (OpKind.SCALAR, OpKind.DIM_FUNCTION):
            raise BackendError(
                f"only scalar functions may appear in IR computes, got {expr.name}"
            )
        arg_columns = [eval_colexpr(a, getcol, n, registry) for a in expr.args]
        return [spec.impl(*values) for values in zip(*arg_columns)]
    raise BackendError(f"cannot evaluate IR expression {expr!r}")


class FrameIrExecutor:
    """Runs IR programs on the dataframe engine (the R target)."""

    def __init__(self, registry: OperatorRegistry, schema: Schema):
        self.registry = registry
        self.schema = schema

    def run(self, program: IrProgram, store: Dict[str, DataFrame]) -> None:
        env: Dict[str, DataFrame] = {}
        for op in program:
            self._step(op, env, store)

    def _step(self, op, env: Dict[str, DataFrame], store: Dict[str, DataFrame]) -> None:
        if isinstance(op, LoadOp):
            if op.table not in store:
                raise BackendError(f"frame store has no table {op.table!r}")
            env[op.out] = store[op.table]
        elif isinstance(op, MergeOp):
            env[op.out] = env[op.left].merge(env[op.right], by=list(op.by))
        elif isinstance(op, OuterCombineOp):
            env[op.out] = env[op.left].outer_combine(
                env[op.right],
                by=list(op.by),
                left_value=op.left_value,
                right_value=op.right_value,
                combine=combine_fn(op.op),
                default=op.default,
                out_name=op.out_column,
            )
        elif isinstance(op, ComputeOp):
            frame = env[op.frame]
            values = eval_colexpr(op.expr, frame.column, frame.nrow, self.registry)
            env[op.out] = frame.assign(op.column, values)
        elif isinstance(op, DropOp):
            env[op.out] = env[op.frame].drop(list(op.columns))
        elif isinstance(op, RenameOp):
            env[op.out] = env[op.frame].rename(dict(op.mapping))
        elif isinstance(op, GroupAggOp):
            frame = env[op.frame]
            key_funcs = {
                source: self.registry.get(transform).impl
                for source, _out, transform in op.keys
                if transform is not None
            }
            result = frame.group_aggregate(
                by=[source for source, _out, _t in op.keys],
                value_column=op.value_column,
                func=get_aggregate(op.func),
                out_name=op.out_column,
                key_funcs=key_funcs,
            )
            renames = {
                source: out for source, out, _t in op.keys if source != out
            }
            env[op.out] = result.rename(renames) if renames else result
        elif isinstance(op, TableFuncOp):
            frame = env[op.frame].sort_by([op.time_column])
            series = list(zip(frame[op.time_column], frame[op.value_column]))
            spec = self.registry.get(op.function)
            result = spec.impl(series, dict(op.params))
            env[op.out] = DataFrame(
                {
                    op.time_column: [p for p, _v in result],
                    op.out_column: [float(v) for _p, v in result],
                }
            )
        elif isinstance(op, StoreOp):
            frame = env[op.frame]
            target = self.schema[op.table]
            if len(op.columns) != len(target.columns):
                raise BackendError(
                    f"store into {op.table}: {len(op.columns)} columns for "
                    f"{len(target.columns)} target columns"
                )
            store[op.table] = DataFrame(
                {
                    out: list(frame.column(col))
                    for col, out in zip(op.columns, target.columns)
                }
            )
        else:
            raise BackendError(f"unknown IR op {type(op).__name__}")


class MatrixIrExecutor:
    """Runs IR programs on the matrix engine (the Matlab target).

    Matrices are positional; the executor tracks a column-name list per
    frame variable to translate the IR's named columns.
    """

    def __init__(self, registry: OperatorRegistry, schema: Schema):
        self.registry = registry
        self.schema = schema

    def run(
        self,
        program: IrProgram,
        store: Dict[str, Tuple[Matrix, List[str]]],
    ) -> None:
        env: Dict[str, Tuple[Matrix, List[str]]] = {}
        for op in program:
            self._step(op, env, store)

    def _position(self, names: List[str], name: str) -> int:
        try:
            return names.index(name) + 1  # 1-based
        except ValueError:
            raise BackendError(f"matrix has no column {name!r} (has {names})") from None

    def _step(self, op, env, store) -> None:
        from ..matrixengine import Matrix

        if isinstance(op, LoadOp):
            if op.table not in store:
                raise BackendError(f"matrix store has no table {op.table!r}")
            env[op.out] = store[op.table]
        elif isinstance(op, MergeOp):
            left, left_names = env[op.left]
            right, right_names = env[op.right]
            self_keys = [self._position(left_names, k) for k in op.by]
            other_keys = [self._position(right_names, k) for k in op.by]
            joined = left.join(right, self_keys, other_keys)
            right_extra = [n for n in right_names if n not in op.by]
            collide = (set(left_names) - set(op.by)) & set(right_extra)
            out_names = [
                f"{n}.x" if n in collide else n for n in left_names
            ] + [f"{n}.y" if n in collide else n for n in right_extra]
            env[op.out] = (joined, out_names)
        elif isinstance(op, OuterCombineOp):
            left, left_names = env[op.left]
            right, right_names = env[op.right]
            by_left = [self._position(left_names, k) for k in op.by]
            by_right = [self._position(right_names, k) for k in op.by]
            left_value = self._position(left_names, op.left_value)
            right_value = self._position(right_names, op.right_value)
            combine = combine_fn(op.op)
            left_map = {
                tuple(row[p - 1] for p in by_left): float(row[left_value - 1])
                for row in left.rows()
            }
            right_map = {
                tuple(row[p - 1] for p in by_right): float(row[right_value - 1])
                for row in right.rows()
            }
            rows = [
                key
                + (
                    combine(
                        left_map.get(key, op.default),
                        right_map.get(key, op.default),
                    ),
                )
                for key in left_map.keys() | right_map.keys()
            ]
            env[op.out] = (
                Matrix.from_rows(rows) if rows else Matrix([]),
                list(op.by) + [op.out_column],
            )
        elif isinstance(op, ComputeOp):
            matrix, names = env[op.frame]

            def getcol(name: str, matrix=matrix, names=names):
                return list(matrix.col(self._position(names, name)))

            values = eval_colexpr(op.expr, getcol, matrix.nrow, self.registry)
            if op.column in names:
                updated = matrix.with_column(self._position(names, op.column), values)
                env[op.out] = (updated, list(names))
            else:
                updated = matrix.with_column(matrix.ncol + 1, values)
                env[op.out] = (updated, list(names) + [op.column])
        elif isinstance(op, DropOp):
            matrix, names = env[op.frame]
            keep = [n for n in names if n not in op.columns]
            positions = [self._position(names, n) for n in keep]
            env[op.out] = (matrix.select(positions), keep)
        elif isinstance(op, RenameOp):
            matrix, names = env[op.frame]
            mapping = dict(op.mapping)
            env[op.out] = (matrix, [mapping.get(n, n) for n in names])
        elif isinstance(op, GroupAggOp):
            matrix, names = env[op.frame]
            key_positions = [self._position(names, s) for s, _o, _t in op.keys]
            key_funcs = {
                self._position(names, source): self.registry.get(transform).impl
                for source, _out, transform in op.keys
                if transform is not None
            }
            result = matrix.group_aggregate(
                key_positions,
                self._position(names, op.value_column),
                get_aggregate(op.func),
                key_funcs,
            )
            env[op.out] = (result, [o for _s, o, _t in op.keys] + [op.out_column])
        elif isinstance(op, TableFuncOp):
            matrix, names = env[op.frame]
            time_pos = self._position(names, op.time_column)
            value_pos = self._position(names, op.value_column)
            ordered = matrix.sort_by([time_pos])
            series = [
                (row[time_pos - 1], float(row[value_pos - 1]))
                for row in ordered.rows()
            ]
            spec = self.registry.get(op.function)
            result = spec.impl(series, dict(op.params))
            env[op.out] = (
                Matrix.from_rows([(p, float(v)) for p, v in result])
                if result
                else Matrix([]),
                [op.time_column, op.out_column],
            )
        elif isinstance(op, StoreOp):
            matrix, names = env[op.frame]
            target = self.schema[op.table]
            positions = [self._position(names, c) for c in op.columns]
            store[op.table] = (matrix.select(positions), list(target.columns))
        else:
            raise BackendError(f"unknown IR op {type(op).__name__}")
