"""The Matlab backend (Section 5.2).

Renders each tgd's IR as a Matlab script over positional matrices —
``join``, element-wise ``.*`` arithmetic and horizontal composition,
as in the paper's listing — and runs a tgd by interpreting that text
(``repro.mscript``) on the numpy matrix engine.  The renderer tracks
each variable's column layout so emitted positions are correct.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

from ..errors import BackendError
from ..mappings.dependencies import Tgd
from ..mappings.mapping import SchemaMapping
from ..matrixengine import Matrix
from ..model.cube import Cube, CubeSchema
from .base import Backend, CompiledTgd
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
from .ircompile import compile_tgd_to_ir

__all__ = ["MatlabBackend"]

_M_AGG = {
    "avg": "mean",
    "mean": "mean",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "count": "numel",
    "median": "median",
    "stddev": "std",
    "var": "var",
    "product": "prod",
}

_M_TF = {
    "stl_t": "isolateTrend",
    "stl_s": "isolateSeasonal",
    "stl_r": "isolateRemainder",
}


class MatlabBackend(Backend):
    """Generates Matlab scripts and interprets them on the matrix engine."""

    name = "matlab"

    def new_store(self, mapping: SchemaMapping) -> Dict[str, Matrix]:
        return {}

    def load_cube(self, store: Dict[str, Matrix], cube: Cube) -> None:
        store[cube.schema.name] = Matrix.from_columns(cube.to_columns())

    def extract_cube(self, store: Dict[str, Matrix], schema: CubeSchema) -> Cube:
        if schema.name not in store:
            raise BackendError(f"matrix store has no table {schema.name!r}")
        matrix = store[schema.name]
        return Cube.from_value_columns(schema, matrix.columns(), matrix.rows)

    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        text = render_matlab(compile_tgd_to_ir(tgd, mapping), mapping)
        target = tgd.target_relation
        operands = {atom.relation for atom in tgd.lhs}

        def runner(store, _text=text, _registry=mapping.registry, _target=target):
            # imported here: ``exl show`` / ``exl compile`` render text only
            from ..mscript import MInterpreter

            interpreter = MInterpreter(_registry)
            interpreter.env.update({name: store[name] for name in operands})
            matrix = interpreter.run_source(_text).get(_target)
            if not isinstance(matrix, Matrix):
                raise BackendError(
                    f"Matlab script for {_target} did not produce a matrix"
                )
            store[_target] = matrix

        return CompiledTgd(tgd.label, text, runner)


def render_matlab(ir: IrProgram, mapping: SchemaMapping) -> str:
    """Render one tgd's IR as a Matlab script (positions are 1-based)."""
    renderer = _MatlabRenderer(mapping)
    lines: List[str] = []
    for op in ir:
        lines.extend(renderer.render(op))
    # a Matlab variable hides the function of its name: a cube the
    # script goes on to call (``join``) is cleared after the loads,
    # which come first, one line each
    tables = [op.table for op in ir if isinstance(op, LoadOp)]
    called = [
        table
        for table in dict.fromkeys(tables)
        if re.search(rf"(?<![\w.]){table}\(", "\n".join(lines))
    ]
    if called:
        lines.insert(len(tables), f"clear {' '.join(called)};")
    return "\n".join(lines)


class _MatlabRenderer:
    """Tracks the column layout of each script variable."""

    def __init__(self, mapping: SchemaMapping):
        self.mapping = mapping
        self.layout: Dict[str, List[str]] = {}

    def _pos(self, frame: str, column: str) -> int:
        names = self.layout[frame]
        try:
            return names.index(column) + 1
        except ValueError:
            raise BackendError(
                f"renderer: frame {frame} has no column {column!r}"
            ) from None

    def render(self, op) -> List[str]:
        if isinstance(op, LoadOp):
            self.layout[op.out] = list(self.mapping.target[op.table].columns)
            return [f"{op.out} = {op.table};"]
        if isinstance(op, MergeOp):
            left_names = self.layout[op.left]
            right_names = self.layout[op.right]
            left_keys = [left_names.index(k) + 1 for k in op.by]
            right_keys = [right_names.index(k) + 1 for k in op.by]
            right_extra = [n for n in right_names if n not in op.by]
            collide = (set(left_names) - set(op.by)) & set(right_extra)
            self.layout[op.out] = [
                f"{n}.x" if n in collide else n for n in left_names
            ] + [f"{n}.y" if n in collide else n for n in right_extra]
            return [
                f"{op.out} = join({op.left}, {_mat_range(left_keys)}, "
                f"{op.right}, {_mat_range(right_keys)});"
            ]
        if isinstance(op, OuterCombineOp):
            left_names = self.layout[op.left]
            right_names = self.layout[op.right]
            left_keys = [left_names.index(k) + 1 for k in op.by]
            right_keys = [right_names.index(k) + 1 for k in op.by]
            left_value = left_names.index(op.left_value) + 1
            right_value = right_names.index(op.right_value) + 1
            self.layout[op.out] = list(op.by) + [op.out_column]
            return [
                f"{op.out} = exl_outercombine({op.left}, {_mat_range(left_keys)}, "
                f"{left_value}, {op.right}, {_mat_range(right_keys)}, "
                f"{right_value}, '{op.op}', {_m_literal(op.default)});"
            ]
        if isinstance(op, ComputeOp):
            names = self.layout[op.frame]
            expr = self._expr(op.expr, op.frame)
            lines = []
            if op.out != op.frame:
                lines.append(f"{op.out} = {op.frame};")
                self.layout[op.out] = list(names)
            if op.column in self.layout[op.out]:
                position = self._pos(op.out, op.column)
            else:
                self.layout[op.out] = self.layout[op.out] + [op.column]
                position = len(self.layout[op.out])
            lines.append(f"{op.out}(:,{position}) = {expr};")
            return lines
        if isinstance(op, DropOp):
            names = self.layout[op.frame]
            keep = [n for n in names if n not in op.columns]
            positions = [names.index(n) + 1 for n in keep]
            self.layout[op.out] = keep
            parts = " ".join(f"{op.frame}(:,{p})" for p in positions)
            return [f"{op.out} = [{parts}];"]
        if isinstance(op, RenameOp):
            mapping = dict(op.mapping)
            self.layout[op.out] = [
                mapping.get(n, n) for n in self.layout[op.frame]
            ]
            if op.out == op.frame:
                return ["% columns renamed (positional model: no-op)"]
            return [f"{op.out} = {op.frame};"]
        if isinstance(op, GroupAggOp):
            return self._group(op)
        if isinstance(op, TableFuncOp):
            return self._table_func(op)
        if isinstance(op, StoreOp):
            positions = [self._pos(op.frame, c) for c in op.columns]
            parts = " ".join(f"{op.frame}(:,{p})" for p in positions)
            return [f"{op.table} = [{parts}];"]
        raise BackendError(f"cannot render IR op {type(op).__name__} in Matlab")

    def _group(self, op: GroupAggOp) -> List[str]:
        lines = [f"tmpg = {op.frame};"]
        self.layout["tmpg"] = list(self.layout[op.frame])
        for source, _out, transform in op.keys:
            if transform is not None:
                position = self._pos("tmpg", source)
                lines.append(
                    f"tmpg(:,{position}) = arrayfun(@{transform}, "
                    f"tmpg(:,{position}));"
                )
        key_positions = [self._pos("tmpg", s) for s, _o, _t in op.keys]
        value_position = self._pos("tmpg", op.value_column)
        func = _M_AGG.get(op.func, op.func)
        lines.append(
            f"{op.out} = exl_aggregate(tmpg, {_mat_range(key_positions)}, "
            f"{value_position}, '{func}');"
        )
        self.layout[op.out] = [o for _s, o, _t in op.keys] + [op.out_column]
        return lines

    def _table_func(self, op: TableFuncOp) -> List[str]:
        time_position = self._pos(op.frame, op.time_column)
        lines = [
            f"tmps = sortrows({op.frame}, {time_position});",
        ]
        self.layout["tmps"] = list(self.layout[op.frame])
        helper = _M_TF.get(op.function)
        if helper is not None:
            lines.append(f"{op.out} = {helper}(tmps);")
        else:
            params = dict(op.params)
            args = "".join(f", {_m_literal(v)}" for v in params.values())
            lines.append(f"{op.out} = exl_{op.function}(tmps{args});")
        self.layout[op.out] = [op.time_column, op.out_column]
        return lines

    def _expr(self, expr: ColExpr, frame: str) -> str:
        if isinstance(expr, ColRef):
            return f"{frame}(:,{self._pos(frame, expr.name)})"
        if isinstance(expr, ConstExpr):
            return _m_literal(expr.value)
        if isinstance(expr, BinExpr):
            left = self._expr(expr.left, frame)
            right = self._expr(expr.right, frame)
            op = {"+": "+", "-": "-", "*": ".*", "/": "./", "^": ".^"}[expr.op]
            return f"({left} {op} {right})"
        if isinstance(expr, CallExpr):
            args = ", ".join(self._expr(a, frame) for a in expr.args)
            if len(expr.args) == 1:
                return f"arrayfun(@{expr.name}, {args})"
            return f"{expr.name}({args})"
        raise BackendError(f"cannot render IR expression {expr!r} in Matlab")


def _mat_range(positions: List[int]) -> str:
    if positions == list(range(positions[0], positions[0] + len(positions))):
        if len(positions) == 1:
            return str(positions[0])
        return f"{positions[0]}:{positions[-1]}"
    return "[" + " ".join(str(p) for p in positions) + "]"


def _m_literal(value: Any) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)
