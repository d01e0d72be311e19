"""The R backend (Section 5.2).

Each tgd is compiled to the dataframe IR and rendered as an R script
(``merge`` + column arithmetic on data frames, ``stl`` for seasonal
decomposition — the exact idioms of the paper's listings); running a
tgd interprets that text (``repro.rscript``) on the from-scratch frame
engine, so ``exl compile --target r`` prints what ``exl run`` executes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..errors import BackendError
from ..frames import DataFrame
from ..mappings.dependencies import Tgd
from ..mappings.mapping import SchemaMapping
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

__all__ = ["RBackend"]

# R spellings of EXL aggregation functions; R's var / sd divide by n - 1,
# so EXL's population statistics (and the aggregates base R lacks) come
# from the exl runtime library for R, like exl.<table function>
_R_AGG = {
    "avg": "mean",
    "mean": "mean",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "count": "length",
    "median": "median",
    "stddev": "exl.stddev",
    "var": "exl.var",
    "product": "prod",
    "range": "exl.range",
    "geomean": "exl.geomean",
}

# R spellings of EXL scalar functions; anything missing is assumed to be
# provided by the exl runtime library for R (quarter(), etc.)
_R_SCALAR = {
    "ln": "log",
    "log": "log",
    "exp": "exp",
    "abs": "abs",
    "sqrt": "sqrt",
    "sin": "sin",
    "cos": "cos",
    "round": "round",
    "pow": "`^`",
}


class RBackend(Backend):
    """Generates R scripts and interprets them on the frame engine."""

    name = "r"

    def new_store(self, mapping: SchemaMapping) -> Dict[str, DataFrame]:
        return {}

    def load_cube(self, store: Dict[str, DataFrame], cube: Cube) -> None:
        store[cube.schema.name] = DataFrame(
            dict(zip(cube.schema.columns, cube.to_columns()))
        )

    def extract_cube(self, store: Dict[str, DataFrame], schema: CubeSchema) -> Cube:
        if schema.name not in store:
            raise BackendError(f"frame store has no table {schema.name!r}")
        frame = store[schema.name]
        return Cube.from_value_columns(
            schema, [frame.column(name) for name in frame.names], frame.rows
        )

    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        text = render_r(compile_tgd_to_ir(tgd, mapping), mapping)
        target = tgd.target_relation
        operands = {atom.relation for atom in tgd.lhs}

        def runner(store, _text=text, _registry=mapping.registry, _target=target):
            # imported here: ``exl show`` / ``exl compile`` render text only
            from ..rscript import RInterpreter

            interpreter = RInterpreter(_registry)
            interpreter.env.update({name: store[name] for name in operands})
            frame = interpreter.run_source(_text).get(_target)
            if not isinstance(frame, DataFrame):
                raise BackendError(
                    f"R script for {_target} did not produce a data.frame"
                )
            store[_target] = frame

        return CompiledTgd(tgd.label, text, runner)


def render_r(ir: IrProgram, mapping: SchemaMapping) -> str:
    """Render one tgd's IR as an R script."""
    lines: List[str] = []
    for op in ir:
        lines.extend(_render_op(op, mapping))
    return "\n".join(lines)


def _render_op(op, mapping: SchemaMapping) -> List[str]:
    if isinstance(op, LoadOp):
        return [f"{op.out} <- {op.table}"]
    if isinstance(op, MergeOp):
        keys = ", ".join(f'"{k}"' for k in op.by)
        return [f"{op.out} <- merge({op.left}, {op.right}, by=c({keys}))"]
    if isinstance(op, OuterCombineOp):
        keys = ", ".join(f'"{k}"' for k in op.by)
        default = op.default
        # merge() suffixes colliding non-key names with .x/.y
        collide = op.left_value == op.right_value
        left_value = f"{op.left_value}.x" if collide else op.left_value
        right_value = f"{op.right_value}.y" if collide else op.right_value
        return [
            f"{op.out} <- merge({op.left}, {op.right}, by=c({keys}), all=TRUE)",
            f'{op.out}[["{left_value}"]][is.na({op.out}[["{left_value}"]])] <- {default}',
            f'{op.out}[["{right_value}"]][is.na({op.out}[["{right_value}"]])] <- {default}',
            f'{op.out}${_r_name(op.out_column)} <- {op.out}[["{left_value}"]] {op.op} {op.out}[["{right_value}"]]',
        ]
    if isinstance(op, ComputeOp):
        expr = _render_expr(op.expr, op.frame)
        prefix = "" if op.out == op.frame else f"{op.out} <- {op.frame}\n"
        return [f"{prefix}{op.out}${_r_name(op.column)} <- {expr}"]
    if isinstance(op, DropOp):
        doomed = ", ".join(f'"{c}"' for c in op.columns)
        return [
            f"{op.out} <- {op.frame}[, setdiff(names({op.frame}), c({doomed}))]"
        ]
    if isinstance(op, RenameOp):
        lines = [] if op.out == op.frame else [f"{op.out} <- {op.frame}"]
        for old, new in op.mapping:
            lines.append(f'names({op.out})[names({op.out}) == "{old}"] <- "{new}"')
        return lines
    if isinstance(op, GroupAggOp):
        return _render_group(op)
    if isinstance(op, TableFuncOp):
        return _render_table_func(op)
    if isinstance(op, StoreOp):
        target = mapping.target[op.table]
        pairs = ", ".join(
            f"{t}={op.frame}[[\"{c}\"]]"
            for c, t in zip(op.columns, target.columns)
        )
        return [f"{op.table} <- data.frame({pairs})"]
    raise BackendError(f"cannot render IR op {type(op).__name__} in R")


def _render_group(op: GroupAggOp) -> List[str]:
    lines: List[str] = [f"tmpg <- {op.frame}"]
    by_parts = []
    for source, out, transform in op.keys:
        if transform is not None:
            lines.append(f'tmpg${_r_name(out)} <- {transform}(tmpg[["{source}"]])')
            by_parts.append(f'{out}=tmpg[["{out}"]]')
        else:
            by_parts.append(f'{out}=tmpg[["{source}"]]')
    func = _R_AGG.get(op.func, op.func)
    lines.append(
        f'{op.out} <- aggregate(tmpg[["{op.value_column}"]], '
        f"by=list({', '.join(by_parts)}), FUN={func})"
    )
    lines.append(f'names({op.out})[ncol({op.out})] <- "{op.out_column}"')
    return lines


def _render_table_func(op: TableFuncOp) -> List[str]:
    params = dict(op.params)
    ordered = (
        f'{op.frame}[order({op.frame}[["{op.time_column}"]]), ]'
    )
    lines = [f"tmps <- {ordered}"]
    if op.function in ("stl_t", "stl_s", "stl_r"):
        component = {"stl_t": "trend", "stl_s": "seasonal", "stl_r": "remainder"}[
            op.function
        ]
        period = params.get("period", 4)
        lines.append(
            f'tss <- ts(tmps[["{op.value_column}"]], frequency={period})'
        )
        lines.append('dec <- stl(tss, "periodic")')
        lines.append(
            f"{op.out} <- data.frame({op.time_column}=tmps[[\"{op.time_column}\"]], "
            f'{op.out_column}=as.numeric(dec$time.series[, "{component}"]))'
        )
        return lines
    # other whole-series operators come from the exl runtime library for R
    args = "".join(f", {k}={_r_literal(v)}" for k, v in params.items())
    lines.append(
        f'{op.out} <- exl.{op.function}(tmps, "{op.time_column}", '
        f'"{op.value_column}", "{op.out_column}"{args})'
    )
    return lines


def _render_expr(expr: ColExpr, frame: str) -> str:
    if isinstance(expr, ColRef):
        return f'{frame}[["{expr.name}"]]'
    if isinstance(expr, ConstExpr):
        return _r_literal(expr.value)
    if isinstance(expr, BinExpr):
        left = _render_expr(expr.left, frame)
        right = _render_expr(expr.right, frame)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, CallExpr):
        name = _R_SCALAR.get(expr.name, expr.name)
        args = ", ".join(_render_expr(a, frame) for a in expr.args)
        if expr.name == "log" and len(expr.args) == 2:
            # EXL log(value, base) -> R log(value, base=...)
            value, base = (
                _render_expr(expr.args[0], frame),
                _render_expr(expr.args[1], frame),
            )
            return f"log({value}, base={base})"
        return f"{name}({args})"
    raise BackendError(f"cannot render IR expression {expr!r} in R")


def _r_literal(value: Any) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _r_name(name: str) -> str:
    if name.isidentifier():
        return name
    return f"`{name}`"
