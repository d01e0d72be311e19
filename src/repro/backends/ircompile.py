"""Compilation of tgds into the dataframe IR.

Works on the mappings every target executes: the composed ones, whose
tgds may join several lhs atoms and whose atoms may carry a shifted
time term ``C(t - k, v)`` (the paper's tgd (5)).  The structure per tgd
kind:

* COPY            → load, store
* tuple-level     → load each atom (shifting a ``t - k`` column by
  ``+ k``), merge on the shared dimensions, compute, store
* aggregation     → load, compute the aggregated term, group-aggregate
  (with key transforms), store
* table function  → load, whole-frame transform, store

``StoreOp`` is positional: the listed frame columns are written, in
order, under the *target* cube's column names, so no renames are needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import BackendError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Term, Var, unshift
from ..model.cube import CubeSchema
from .ir import (
    BinExpr,
    CallExpr,
    ColExpr,
    ColRef,
    ComputeOp,
    ConstExpr,
    GroupAggOp,
    IrProgram,
    LoadOp,
    MergeOp,
    OuterCombineOp,
    RenameOp,
    StoreOp,
    TableFuncOp,
)

__all__ = ["compile_tgd_to_ir"]

_ARITH = {"+", "-", "*", "/", "^"}


def compile_tgd_to_ir(tgd: Tgd, mapping: SchemaMapping) -> IrProgram:
    """Translate one tgd into an :class:`IrProgram`."""
    target_schema = mapping.target[tgd.target_relation]
    if tgd.kind is TgdKind.COPY:
        return _copy(tgd, mapping)
    if tgd.kind is TgdKind.TUPLE_LEVEL:
        ops, frame, varmap = _body(tgd, mapping)
        _project_and_store(ops, frame, tgd, varmap, target_schema)
        return IrProgram(tgd.label, ops)
    if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
        return _outer_combine(tgd, mapping, target_schema)
    if tgd.kind is TgdKind.AGGREGATION:
        return _aggregation(tgd, mapping, target_schema)
    return _table_function(tgd, mapping, target_schema)


def _outer_combine(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    left_atom, right_atom = tgd.lhs
    left = mapping.target[left_atom.relation]
    right = mapping.target[right_atom.relation]
    by = tuple(d.name for d in left.dimensions)
    t1, t2, t3 = _frames(tgd, "t1", "t2", "t3")
    ops = [
        LoadOp(left_atom.relation, t1),
        LoadOp(right_atom.relation, t2),
        OuterCombineOp(
            t1,
            t2,
            by,
            left.measure,
            right.measure,
            tgd.outer_op,
            tgd.outer_default,
            target_schema.measure,
            t3,
        ),
        StoreOp(t3, tgd.target_relation, by + (target_schema.measure,)),
    ]
    return IrProgram(tgd.label, ops)


# -- helpers -----------------------------------------------------------------


def _frames(tgd: Tgd, *names: str) -> List[str]:
    """The tgd's frame variables, each renamed off its operands' names.

    The R and Matlab scripts bind frames in the namespace that holds
    the cubes: for ``C := A + t1`` a frame ``t1`` would be assigned
    (``t1 <- A``) before cube ``t1`` is read.
    """
    operands = {atom.relation for atom in tgd.lhs}
    out = []
    for name in names:
        while name in operands:
            name += "_"
        out.append(name)
    return out


def _bind_atom(ops: List, frame: str, atom: Atom, schema: CubeSchema) -> Dict[str, str]:
    """Map each variable of a loaded atom to the frame column it binds.

    A shifted term ``t - k`` binds ``t`` to its column plus ``k``: the
    column is shifted in place, so it joins and projects as ``t``.
    """
    out: Dict[str, str] = {}
    for term, column in zip(atom.terms, schema.columns):
        if isinstance(term, Var):
            out.setdefault(term.name, column)
            continue
        shift = unshift(term)
        if shift is None:
            raise BackendError(
                f"lhs term {term} is neither a variable nor a shifted variable"
            )
        var, op, k = shift
        shifted = BinExpr(op, ColRef(column), ConstExpr(k))
        ops.append(ComputeOp(frame, column, shifted, frame))
        out.setdefault(var, column)
    return out


def _body(tgd: Tgd, mapping: SchemaMapping) -> Tuple[List, str, Dict[str, str]]:
    """Load the lhs atoms and join them into one frame.

    Returns the ops, the joined frame and the column each lhs variable
    binds in it.  Atoms join on the columns of the variables they share;
    every other column two atoms have in common is renamed apart first
    (``v`` of the second atom becomes ``v__2``), so every engine (frames,
    matrices, ETL streams) sees collision-free field names.
    """
    n = len(tgd.lhs)
    loaded = _frames(tgd, *(f"t{i}" for i in range(1, n + 1)))
    renamed = _frames(tgd, *(f"t{i}r" for i in range(1, n + 1)))
    joined = _frames(tgd, *(f"t{i}" for i in range(n + 1, 2 * n)))
    ops: List = []
    schemas = [mapping.target[atom.relation] for atom in tgd.lhs]
    maps = []
    for atom, schema, frame in zip(tgd.lhs, schemas, loaded):
        ops.append(LoadOp(atom.relation, frame))
        maps.append(_bind_atom(ops, frame, atom, schema))
    if n == 1:
        return ops, loaded[0], maps[0]
    keys = {
        column
        for i, varmap in enumerate(maps)
        for var, column in varmap.items()
        if any(var in other for other in maps[:i] + maps[i + 1:])
    }
    nonkey = [set(schema.columns) - keys for schema in schemas]
    frames = list(loaded)
    for i, columns in enumerate(nonkey):
        others = set().union(*(nonkey[:i] + nonkey[i + 1:]))
        renames = {c: f"{c}__{i + 1}" for c in sorted(columns & others)}
        if renames:
            ops.append(RenameOp(loaded[i], tuple(renames.items()), renamed[i]))
            frames[i] = renamed[i]
            maps[i] = {v: renames.get(c, c) for v, c in maps[i].items()}
    frame, varmap = frames[0], dict(maps[0])
    for right, right_map, out in zip(frames[1:], maps[1:], joined):
        shared = [v for v in varmap if v in right_map]
        for v in shared:
            if right_map[v] != varmap[v]:
                raise BackendError(
                    f"tgd {tgd.label}: join keys must share column names "
                    f"({varmap[v]} vs {right_map[v]})"
                )
        ops.append(MergeOp(frame, right, tuple(varmap[v] for v in shared), out))
        frame = out
        for v, column in right_map.items():
            varmap.setdefault(v, column)
    return ops, frame, varmap


def _term_to_expr(term: Term, varmap: Dict[str, str]) -> ColExpr:
    if isinstance(term, Var):
        try:
            return ColRef(varmap[term.name])
        except KeyError:
            raise BackendError(f"unbound variable {term.name} in rhs") from None
    if isinstance(term, Const):
        return ConstExpr(term.value)
    if isinstance(term, FuncApp):
        args = tuple(_term_to_expr(a, varmap) for a in term.args)
        if term.name in _ARITH:
            return BinExpr(term.name, args[0], args[1])
        return CallExpr(term.name, args)
    raise BackendError(f"cannot compile rhs term {term!r}")


def _project_and_store(
    ops: List,
    frame: str,
    tgd: Tgd,
    varmap: Dict[str, str],
    target_schema: CubeSchema,
) -> None:
    """Emit computes for non-variable rhs terms and a positional store."""
    out_columns: List[str] = []
    current = frame
    for i, term in enumerate(tgd.rhs.terms):
        if isinstance(term, Var):
            out_columns.append(varmap[term.name])
            continue
        column = f"__o{i}"
        ops.append(ComputeOp(current, column, _term_to_expr(term, varmap), current))
        out_columns.append(column)
    ops.append(StoreOp(current, tgd.target_relation, tuple(out_columns)))


# -- per-kind compilers ------------------------------------------------------------


def _copy(tgd: Tgd, mapping: SchemaMapping) -> IrProgram:
    source = tgd.lhs[0].relation
    source_schema = mapping.target[source]
    (t1,) = _frames(tgd, "t1")
    ops = [
        LoadOp(source, t1),
        StoreOp(t1, tgd.target_relation, tuple(source_schema.columns)),
    ]
    return IrProgram(tgd.label, ops)


def _aggregation(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    ops, frame, varmap = _body(tgd, mapping)
    agg_term = tgd.rhs.terms[-1]
    if not isinstance(agg_term, AggTerm):
        raise BackendError(f"tgd {tgd.label}: aggregation rhs must be aggr(term)")
    if isinstance(agg_term.operand, Var):
        value = varmap[agg_term.operand.name]
    else:
        value = f"__o{len(tgd.rhs.terms) - 1}"
        ops.append(
            ComputeOp(frame, value, _term_to_expr(agg_term.operand, varmap), frame)
        )
    keys: List[Tuple[str, str, Optional[str]]] = []
    for i, term in enumerate(tgd.rhs.terms[: tgd.group_arity]):
        out_name = target_schema.columns[i]
        if isinstance(term, Var):
            keys.append((varmap[term.name], out_name, None))
        elif (
            isinstance(term, FuncApp)
            and len(term.args) == 1
            and isinstance(term.args[0], Var)
        ):
            keys.append((varmap[term.args[0].name], out_name, term.name))
        else:
            raise BackendError(
                f"tgd {tgd.label}: unsupported group term {term}"
            )
    (out,) = _frames(tgd, f"t{2 * len(tgd.lhs)}")
    ops.append(
        GroupAggOp(
            frame, keys, value, agg_term.func, target_schema.measure, out
        )
    )
    ops.append(
        StoreOp(
            out,
            tgd.target_relation,
            tuple(k[1] for k in keys) + (target_schema.measure,),
        )
    )
    return IrProgram(tgd.label, ops)


def _table_function(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    operand = tgd.lhs[0].relation
    schema = mapping.target[operand]
    time_column = schema.dimensions[0].name
    t1, t2 = _frames(tgd, "t1", "t2")
    ops = [
        LoadOp(operand, t1),
        TableFuncOp(
            t1,
            tgd.table_function,
            time_column,
            schema.measure,
            target_schema.measure,
            tgd.tf_params,
            t2,
        ),
        StoreOp(t2, tgd.target_relation, (time_column, target_schema.measure)),
    ]
    return IrProgram(tgd.label, ops)
