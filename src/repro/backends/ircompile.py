"""Compilation of tgds into the dataframe IR.

Works on *normalized* mappings (one operator per tgd, lhs atoms made of
plain variables) — the form the generator emits before simplification.
The structure per tgd kind:

* COPY            → load, store
* scalar / shift  → load, compute derived columns, store
* vectorial       → load ×2, merge on dimensions, compute, store
* aggregation     → load, group-aggregate (with key transforms), store
* table function  → load, whole-frame transform, store

``StoreOp`` is positional: the listed frame columns are written, in
order, under the *target* cube's column names, so no renames are needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import BackendError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Term, Var
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
    """Translate one single-operator tgd into an :class:`IrProgram`."""
    target_schema = mapping.target[tgd.target_relation]
    if tgd.kind is TgdKind.COPY:
        return _copy(tgd, mapping)
    if tgd.kind is TgdKind.TUPLE_LEVEL:
        if len(tgd.lhs) == 1:
            return _single_atom(tgd, mapping, target_schema)
        if len(tgd.lhs) == 2:
            return _vectorial(tgd, mapping, target_schema)
        raise BackendError(
            f"tgd {tgd.label}: IR compilation handles at most two lhs atoms; "
            f"compile from the normalized (unsimplified) mapping"
        )
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


def _var_columns(atom: Atom, schema: CubeSchema) -> Dict[str, str]:
    """Map each lhs variable to the column it binds in the atom's frame."""
    columns = schema.columns
    out: Dict[str, str] = {}
    for term, column in zip(atom.terms, columns):
        if not isinstance(term, Var):
            raise BackendError(
                f"lhs term {term} is not a variable; compile from the "
                f"normalized mapping"
            )
        out.setdefault(term.name, column)
    return out


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


def _single_atom(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    atom = tgd.lhs[0]
    schema = mapping.target[atom.relation]
    varmap = _var_columns(atom, schema)
    (t1,) = _frames(tgd, "t1")
    ops: List = [LoadOp(atom.relation, t1)]
    _project_and_store(ops, t1, tgd, varmap, target_schema)
    return IrProgram(tgd.label, ops)


def _vectorial(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    left_atom, right_atom = tgd.lhs
    left_schema = mapping.target[left_atom.relation]
    right_schema = mapping.target[right_atom.relation]
    left_map = _var_columns(left_atom, left_schema)
    right_map = _var_columns(right_atom, right_schema)
    # join keys: variables bound by both atoms (the shared dimensions)
    shared_vars = [
        term.name
        for term in left_atom.terms
        if isinstance(term, Var) and term.name in right_map
    ]
    by = tuple(left_map[v] for v in shared_vars)
    for v in shared_vars:
        if right_map[v] != left_map[v]:
            raise BackendError(
                f"tgd {tgd.label}: join keys must share column names "
                f"({left_map[v]} vs {right_map[v]})"
            )
    t1, t2, t1r, t2r, t3 = _frames(tgd, "t1", "t2", "t1r", "t2r", "t3")
    ops: List = [
        LoadOp(left_atom.relation, t1),
        LoadOp(right_atom.relation, t2),
    ]
    # rename colliding non-key columns before the merge, so every engine
    # (frames, matrices, ETL streams) sees collision-free field names
    key_set = set(by)
    left_nonkey = set(left_schema.columns) - key_set
    right_nonkey = set(right_schema.columns) - key_set
    collide = sorted(left_nonkey & right_nonkey)
    left_renames = {c: f"{c}__l" for c in collide}
    right_renames = {c: f"{c}__r" for c in collide}
    left_frame, right_frame = t1, t2
    if collide:
        ops.append(RenameOp(t1, tuple(left_renames.items()), t1r))
        ops.append(RenameOp(t2, tuple(right_renames.items()), t2r))
        left_frame, right_frame = t1r, t2r
    ops.append(MergeOp(left_frame, right_frame, by, t3))
    varmap: Dict[str, str] = {}
    for v, column in left_map.items():
        varmap[v] = left_renames.get(column, column)
    for v, column in right_map.items():
        varmap.setdefault(v, right_renames.get(column, column))
    _project_and_store(ops, t3, tgd, varmap, target_schema)
    return IrProgram(tgd.label, ops)


def _aggregation(
    tgd: Tgd, mapping: SchemaMapping, target_schema: CubeSchema
) -> IrProgram:
    atom = tgd.lhs[0]
    schema = mapping.target[atom.relation]
    varmap = _var_columns(atom, schema)
    agg_term = tgd.rhs.terms[-1]
    if not isinstance(agg_term, AggTerm) or not isinstance(agg_term.operand, Var):
        raise BackendError(
            f"tgd {tgd.label}: aggregation rhs must be aggr(var); compile "
            f"from the normalized mapping"
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
    t1, t2 = _frames(tgd, "t1", "t2")
    ops = [
        LoadOp(atom.relation, t1),
        GroupAggOp(
            t1,
            keys,
            varmap[agg_term.operand.name],
            agg_term.func,
            target_schema.measure,
            t2,
        ),
        StoreOp(
            t2,
            tgd.target_relation,
            tuple(k[1] for k in keys) + (target_schema.measure,),
        ),
    ]
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
