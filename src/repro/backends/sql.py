"""The SQL backend (Section 5.1).

Translates each tgd into an ``INSERT INTO … SELECT`` statement:

* tuple-level tgds become joins with equality conditions derived from
  repeated variables (tgd (2) of the paper);
* aggregation tgds become ``GROUP BY`` queries (tgd (3));
* table-function tgds use the extended dialect's tabular functions in
  FROM (tgd (4): ``SELECT q, g FROM STL_T(GDP)``).

It translates the *composed* tgds every target executes: a function
term such as ``q - 1`` inside an lhs atom becomes a join condition, or —
when no other atom binds ``q`` — the binding ``C1.q + 1``, reproducing
the paper's PCHNG statement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import BackendError
from ..mappings.dependencies import Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Term, Var, unshift
from ..model.cube import Cube, CubeSchema
from ..model.types import DimKind
from ..sqlengine import Column, Database, SqlType, Table, sql_repr
from .base import Backend, CompiledTgd

__all__ = ["SqlBackend"]

_ARITH = {"+", "-", "*", "/", "^"}


def _sql_type(dim_kind: DimKind) -> SqlType:
    return {
        DimKind.TIME: SqlType.TIME,
        DimKind.STRING: SqlType.TEXT,
        DimKind.INTEGER: SqlType.INTEGER,
    }[dim_kind]


def _columns_for(schema: CubeSchema) -> List[Column]:
    columns = [
        Column(d.name, _sql_type(d.dtype.kind)) for d in schema.dimensions
    ]
    columns.append(Column(schema.measure, SqlType.REAL))
    return columns


class SqlBackend(Backend):
    """Generates and executes SQL on the mini relational engine."""

    name = "sql"

    # -- engine plumbing ------------------------------------------------
    def new_store(self, mapping: SchemaMapping) -> Database:
        db = Database()
        for schema in mapping.target:
            db.create_table(schema.name, _columns_for(schema))
        self._register_tabular_functions(db, mapping)
        return db

    def load_cube(self, store: Database, cube: Cube) -> None:
        store.table(cube.schema.name).insert_columns(cube.to_columns())

    def extract_cube(self, store: Database, schema: CubeSchema) -> Cube:
        rows = store.table(schema.name).rows
        return Cube.from_value_columns(schema, list(zip(*rows)), lambda: rows)

    def _register_tabular_functions(
        self, db: Database, mapping: SchemaMapping
    ) -> None:
        for tgd in mapping.target_tgds:
            if tgd.kind is not TgdKind.TABLE_FUNCTION:
                continue
            spec = mapping.registry.get(tgd.table_function)
            param_order = [name for name, _req in spec.params]

            def adapter(table, *args, _spec=spec, _order=param_order):
                params = dict(zip(_order, args))
                rows = sorted(table.rows, key=lambda r: r[0].ordinal)
                series = [(row[0], row[-1]) for row in rows]
                result = _spec.impl(series, params)
                time, measure = table.column_names[0], table.column_names[-1]
                out = Table(
                    f"{_spec.name}_result",
                    [Column(time, SqlType.TIME), Column(measure, SqlType.REAL)],
                )
                out.insert_many((p, float(v)) for p, v in result)
                return out

            if not db.functions.is_tabular(spec.name):
                db.functions.register_tabular(spec.name, adapter, spec.doc)

    # -- translation ----------------------------------------------------------
    def compile_tgd(self, tgd: Tgd, mapping: SchemaMapping) -> CompiledTgd:
        sql = self.sql_for(tgd, mapping)
        return CompiledTgd(tgd.label, sql, lambda db, s=sql: db.execute_script(s))

    def sql_for(self, tgd: Tgd, mapping: SchemaMapping) -> str:
        """The INSERT statement implementing one tgd."""
        target = mapping.target[tgd.target_relation]
        if tgd.kind is TgdKind.TABLE_FUNCTION:
            return self._table_function_sql(tgd, mapping, target)
        if tgd.kind is TgdKind.AGGREGATION:
            return self._aggregation_sql(tgd, mapping, target)
        if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
            return self._outer_sql(tgd, mapping, target)
        return self._tuple_level_sql(tgd, mapping, target)

    def _outer_sql(
        self, tgd: Tgd, mapping: SchemaMapping, target: CubeSchema
    ) -> str:
        """Default-valued vectorial operator: the union of an inner join
        and two LEFT JOIN anti-join passes padding the missing side."""
        left_atom, right_atom = tgd.lhs
        left = mapping.target[left_atom.relation]
        right = mapping.target[right_atom.relation]
        dims = [d.name for d in left.dimensions]
        on = " AND ".join(f"C1.{d} = C2.{d}" for d in dims) or "1 = 1"
        op = tgd.outer_op
        default = sql_repr(tgd.outer_default)
        columns = ", ".join(target.columns)
        def select_list(prefix: str, measure_expr: str) -> str:
            parts = [f"{prefix}.{d}" for d in dims] + [measure_expr]
            return ", ".join(parts)

        inner = (
            f"INSERT INTO {target.name}({columns})\n"
            f"SELECT {select_list('C1', f'C1.{left.measure} {op} C2.{right.measure}')}\n"
            f"FROM {left.name} C1, {right.name} C2"
        )
        if dims:
            inner += "\nWHERE " + " AND ".join(f"C1.{d} = C2.{d}" for d in dims)
        left_only = (
            f"INSERT INTO {target.name}({columns})\n"
            f"SELECT {select_list('C1', f'C1.{left.measure} {op} {default}')}\n"
            f"FROM {left.name} C1 LEFT JOIN {right.name} C2 ON {on}\n"
            f"WHERE C2.{right.measure} IS NULL"
        )
        right_only = (
            f"INSERT INTO {target.name}({columns})\n"
            f"SELECT {select_list('C2', f'{default} {op} C2.{right.measure}')}\n"
            f"FROM {right.name} C2 LEFT JOIN {left.name} C1 ON {on}\n"
            f"WHERE C1.{left.measure} IS NULL"
        )
        return f"{inner};\n{left_only};\n{right_only};"

    def _tuple_level_sql(
        self, tgd: Tgd, mapping: SchemaMapping, target: CubeSchema
    ) -> str:
        aliases = [f"C{i + 1}" for i in range(len(tgd.lhs))]
        bindings, conditions = self._bind_lhs(tgd.lhs, aliases, mapping)
        select_items = []
        for term, column in zip(tgd.rhs.terms, target.columns):
            select_items.append(
                f"{self._render(term, bindings)} AS {column}"
            )
        from_clause = ", ".join(
            f"{atom.relation} {alias}" for atom, alias in zip(tgd.lhs, aliases)
        )
        sql = (
            f"INSERT INTO {target.name}({', '.join(target.columns)})\n"
            f"SELECT {', '.join(select_items)}\n"
            f"FROM {from_clause}"
        )
        if conditions:
            sql += "\nWHERE " + " AND ".join(conditions)
        return sql + ";"

    def _aggregation_sql(
        self, tgd: Tgd, mapping: SchemaMapping, target: CubeSchema
    ) -> str:
        aliases = ["C1"]
        bindings, conditions = self._bind_lhs(tgd.lhs, aliases, mapping)
        group_terms = tgd.rhs.terms[: tgd.group_arity]
        agg_term = tgd.rhs.terms[-1]
        if not isinstance(agg_term, AggTerm):
            raise BackendError(f"tgd {tgd.label}: bad aggregation rhs")
        select_items = [
            f"{self._render(term, bindings)} AS {column}"
            for term, column in zip(group_terms, target.columns)
        ]
        select_items.append(
            f"{agg_term.func.upper()}({self._render(agg_term.operand, bindings)}) "
            f"AS {target.measure}"
        )
        group_exprs = [self._render(t, bindings) for t in group_terms]
        sql = (
            f"INSERT INTO {target.name}({', '.join(target.columns)})\n"
            f"SELECT {', '.join(select_items)}\n"
            f"FROM {tgd.lhs[0].relation} C1"
        )
        if conditions:
            sql += "\nWHERE " + " AND ".join(conditions)
        if group_exprs:
            sql += "\nGROUP BY " + ", ".join(group_exprs)
        return sql + ";"

    def _table_function_sql(
        self, tgd: Tgd, mapping: SchemaMapping, target: CubeSchema
    ) -> str:
        spec = mapping.registry.get(tgd.table_function)
        params = tgd.params_dict()
        args = [tgd.lhs[0].relation]
        for name, _required in spec.params:
            if name in params:
                args.append(sql_repr(params[name]))
        operand_schema = mapping.target[tgd.lhs[0].relation]
        out_cols = [operand_schema.dimensions[0].name, operand_schema.measure]
        return (
            f"INSERT INTO {target.name}({', '.join(target.columns)})\n"
            f"SELECT {', '.join(f'F.{c}' for c in out_cols)}\n"
            f"FROM {spec.name.upper()}({', '.join(args)}) F;"
        )

    # -- lhs analysis ----------------------------------------------------------
    def _bind_lhs(
        self, atoms, aliases: List[str], mapping: SchemaMapping
    ) -> Tuple[Dict[str, str], List[str]]:
        """First pass binds each variable to its first column occurrence
        (a variable that only occurs shifted, ``t - k``, binds to its
        column plus ``k``); second pass turns every other constraint into
        a WHERE condition."""
        bindings: Dict[str, str] = {}
        binding_position: Dict[str, Tuple[int, int]] = {}
        for i, (atom, alias) in enumerate(zip(atoms, aliases)):
            columns = mapping.target[atom.relation].columns
            for j, term in enumerate(atom.terms):
                if isinstance(term, Var) and term.name not in bindings:
                    bindings[term.name] = f"{alias}.{columns[j]}"
                    binding_position[term.name] = (i, j)
        shift_bound = set()
        for i, (atom, alias) in enumerate(zip(atoms, aliases)):
            columns = mapping.target[atom.relation].columns
            for j, term in enumerate(atom.terms):
                shift = unshift(term)
                if shift is not None and shift[0] not in bindings:
                    var, op, k = shift
                    bindings[var] = f"({alias}.{columns[j]} {op} {sql_repr(k)})"
                    shift_bound.add((i, j))
        conditions: List[str] = []
        for i, (atom, alias) in enumerate(zip(atoms, aliases)):
            columns = mapping.target[atom.relation].columns
            for j, term in enumerate(atom.terms):
                here = f"{alias}.{columns[j]}"
                if isinstance(term, Var):
                    if binding_position[term.name] != (i, j):
                        conditions.append(f"{here} = {bindings[term.name]}")
                elif isinstance(term, Const):
                    conditions.append(f"{here} = {sql_repr(term.value)}")
                elif (i, j) not in shift_bound:
                    conditions.append(f"{here} = {self._render(term, bindings)}")
        return bindings, conditions

    # -- term rendering -----------------------------------------------------------
    def _render(self, term: Term, bindings: Dict[str, str]) -> str:
        if isinstance(term, Var):
            try:
                return bindings[term.name]
            except KeyError:
                raise BackendError(f"unbound variable {term.name} in rhs") from None
        if isinstance(term, Const):
            return sql_repr(term.value)
        if isinstance(term, FuncApp):
            if term.name in _ARITH and len(term.args) == 2:
                left = self._render_operand(term.args[0], bindings)
                right = self._render_operand(term.args[1], bindings)
                if term.name == "^":
                    return f"POW({self._render(term.args[0], bindings)}, {self._render(term.args[1], bindings)})"
                return f"{left} {term.name} {right}"
            args = ", ".join(self._render(a, bindings) for a in term.args)
            return f"{term.name.upper()}({args})"
        raise BackendError(f"cannot render term {term!r} in SQL")

    def _render_operand(self, term: Term, bindings: Dict[str, str]) -> str:
        rendered = self._render(term, bindings)
        if isinstance(term, FuncApp) and term.name in _ARITH:
            return f"({rendered})"
        return rendered
