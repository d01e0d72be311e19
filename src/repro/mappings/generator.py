"""Generation of schema mappings from EXL programs (Section 4.1).

The generator consumes a *normalized* program (one operator per
statement — :func:`repro.exl.normalize_program`) and emits, per
statement, exactly one tgd whose shape depends on the operator class,
mirroring the paper's catalogue:

* ``C2 := 3 * C1``      → ``C1(x1, x2, y) -> C2(x1, x2, 3 * y)``
* ``C5 := C3 + C4``     → ``C3(x…, y1) AND C4(x…, y2) -> C5(x…, y1 + y2)``
* ``C7 := shift(C6,1)`` → ``C6(t, y) -> C7(t + 1, y)``
* aggregations          → ``C1(g…, x…, y) -> C2(g…, aggr(y))``
* table functions       → ``GDP -> GDPT(stl_T(GDP))`` (no variables)

plus one copy tgd per elementary cube (Σst) and one functionality egd
per target cube.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import MappingError
from ..exl.ast import BinOp, Call, CubeRef, Expr, Number, Statement, String
from ..exl.normalize import normalize_program
from ..exl.operators import OpKind, period_for_frequency
from ..exl.program import Program, ValidatedStatement
from ..model.cube import CubeSchema
from ..model.schema import Schema
from .dependencies import Atom, Egd, Tgd, TgdKind
from .mapping import SchemaMapping, copy_tgd
from .terms import AggTerm, Const, FuncApp, Term, Var

__all__ = ["MappingGenerator", "generate_mapping"]


class MappingGenerator:
    """Translates one normalized program into a schema mapping."""

    def __init__(self, program: Program):
        self.program = program
        self.registry = program.registry

    def generate(self) -> SchemaMapping:
        source = Schema(
            (self.program.schema[name] for name in self.program.elementary), "S"
        )
        target = self.program.schema.copy("T")
        st_tgds = [copy_tgd(source[name]) for name in self.program.elementary]
        target_tgds = [self._statement_tgd(v) for v in self.program.statements]
        egds = [Egd(cube.name, cube.arity) for cube in target]
        return SchemaMapping(
            source,
            target,
            st_tgds,
            target_tgds,
            egds,
            self.registry,
            dict(self.program.temporaries),
        )

    # -- per-statement translation ------------------------------------------
    def _statement_tgd(self, validated: ValidatedStatement) -> Tgd:
        expr = validated.expr
        target = validated.target
        if isinstance(expr, CubeRef):
            return copy_tgd(self.program.schema[expr.name], target)
        if isinstance(expr, BinOp):
            return self._binop_tgd(target, expr)
        if isinstance(expr, Call):
            return self._call_tgd(target, expr, validated.schema)
        raise MappingError(
            f"statement {target} is not in single-operator form; run "
            f"normalize_program first"
        )

    def _atom_vars(self, schema: CubeSchema, measure_var: Optional[str] = None):
        dims = [Var(d.name) for d in schema.dimensions]
        return tuple(dims + [Var(measure_var or schema.measure)])

    def _binop_tgd(self, target: str, expr: BinOp) -> Tgd:
        left_cube = isinstance(expr.left, CubeRef)
        right_cube = isinstance(expr.right, CubeRef)
        if left_cube and right_cube:
            return self._vectorial_tgd(target, expr)
        if not left_cube and not right_cube:
            raise MappingError(f"statement {target}: both operands are scalars")
        return self._scalar_binop_tgd(target, expr, left_cube)

    def _scalar_binop_tgd(self, target: str, expr: BinOp, cube_on_left: bool) -> Tgd:
        cube_expr = expr.left if cube_on_left else expr.right
        const_expr = expr.right if cube_on_left else expr.left
        if not isinstance(const_expr, Number):
            raise MappingError(
                f"statement {target}: scalar operand must be a number literal"
            )
        schema = self.program.schema[cube_expr.name]
        measure = Var(schema.measure)
        const = Const(const_expr.value)
        args = (measure, const) if cube_on_left else (const, measure)
        rhs_terms = tuple(
            [Var(d.name) for d in schema.dimensions] + [FuncApp(expr.op, args)]
        )
        return Tgd(
            [Atom(schema.name, self._atom_vars(schema))],
            Atom(target, rhs_terms),
            TgdKind.TUPLE_LEVEL,
            label=target,
        )

    def _vectorial_tgd(self, target: str, expr: BinOp) -> Tgd:
        left = self.program.schema[expr.left.name]
        right = self.program.schema[expr.right.name]
        if left.dimensions != right.dimensions:
            raise MappingError(
                f"statement {target}: vectorial operands have different dimensions"
            )
        measure_left, measure_right = _distinct_measures(left, right)
        lhs = [
            Atom(left.name, self._atom_vars(left, measure_left)),
            Atom(right.name, self._atom_vars(right, measure_right)),
        ]
        rhs_terms = tuple(
            [Var(d.name) for d in left.dimensions]
            + [FuncApp(expr.op, (Var(measure_left), Var(measure_right)))]
        )
        return Tgd(lhs, Atom(target, rhs_terms), TgdKind.TUPLE_LEVEL, label=target)

    def _call_tgd(self, target: str, expr: Call, result_schema: CubeSchema) -> Tgd:
        spec = self.registry.get(expr.name)
        if spec.kind is OpKind.SCALAR:
            return self._scalar_call_tgd(target, expr)
        if spec.kind is OpKind.OUTER_VECTORIAL:
            return self._outer_vectorial_tgd(target, expr, spec)
        if spec.kind is OpKind.SHIFT:
            return self._shift_tgd(target, expr)
        if spec.kind is OpKind.AGGREGATION:
            return self._aggregation_tgd(target, expr)
        if spec.kind is OpKind.TABLE_FUNCTION:
            return self._table_function_tgd(target, expr)
        raise MappingError(f"operator {expr.name} cannot start a statement")

    def _operand_schema(self, expr: Call, target: str) -> Tuple[CubeSchema, List[Expr]]:
        cubes = [a for a in expr.args if isinstance(a, CubeRef)]
        scalars = [a for a in expr.args if not isinstance(a, CubeRef)]
        if len(cubes) != 1:
            raise MappingError(
                f"statement {target}: operator {expr.name} needs exactly one "
                f"cube operand after normalization"
            )
        return self.program.schema[cubes[0].name], scalars

    def _scalar_call_tgd(self, target: str, expr: Call) -> Tgd:
        schema, scalars = self._operand_schema(expr, target)
        params = [_scalar_const(s, target) for s in scalars]
        rhs_measure = FuncApp(expr.name, tuple([Var(schema.measure)] + params))
        rhs_terms = tuple([Var(d.name) for d in schema.dimensions] + [rhs_measure])
        return Tgd(
            [Atom(schema.name, self._atom_vars(schema))],
            Atom(target, rhs_terms),
            TgdKind.TUPLE_LEVEL,
            label=target,
        )

    def _outer_vectorial_tgd(self, target: str, expr: Call, spec) -> Tgd:
        """Vectorial operator with a default for missing tuples.

        Extends the paper's tgd language: the dependency is annotated
        with the operator symbol and the default, and its semantics is
        defined on the *union* of the operands' dimension tuples.
        """
        from ..exl.operators import OUTER_DEFAULTS

        cubes = [a for a in expr.args if isinstance(a, CubeRef)]
        scalars = [a for a in expr.args if isinstance(a, Number)]
        if len(cubes) != 2:
            raise MappingError(
                f"statement {target}: {expr.name} needs exactly two cube operands"
            )
        left = self.program.schema[cubes[0].name]
        right = self.program.schema[cubes[1].name]
        if left.dimensions != right.dimensions:
            raise MappingError(
                f"statement {target}: {expr.name} operands have different dimensions"
            )
        default = (
            float(scalars[0].value)
            if scalars
            else OUTER_DEFAULTS.get(spec.name.lower(), 0.0)
        )
        measure_left, measure_right = _distinct_measures(left, right)
        lhs = [
            Atom(left.name, self._atom_vars(left, measure_left)),
            Atom(right.name, self._atom_vars(right, measure_right)),
        ]
        symbol = spec.impl  # the arithmetic symbol, e.g. "+"
        rhs_terms = tuple(
            [Var(d.name) for d in left.dimensions]
            + [FuncApp(symbol, (Var(measure_left), Var(measure_right)))]
        )
        return Tgd(
            lhs,
            Atom(target, rhs_terms),
            TgdKind.OUTER_TUPLE_LEVEL,
            outer_op=symbol,
            outer_default=default,
            label=target,
        )

    def _shift_tgd(self, target: str, expr: Call) -> Tgd:
        schema, scalars = self._operand_schema(expr, target)
        if not scalars or not isinstance(scalars[0], Number):
            raise MappingError(f"statement {target}: shift needs integer periods")
        periods = int(scalars[0].value)
        dim_name = None
        if len(scalars) > 1:
            if not isinstance(scalars[1], String):
                raise MappingError(f"statement {target}: shift dimension must be a string")
            dim_name = scalars[1].value
        if dim_name is None:
            dim = schema.sole_time_dimension()
        else:
            dim = schema.dimension(dim_name)
        shifted_index = schema.dim_index(dim.name)
        rhs_dims: List[Term] = [Var(d.name) for d in schema.dimensions]
        rhs_dims[shifted_index] = FuncApp(
            "+", (Var(dim.name), Const(float(periods)))
        )
        rhs_terms = tuple(rhs_dims + [Var(schema.measure)])
        return Tgd(
            [Atom(schema.name, self._atom_vars(schema))],
            Atom(target, rhs_terms),
            TgdKind.TUPLE_LEVEL,
            label=target,
        )

    def _aggregation_tgd(self, target: str, expr: Call) -> Tgd:
        schema, scalars = self._operand_schema(expr, target)
        if scalars:
            raise MappingError(f"statement {target}: aggregation takes no parameters")
        group_terms: List[Term] = []
        for item in expr.group_by:
            base = Var(item.dim)
            group_terms.append(FuncApp(item.func, (base,)) if item.func else base)
        rhs_terms = tuple(group_terms + [AggTerm(expr.name.lower(), Var(schema.measure))])
        return Tgd(
            [Atom(schema.name, self._atom_vars(schema))],
            Atom(target, rhs_terms),
            TgdKind.AGGREGATION,
            group_arity=len(group_terms),
            label=target,
        )

    def _table_function_tgd(self, target: str, expr: Call) -> Tgd:
        schema, scalars = self._operand_schema(expr, target)
        spec = self.registry.get(expr.name)
        params = self._resolve_tf_params(spec, scalars, schema, target)
        return Tgd(
            [Atom(schema.name, ())],
            Atom(target, ()),
            TgdKind.TABLE_FUNCTION,
            table_function=spec.name,
            tf_params=tuple(params.items()),
            label=target,
        )

    def _resolve_tf_params(
        self, spec, scalars: List[Expr], schema: CubeSchema, target: str
    ) -> Dict[str, Any]:
        spec.validate_param_count(len(scalars))
        params: Dict[str, Any] = {}
        for (name, _required), value in zip(spec.params, scalars):
            params[name] = _scalar_const(value, target).value
        if any(name == "period" for name, _ in spec.params) and "period" not in params:
            freq = schema.sole_time_dimension().dtype.freq
            period = period_for_frequency(freq)
            if period is None:
                raise MappingError(
                    f"statement {target}: operator {spec.name} needs an explicit "
                    f"period for frequency {freq.name}"
                )
            params["period"] = period
        return params


def _distinct_measures(left: CubeSchema, right: CubeSchema) -> Tuple[str, str]:
    """Variable names for the two measures of a vectorial tgd.

    The paper uses the cubes' own measure names (``p * g`` in tgd (2));
    when both operands use the same measure name we suffix 1/2, as in
    tgd (5)'s ``r1``/``r2``.
    """
    if left.measure != right.measure:
        return left.measure, right.measure
    return f"{left.measure}1", f"{left.measure}2"


def _scalar_const(expr: Expr, target: str) -> Const:
    if isinstance(expr, Number):
        return Const(expr.value)
    if isinstance(expr, String):
        return Const(expr.value)
    raise MappingError(
        f"statement {target}: operator parameter must be a literal, got {expr}"
    )


def generate_mapping(program: Program, normalized: bool = False) -> SchemaMapping:
    """Generate the schema mapping of an EXL program.

    Args:
        program: a validated program.
        normalized: pass True if ``program`` is already in
            single-operator form to skip the rewrite.
    """
    if not normalized:
        program = normalize_program(program)
    return MappingGenerator(program).generate()
