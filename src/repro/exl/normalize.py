"""Normalization of EXL programs into single-operator statements.

Section 4.1 assumes "expressions in EXL statements include one
operator … we could add additional statements and auxiliary cubes to
handle intermediate results", showing how the paper's statement (5)
becomes the chain (5a)–(5d).  The normalizer performs exactly that
rewrite: every statement of the output program applies *one* operator
to cube literals and scalar constants.  Constant scalar subexpressions
are folded first.

Temporary cube names have the form ``_tmpN_<target>``; the normalizer
guarantees they do not collide with user names, and records each one,
with the statement it was cut from, in ``Program.temporaries`` — a
temporary is known by that record, never by its name.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import ExlSemanticError, OperatorError
from ..model.schema import Schema
from .ast import BinOp, Call, CubeRef, Expr, Number, ProgramAst, Statement, String, UnaryOp
from .operators import OperatorRegistry, OpKind
from .program import Program

__all__ = ["normalize_program", "fold_constants"]


def fold_constants(expr: Expr, registry: OperatorRegistry) -> Expr:
    """Evaluate pure-scalar subexpressions to Number literals.

    ``100 * (C / D)`` is left alone, ``2 * 3 + 1`` becomes ``7``, and a
    scalar call such as ``ln(2)`` is evaluated via the registered
    implementation.
    """
    if isinstance(expr, (Number, String, CubeRef)):
        return expr
    if isinstance(expr, UnaryOp):
        inner = fold_constants(expr.operand, registry)
        if isinstance(inner, Number):
            return Number(-inner.value)
        return UnaryOp(expr.op, inner)
    if isinstance(expr, BinOp):
        left = fold_constants(expr.left, registry)
        right = fold_constants(expr.right, registry)
        if isinstance(left, Number) and isinstance(right, Number):
            return Number(_eval_arith(expr.op, left.value, right.value))
        return BinOp(expr.op, left, right)
    if isinstance(expr, Call):
        args = tuple(fold_constants(a, registry) for a in expr.args)
        folded = Call(expr.name, args, expr.group_by)
        if (
            expr.name in registry
            and registry.get(expr.name).kind is OpKind.SCALAR
            and all(isinstance(a, Number) for a in args)
            and args
        ):
            values = [a.value for a in args]
            return Number(float(registry.get(expr.name).impl(*values)))
        return folded
    return expr


def _eval_arith(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise OperatorError("constant division by zero")
        return a / b
    if op == "^":
        return a**b
    raise OperatorError(f"unknown arithmetic operator {op!r}")


class _Normalizer:
    def __init__(self, program: Program):
        self.program = program
        self.registry = program.registry
        self._taken: Set[str] = set(program.schema.names)
        self._counter = 0
        self._out: List[Statement] = []
        self._temporaries: Dict[str, str] = dict(program.temporaries)

    def run(self) -> Program:
        for validated in self.program.statements:
            expr = fold_constants(validated.expr, self.registry)
            self._emit_statement(validated.target, expr, validated.ast.line)
        base = Schema(
            (self.program.schema[name] for name in self.program.elementary),
            "elementary",
        )
        program = Program.from_ast(
            ProgramAst(self._out), base, self.registry, self.program.source
        )
        program.temporaries = self._temporaries
        return program

    # -- rewriting -------------------------------------------------------
    def _emit_statement(self, target: str, expr: Expr, line: int) -> None:
        if isinstance(expr, CubeRef):
            # a pure copy statement; kept as-is (generates a copy tgd)
            self._out.append(Statement(target, expr, line))
            return
        if isinstance(expr, Number):
            raise ExlSemanticError(f"statement {target} assigns a scalar constant")
        single = self._single_operator(expr, target, line)
        self._out.append(Statement(target, single, line))

    def _single_operator(self, expr: Expr, target: str, line: int) -> Expr:
        """Rewrite ``expr`` so it applies one operator to atomic operands,
        hoisting nested operator applications into temp statements."""
        if isinstance(expr, UnaryOp):
            # -e is rewritten as (-1) * e, a scalar multiplication
            operand = self._atomize(expr.operand, target, line)
            return BinOp("*", Number(-1.0), operand)
        if isinstance(expr, BinOp):
            return BinOp(
                expr.op,
                self._atomize(expr.left, target, line),
                self._atomize(expr.right, target, line),
            )
        if isinstance(expr, Call):
            args = tuple(
                arg if isinstance(arg, (Number, String)) else self._atomize(arg, target, line)
                for arg in expr.args
            )
            return Call(expr.name, args, expr.group_by)
        raise ExlSemanticError(f"cannot normalize node {type(expr).__name__}")

    def _atomize(self, expr: Expr, target: str, line: int) -> Expr:
        """Return an atomic operand (cube literal or scalar literal),
        emitting a temp statement when ``expr`` applies an operator."""
        if isinstance(expr, (Number, String, CubeRef)):
            return expr
        single = self._single_operator(expr, target, line)
        temp = self._fresh(target)
        self._temporaries[temp] = target
        self._out.append(Statement(temp, single, line))
        return CubeRef(temp)

    def _fresh(self, target: str) -> str:
        while True:
            self._counter += 1
            name = f"_tmp{self._counter}_{target}"
            if name not in self._taken:
                self._taken.add(name)
                return name


def normalize_program(program: Program) -> Program:
    """Rewrite ``program`` so every statement has exactly one operator.

    The result is a new, re-validated :class:`Program` whose extra
    statements define temporary cubes, listed in its ``temporaries``;
    the original derived cubes keep their names and final values.
    """
    return _Normalizer(program).run()
