"""Validated EXL programs.

:class:`Program` couples a parsed AST with the result of semantic
analysis: the full schema (elementary + inferred derived cubes), the
elementary/derived partition, and the operator registry in force.
It is the unit every later stage (normalizer, mapping generator,
determination engine) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ExlSemanticError
from ..model.cube import CubeSchema
from ..model.schema import Schema
from .ast import ProgramAst, Statement, cube_refs
from .operators import OperatorRegistry, default_registry
from .parser import parse_program
from .semantics import SemanticAnalyzer

__all__ = ["ValidatedStatement", "Program"]


@dataclass(frozen=True)
class ValidatedStatement:
    """A statement together with the inferred schema of its target."""

    ast: Statement
    schema: CubeSchema

    @property
    def target(self) -> str:
        return self.ast.target

    @property
    def expr(self):
        return self.ast.expr

    def __str__(self) -> str:
        return str(self.ast)


class Program:
    """A semantically valid EXL program."""

    def __init__(
        self,
        ast: ProgramAst,
        statements: List[ValidatedStatement],
        schema: Schema,
        elementary: List[str],
        derived: List[str],
        registry: OperatorRegistry,
        source: str = "",
    ):
        self.ast = ast
        self.statements = statements
        self.schema = schema
        self.elementary = elementary
        self.derived = derived
        self.registry = registry
        self.source = source
        #: auxiliary cube -> the derived cube whose statement it was cut
        #: from; filled by :func:`~repro.exl.normalize.normalize_program`
        self.temporaries: Dict[str, str] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def compile(
        cls,
        source: str,
        schema: Schema,
        registry: Optional[OperatorRegistry] = None,
    ) -> "Program":
        """Parse and validate EXL source against a schema of elementary cubes."""
        return cls.from_ast(parse_program(source), schema, registry, source)

    @classmethod
    def from_ast(
        cls,
        ast: ProgramAst,
        schema: Schema,
        registry: Optional[OperatorRegistry] = None,
        source: str = "",
    ) -> "Program":
        registry = registry or default_registry()
        analyzer = SemanticAnalyzer(schema, registry)
        inferred, elementary, derived = analyzer.analyze(ast)
        for name in elementary:
            if name not in schema:
                raise ExlSemanticError(
                    f"cube {name!r} is neither declared elementary nor derived"
                )
        full = schema.copy("program")
        statements = []
        for statement, cube_schema in zip(ast, inferred):
            full.replace(cube_schema)
            statements.append(ValidatedStatement(statement, cube_schema))
        return cls(ast, statements, full, elementary, derived, registry, source)

    # -- queries -----------------------------------------------------------
    def statement_for(self, cube_name: str) -> ValidatedStatement:
        for statement in self.statements:
            if statement.target == cube_name:
                return statement
        raise ExlSemanticError(f"no statement defines cube {cube_name!r}")

    def dependencies(self) -> List[Tuple[str, str]]:
        """Edges ``(operand_cube, derived_cube)`` of the program DAG.

        An edge ``A -> C`` means C is calculated from A (Section 6).
        """
        edges = []
        for statement in self.statements:
            for operand in cube_refs(statement.expr):
                edges.append((operand, statement.target))
        return edges

    def schema_of(self, name: str) -> CubeSchema:
        return self.schema[name]

    def __len__(self) -> int:
        return len(self.statements)

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.statements)
