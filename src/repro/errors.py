"""Exception hierarchy for the EXLEngine reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Subpackages raise the
most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """Invalid use of the Matrix data model (cubes, schemas, time points)."""


class TimeError(ModelError):
    """Invalid time point construction or conversion."""


class SchemaError(ModelError):
    """Schema definition or compatibility problem."""


class CubeError(ModelError):
    """Invalid cube instance operation (e.g. functional violation)."""


class CatalogError(ModelError):
    """Metadata catalog problem (unknown cube, version conflicts)."""


class ExlError(ReproError):
    """Base class for EXL language errors."""


class ExlSyntaxError(ExlError):
    """Lexical or syntactic error in an EXL program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ExlSemanticError(ExlError):
    """Semantic error: unknown cube, type mismatch, redefinition, recursion."""


class OperatorError(ExlError):
    """Unknown operator or operator applied with an invalid signature."""


class MappingError(ReproError):
    """Schema mapping generation or manipulation error."""


class ChaseError(ReproError):
    """The chase procedure failed (e.g. an egd violation on constants)."""


class ChaseSourceError(ChaseError):
    """A tgd references a relation absent from the source instance."""


class SqlError(ReproError):
    """Base class for the mini SQL engine."""


class SqlSyntaxError(SqlError):
    """Lexical or syntactic error in an SQL statement."""


class SqlExecutionError(SqlError):
    """Runtime error while executing an SQL statement."""


class FrameError(ReproError):
    """Invalid dataframe-engine operation."""


class MatrixError(ReproError):
    """Invalid matrix-engine operation."""


class EtlError(ReproError):
    """ETL flow construction or execution error."""


class BackendError(ReproError):
    """A backend could not translate or execute a schema mapping."""


class PermanentBackendError(BackendError):
    """A backend failure a second attempt would not fix (bad
    translation, engine misconfiguration, crashed target).  Eligible for
    degradation to a fallback backend."""


class DeadlineExceededError(PermanentBackendError):
    """A subgraph execution overran its wall-clock deadline."""


class UnsupportedOperatorError(BackendError):
    """The tgd uses an operator the target system does not support."""


class EngineError(ReproError):
    """EXLEngine orchestration error (determination, dispatch, history)."""


class CorruptStateError(EngineError):
    """A run directory's run state, baseline index or baseline cube is
    unreadable, torn, or not what its reader expects (CLI exit 4)."""

    def __init__(self, kind: str, path, detail):
        super().__init__(f"corrupt {kind} at {path}: {detail}")


class StatsError(ReproError):
    """Statistical operator error (e.g. series too short for stl)."""
