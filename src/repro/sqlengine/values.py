"""SQL value model and column types.

The engine supports four column types.  ``TIME`` stores
:class:`~repro.model.time.TimePoint` values natively — the statistical
add-on role that commercial systems fill with DATE columns plus
calendar functions — so generated SQL can shift and convert time
dimensions without lossy encoding.  ``NULL`` is represented by Python
``None`` with SQL three-valued comparison semantics.
"""

from __future__ import annotations

import enum
from typing import Any

from ..errors import SqlExecutionError
from ..model.time import TimePoint

__all__ = ["SqlType", "check_type", "sql_repr"]


class SqlType(enum.Enum):
    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    TIME = "TIME"


def check_type(sql_type: SqlType, value: Any, *context: str) -> Any:
    """Validate (and mildly coerce) a value against a column type.

    INTEGER accepts whole finite floats; REAL accepts ints.  ``None``
    (NULL) is always accepted.  ``context`` names the column, as
    ``table, column``; it is joined into the message only when the
    value is refused.
    """
    if value is None:
        return None
    if sql_type is SqlType.INTEGER:
        if isinstance(value, bool):
            raise SqlExecutionError(f"boolean is not INTEGER{_where(context)}")
        if isinstance(value, int):
            return value
        # NaN and ±inf are not whole: is_integer() is False for them
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SqlExecutionError(f"{value!r} is not INTEGER{_where(context)}")
    if sql_type is SqlType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SqlExecutionError(f"{value!r} is not REAL{_where(context)}")
        return float(value)
    if sql_type is SqlType.TEXT:
        if not isinstance(value, str):
            raise SqlExecutionError(f"{value!r} is not TEXT{_where(context)}")
        return value
    if not isinstance(value, TimePoint):  # TIME
        raise SqlExecutionError(f"{value!r} is not TIME{_where(context)}")
    return value


def _where(context) -> str:
    return f" in {'.'.join(context)}" if context else ""


def sql_repr(value: Any) -> str:
    """Render a value as an SQL literal (for generated scripts)."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, TimePoint):
        return f"TIME '{value}'"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)
