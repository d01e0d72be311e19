"""SQL tokenizer: one regular expression, matched token by token.

Keywords are case-insensitive; identifiers keep their case (and can be
double-quoted to include unusual characters).  String literals use
single quotes with ``''`` escaping; ``TIME '2020Q1'`` literals are
recognized at the parser level.  ``--`` starts a comment that runs to
the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List

from ..errors import SqlSyntaxError

__all__ = ["SqlToken", "tokenize_sql", "KEYWORDS"]

#: the dialect's keywords, and the words of the SQL it refuses (a table
#: or column may not be named by either)
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "NOT", "INSERT",
    "INTO", "CREATE", "VIEW", "JOIN", "INNER", "LEFT", "OUTER", "ON", "NULL",
    "IS", "TIME",
    "UPDATE", "DELETE", "DROP", "TABLE", "VALUES", "ORDER", "LIMIT",
    "DISTINCT", "HAVING", "CASE", "IN", "BETWEEN", "OR",
}

#: whitespace and comments match no named group and are skipped
_TOKEN = re.compile(
    r"""\s+|--[^\n]*
    |'(?P<STRING>(?:[^']|'')*)'
    |"(?P<IDENT>[^"]*)"
    |(?P<NUMBER>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<WORD>[^\W\d]\w*)
    |(?P<PUNCT><=|>=|<>|!=|[=<>(),+\-*/%.;])""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SqlToken:
    type: str  # 'KEYWORD', 'IDENT', 'NUMBER', 'STRING', 'PUNCT', 'EOF'
    value: Any
    pos: int


def tokenize_sql(text: str) -> List[SqlToken]:
    tokens: List[SqlToken] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        kind, value = match.lastgroup, match.group(match.lastgroup or 0)
        if kind == "WORD":
            upper = value.upper()
            kind, value = ("KEYWORD", upper) if upper in KEYWORDS else ("IDENT", value)
        elif kind == "NUMBER":
            value = float(value) if any(c in value for c in ".eE") else int(value)
        elif kind == "STRING":
            value = value.replace("''", "'")
        if kind is not None:
            tokens.append(SqlToken(kind, value, pos))
        pos = match.end()
    tokens.append(SqlToken("EOF", None, len(text)))
    return tokens
