"""Recursive-descent parser for the SQL dialect the SQL backend prints.

A statement outside it — ``UPDATE``, ``DELETE``, ``DROP``, ``CREATE
TABLE``, ``INSERT … VALUES``, ``ORDER BY`` and the rest of
:data:`REFUSED` — is a :class:`~repro.errors.SqlSyntaxError` that names
the feature, raised before anything is parsed.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..errors import SqlSyntaxError
from ..model.time import parse_timepoint
from .lexer import SqlToken, tokenize_sql
from .sqlast import (
    Binary,
    ColumnRef,
    CreateView,
    FuncCall,
    Insert,
    IsNull,
    Join,
    Literal,
    Select,
    SelectItem,
    SqlExpr,
    TableFuncRef,
    TableRef,
    Unary,
)

__all__ = ["REFUSED", "parse_sql", "parse_sql_script"]

#: keyword or operator -> the feature it starts, for the SQL the
#: dialect leaves out
REFUSED = {
    "UPDATE": "UPDATE",
    "DELETE": "DELETE",
    "DROP": "DROP",
    "TABLE": "CREATE TABLE",
    "VALUES": "INSERT … VALUES",
    "ORDER": "ORDER BY",
    "LIMIT": "LIMIT",
    "DISTINCT": "DISTINCT",
    "HAVING": "HAVING",
    "CASE": "CASE",
    "IN": "IN",
    "BETWEEN": "BETWEEN",
    "OR": "OR",
    "INNER": "INNER JOIN",
    "<>": "the comparison <>",
    "!=": "the comparison !=",
    "<": "the comparison <",
    "<=": "the comparison <=",
    ">": "the comparison >",
    ">=": "the comparison >=",
    "%": "%",
}


class _SqlParser:
    def __init__(self, tokens: List[SqlToken]):
        for token in tokens:
            if token.type in ("KEYWORD", "PUNCT") and token.value in REFUSED:
                _refuse(REFUSED[token.value], token)
        self._tokens = tokens
        self._pos = 0

    # -- helpers -----------------------------------------------------------
    def _peek(self) -> SqlToken:
        return self._tokens[self._pos]

    def _advance(self) -> SqlToken:
        token = self._tokens[self._pos]
        if token.type != "EOF":
            self._pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.type == "KEYWORD" and token.value in words

    def _at_punct(self, *symbols: str) -> bool:
        token = self._peek()
        return token.type == "PUNCT" and token.value in symbols

    def _accept_keyword(self, *words: str) -> Optional[str]:
        if self._at_keyword(*words):
            return self._advance().value
        return None

    def _accept_punct(self, *symbols: str) -> Optional[str]:
        if self._at_punct(*symbols):
            return self._advance().value
        return None

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlSyntaxError(f"expected {word}, found {self._peek().value!r}")

    def _expect_punct(self, symbol: str) -> None:
        if not self._accept_punct(symbol):
            raise SqlSyntaxError(f"expected {symbol!r}, found {self._peek().value!r}")

    def _ident(self, what: str = "an identifier") -> str:
        token = self._peek()
        if token.type == "IDENT":
            return self._advance().value
        raise SqlSyntaxError(f"expected {what}, found {token.value!r}")

    # -- statements -----------------------------------------------------------
    def parse_statement(self):
        if self._at_keyword("SELECT"):
            return self._select()
        if self._at_keyword("INSERT"):
            return self._insert()
        if self._accept_keyword("CREATE"):
            self._expect_keyword("VIEW")
            name = self._ident("a view name")
            self._expect_keyword("AS")
            return CreateView(name, self._select())
        raise SqlSyntaxError(f"unexpected start of statement: {self._peek().value!r}")

    def parse_script(self) -> List:
        statements = []
        while self._peek().type != "EOF":
            statements.append(self.parse_statement())
            while self._accept_punct(";"):
                pass
        return statements

    # -- SELECT ------------------------------------------------------------
    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        items: List[SelectItem] = []
        if self._accept_punct("*"):
            pass  # empty items tuple = SELECT *
        else:
            items.append(self._select_item())
            while self._accept_punct(","):
                items.append(self._select_item())
        self._expect_keyword("FROM")
        sources = [self._from_item()]
        joins: List[Join] = []
        while True:
            if self._accept_punct(","):
                sources.append(self._from_item())
                continue
            if self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                source = self._from_item()
                self._expect_keyword("ON")
                joins.append(Join(source, self._expr()))
                continue
            if self._at_keyword("JOIN"):
                _refuse("INNER JOIN", self._peek())
            break
        where = self._expr() if self._accept_keyword("WHERE") else None
        group_by: List[SqlExpr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expr())
            while self._accept_punct(","):
                group_by.append(self._expr())
        return Select(items, sources, joins, where, group_by)

    def _select_item(self) -> SelectItem:
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident("an alias")
        elif self._peek().type == "IDENT":
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _from_item(self) -> Union[TableRef, TableFuncRef]:
        if self._at_punct("("):
            _refuse("a derived table", self._peek())
        name = self._ident("a table name")
        if self._accept_punct("("):
            args: List = []
            if not self._at_punct(")"):
                while True:
                    args.append(self._table_func_arg())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
            alias = self._optional_alias()
            return TableFuncRef(name, args, alias)
        alias = self._optional_alias()
        return TableRef(name, alias)

    def _table_func_arg(self):
        token = self._peek()
        if token.type == "IDENT":
            return self._advance().value  # a table name
        if token.type in ("NUMBER", "STRING"):
            return Literal(self._advance().value)
        raise SqlSyntaxError(
            f"tabular function arguments must be table names or literals, "
            f"found {token.value!r}"
        )

    def _optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._ident("an alias")
        if self._peek().type == "IDENT":
            return self._advance().value
        return None

    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._ident("a table name")
        self._expect_punct("(")
        columns = [self._ident("a column name")]
        while self._accept_punct(","):
            columns.append(self._ident("a column name"))
        self._expect_punct(")")
        return Insert(table, columns, self._select())

    # -- expressions ----------------------------------------------------------
    def _expr(self) -> SqlExpr:
        left = self._comparison()
        while self._accept_keyword("AND"):
            left = Binary("AND", left, self._comparison())
        return left

    def _comparison(self) -> SqlExpr:
        left = self._additive()
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated)
        if self._accept_punct("="):
            return Binary("=", left, self._additive())
        return left

    def _additive(self) -> SqlExpr:
        left = self._multiplicative()
        while True:
            if self._accept_punct("+"):
                left = Binary("+", left, self._multiplicative())
            elif self._accept_punct("-"):
                left = Binary("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> SqlExpr:
        left = self._unary()
        while True:
            if self._accept_punct("*"):
                left = Binary("*", left, self._unary())
            elif self._accept_punct("/"):
                left = Binary("/", left, self._unary())
            else:
                return left

    def _unary(self) -> SqlExpr:
        if self._accept_punct("-"):
            return Unary("-", self._unary())
        return self._primary()

    def _primary(self) -> SqlExpr:
        token = self._peek()
        if token.type in ("NUMBER", "STRING"):
            return Literal(self._advance().value)
        if self._at_keyword("TIME"):
            self._advance()
            literal = self._peek()
            if literal.type != "STRING":
                raise SqlSyntaxError("TIME literal needs a string: TIME '2020Q1'")
            self._advance()
            return Literal(parse_timepoint(literal.value))
        if self._accept_punct("("):
            inner = self._expr()
            self._expect_punct(")")
            return inner
        if token.type == "IDENT":
            name = self._advance().value
            if self._accept_punct("("):
                return self._func_call(name)
            if self._accept_punct("."):
                column = self._ident("a column name")
                return ColumnRef(column, name)
            return ColumnRef(name)
        raise SqlSyntaxError(f"expected an expression, found {token.value!r}")

    def _func_call(self, name: str) -> FuncCall:
        if self._accept_punct("*"):
            self._expect_punct(")")
            return FuncCall(name, (), star=True)
        args: List[SqlExpr] = []
        if not self._at_punct(")"):
            args.append(self._expr())
            while self._accept_punct(","):
                args.append(self._expr())
        self._expect_punct(")")
        return FuncCall(name, args)


def _refuse(feature: str, token: SqlToken) -> None:
    raise SqlSyntaxError(
        f"the SQL target does not support {feature} (at position {token.pos})"
    )


def parse_sql(text: str):
    """Parse a single SQL statement."""
    statements = parse_sql_script(text)
    if len(statements) != 1:
        raise SqlSyntaxError(f"expected one statement, found {len(statements)}")
    return statements[0]


def parse_sql_script(text: str) -> List:
    """Parse a ``;``-separated script into a statement list."""
    return _SqlParser(tokenize_sql(text)).parse_script()
