"""Lexer and parser for the Matlab subset the Matlab backend emits.

Covers: assignments (including column assignment ``m(:,k) = …``),
element-wise operators (``.*``, ``./``, ``.^``), plain ``+``/``-``,
ranges (``1:2``), the bare colon subscript, function handles (``@f``),
string literals, horizontal matrix composition ``[a b c]``, and
``clear a b`` (command syntax).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ..errors import ReproError

__all__ = [
    "MSyntaxError",
    "MExpr",
    "MNum",
    "MStr",
    "MName",
    "MColon",
    "MRange",
    "MHandle",
    "MUnary",
    "MBinary",
    "MApply",
    "MCompose",
    "MAssign",
    "MColumnAssign",
    "MClear",
    "MScript",
    "parse_m",
]


class MSyntaxError(ReproError):
    """Invalid Matlab-subset source."""


class MExpr:
    pass


@dataclass(frozen=True)
class MNum(MExpr):
    value: float


@dataclass(frozen=True)
class MStr(MExpr):
    value: str


@dataclass(frozen=True)
class MName(MExpr):
    name: str


@dataclass(frozen=True)
class MColon(MExpr):
    """The bare ``:`` subscript."""


@dataclass(frozen=True)
class MRange(MExpr):
    low: MExpr
    high: MExpr


@dataclass(frozen=True)
class MHandle(MExpr):
    """A function handle ``@name``."""

    name: str


@dataclass(frozen=True)
class MUnary(MExpr):
    op: str
    operand: MExpr


@dataclass(frozen=True)
class MBinary(MExpr):
    op: str  # + - .* ./ .^ * /
    left: MExpr
    right: MExpr


@dataclass(frozen=True)
class MApply(MExpr):
    """``name(args)`` — indexing when name is a matrix, else a call."""

    name: str
    args: Tuple[MExpr, ...]

    def __init__(self, name, args):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class MCompose(MExpr):
    """``[e1 e2 …]`` — horizontal composition of column blocks."""

    elements: Tuple[MExpr, ...]

    def __init__(self, elements):
        object.__setattr__(self, "elements", tuple(elements))


@dataclass(frozen=True)
class MAssign:
    target: str
    value: MExpr


@dataclass(frozen=True)
class MColumnAssign:
    """``m(:, k) = value``."""

    target: str
    column: MExpr
    value: MExpr


@dataclass(frozen=True)
class MClear:
    """``clear a b`` — unbind variables."""

    names: Tuple[str, ...]

    def __init__(self, names):
        object.__setattr__(self, "names", tuple(names))


@dataclass(frozen=True)
class MScript:
    statements: Tuple[Any, ...]

    def __init__(self, statements):
        object.__setattr__(self, "statements", tuple(statements))

    def __iter__(self):
        return iter(self.statements)

    def __len__(self):
        return len(self.statements)


@dataclass(frozen=True)
class _Tok:
    type: str  # IDENT NUM STR PUNCT NEWLINE EOF
    value: Any


_PUNCT = [".*", "./", ".^", "(", ")", "[", "]", ",", ";", "=", "+", "-", "*", "/", ":", "@"]


def _tokenize(source: str) -> List[_Tok]:
    tokens: List[_Tok] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "\n":
            if tokens and tokens[-1].type != "NEWLINE":
                tokens.append(_Tok("NEWLINE", "\n"))
            i += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "'":
            i += 1
            start = i
            while i < n and source[i] != "'":
                i += 1
            if i >= n:
                raise MSyntaxError("unterminated string literal")
            tokens.append(_Tok("STR", source[start:i]))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and (source[i].isdigit() or source[i] == "."):
                # ".*" etc. must not be swallowed
                if source[i] == "." and i + 1 < n and source[i + 1] in "*/^":
                    break
                i += 1
            tokens.append(_Tok("NUM", float(source[start:i])))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Tok("IDENT", source[start:i]))
            continue
        matched = False
        for punct in _PUNCT:
            if source.startswith(punct, i):
                tokens.append(_Tok("PUNCT", punct))
                i += len(punct)
                matched = True
                break
        if not matched:
            raise MSyntaxError(f"unexpected character {ch!r} at {i}")
    if tokens and tokens[-1].type != "NEWLINE":
        tokens.append(_Tok("NEWLINE", "\n"))
    tokens.append(_Tok("EOF", None))
    return tokens


class _MParser:
    def __init__(self, tokens: List[_Tok]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self, offset: int = 0) -> _Tok:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Tok:
        token = self._tokens[self._pos]
        if token.type != "EOF":
            self._pos += 1
        return token

    def _accept(self, punct: str) -> bool:
        token = self._peek()
        if token.type == "PUNCT" and token.value == punct:
            self._advance()
            return True
        return False

    def _expect(self, punct: str) -> None:
        if not self._accept(punct):
            raise MSyntaxError(f"expected {punct!r}, found {self._peek().value!r}")

    def _at(self, punct: str) -> bool:
        token = self._peek()
        return token.type == "PUNCT" and token.value == punct

    def _skip_separators(self) -> None:
        while self._peek().type == "NEWLINE" or self._at(";"):
            self._advance()

    # -- grammar -----------------------------------------------------------
    def parse_script(self) -> MScript:
        statements = []
        self._skip_separators()
        while self._peek().type != "EOF":
            statements.append(self._statement())
            self._skip_separators()
        return MScript(statements)

    def _statement(self):
        token = self._peek()
        if token.type != "IDENT":
            raise MSyntaxError(f"expected an assignment, found {token.value!r}")
        name = self._advance().value
        if name == "clear" and self._peek().type == "IDENT":
            names = []
            while self._peek().type == "IDENT":
                names.append(self._advance().value)
            return MClear(names)
        if self._accept("("):
            # m(:, k) = value
            if not self._accept(":"):
                raise MSyntaxError("only m(:, k) column assignment is supported")
            self._expect(",")
            column = self._expr()
            self._expect(")")
            self._expect("=")
            return MColumnAssign(name, column, self._expr())
        self._expect("=")
        return MAssign(name, self._expr())

    def _expr(self) -> MExpr:
        return self._range()

    def _range(self) -> MExpr:
        low = self._additive()
        if self._accept(":"):
            return MRange(low, self._additive())
        return low

    def _additive(self) -> MExpr:
        left = self._multiplicative()
        while True:
            if self._accept("+"):
                left = MBinary("+", left, self._multiplicative())
            elif self._accept("-"):
                left = MBinary("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> MExpr:
        left = self._unary()
        while True:
            if self._accept(".*"):
                left = MBinary(".*", left, self._unary())
            elif self._accept("./"):
                left = MBinary("./", left, self._unary())
            elif self._accept(".^"):
                left = MBinary(".^", left, self._unary())
            elif self._accept("*"):
                left = MBinary("*", left, self._unary())
            elif self._accept("/"):
                left = MBinary("/", left, self._unary())
            else:
                return left

    def _unary(self) -> MExpr:
        if self._accept("-"):
            return MUnary("-", self._unary())
        return self._primary()

    def _primary(self) -> MExpr:
        token = self._peek()
        if token.type == "NUM":
            self._advance()
            return MNum(token.value)
        if token.type == "STR":
            self._advance()
            return MStr(token.value)
        if self._accept("@"):
            handle = self._advance()
            if handle.type != "IDENT":
                raise MSyntaxError("expected a name after @")
            return MHandle(handle.value)
        if self._accept("("):
            inner = self._expr()
            self._expect(")")
            return inner
        if self._accept("["):
            return self._compose()
        if token.type == "IDENT":
            self._advance()
            if self._accept("("):
                return MApply(token.value, self._args())
            return MName(token.value)
        raise MSyntaxError(f"unexpected token {token.value!r}")

    def _args(self) -> List[MExpr]:
        args: List[MExpr] = []
        if not self._at(")"):
            while True:
                if self._at(":") and self._peek(1).value in (",", ")"):
                    self._advance()
                    args.append(MColon())
                else:
                    args.append(self._expr())
                if not self._accept(","):
                    break
        self._expect(")")
        return args

    def _compose(self) -> MCompose:
        elements: List[MExpr] = []
        while not self._at("]"):
            if self._peek().type in ("NEWLINE", "EOF"):
                raise MSyntaxError("unterminated [ ] composition")
            elements.append(self._primary())
        self._expect("]")
        return MCompose(elements)


def parse_m(source: str) -> MScript:
    """Parse Matlab-subset source into a script AST."""
    return _MParser(_tokenize(source)).parse_script()
