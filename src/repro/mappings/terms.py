"""Terms of the extended dependency language.

The paper's tgds extend classical ones with *operator terms*: scalar
expressions over variables (``p * g``, ``quarter(t)``, ``q - 1``) and
aggregate applications (``avg(p)``).  Terms are immutable trees:

* :class:`Var` — a universally quantified variable;
* :class:`Const` — a numeric/string/time constant;
* :class:`FuncApp` — a scalar function applied to terms; arithmetic is
  spelled with the operator symbol as the function name (``+ - * / ^``);
* :class:`AggTerm` — an aggregation function applied to a term, only
  valid in the rhs of an aggregation tgd.

:func:`evaluate` interprets a term under a variable assignment, using
the EXL operator registry for named functions — this is what the chase
uses to compute generated tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..errors import MappingError, OperatorError
from ..exl.operators import OperatorRegistry, OpKind
from ..model.time import TimePoint

__all__ = [
    "Term",
    "Var",
    "Const",
    "FuncApp",
    "AggTerm",
    "evaluate",
    "substitute",
    "term_vars",
    "unshift",
    "apply_function",
    "ARITH_OPS",
]

_ARITH = {"+", "-", "*", "/", "^"}

#: The operator symbols evaluated as built-in binary arithmetic.
ARITH_OPS = frozenset(_ARITH)


class Term:
    """Base class of dependency-language terms."""


@dataclass(frozen=True)
class Var(Term):
    """A universally quantified variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """A constant: number, string, or time point."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, float) and self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class FuncApp(Term):
    """A scalar function applied to argument terms."""

    name: str
    args: Tuple[Term, ...]

    def __init__(self, name: str, args):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))

    def __str__(self) -> str:
        if self.name in _ARITH and len(self.args) == 2:
            return f"{_wrap(self.args[0])} {self.name} {_wrap(self.args[1])}"
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def _wrap(term: Term) -> str:
    if isinstance(term, FuncApp) and term.name in _ARITH:
        return f"({term})"
    return str(term)


@dataclass(frozen=True)
class AggTerm(Term):
    """An aggregation function applied to a term (rhs of aggregation tgds)."""

    func: str
    operand: Term

    def __str__(self) -> str:
        return f"{self.func}({self.operand})"


def term_vars(term: Term) -> FrozenSet[str]:
    """All variable names occurring in the term."""
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Const):
        return frozenset()
    if isinstance(term, FuncApp):
        out: FrozenSet[str] = frozenset()
        for arg in term.args:
            out |= term_vars(arg)
        return out
    if isinstance(term, AggTerm):
        return term_vars(term.operand)
    raise MappingError(f"unknown term type {type(term).__name__}")


def unshift(term: Term) -> Optional[Tuple[str, str, Any]]:
    """``(v, op, k)`` when ``term`` is a shifted variable ``v - k`` or
    ``v + k`` — the lagged atom position of a composed tgd, the paper's
    ``GDPT(q - 1, r2)`` — where ``column op k`` recovers ``v`` from the
    atom's column; None for any other term."""
    if (
        isinstance(term, FuncApp)
        and term.name in ("+", "-")
        and isinstance(term.args[0], Var)
        and isinstance(term.args[1], Const)
    ):
        inverse = "-" if term.name == "+" else "+"
        return term.args[0].name, inverse, term.args[1].value
    return None


def substitute(term: Term, mapping: Dict[str, Term]) -> Term:
    """Replace variables by terms according to ``mapping``."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Const):
        return term
    if isinstance(term, FuncApp):
        return FuncApp(term.name, tuple(substitute(a, mapping) for a in term.args))
    if isinstance(term, AggTerm):
        return AggTerm(term.func, substitute(term.operand, mapping))
    raise MappingError(f"unknown term type {type(term).__name__}")


def evaluate(term: Term, env: Dict[str, Any], registry: OperatorRegistry) -> Any:
    """Evaluate a (non-aggregate) term under an assignment of variables.

    Arithmetic on :class:`TimePoint` values supports ``t + s`` and
    ``t - s`` with integer shifts, which is how shift tgds move values
    along a time axis.
    """
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise MappingError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Const):
        return term.value
    if isinstance(term, AggTerm):
        raise MappingError("aggregate terms cannot be evaluated tuple-by-tuple")
    if isinstance(term, FuncApp):
        args = [evaluate(a, env, registry) for a in term.args]
        return _apply(term.name, args, registry)
    raise MappingError(f"unknown term type {type(term).__name__}")


def apply_function(name: str, args, registry: OperatorRegistry) -> Any:
    """Apply one function/operator to already-evaluated arguments.

    This is the single evaluation step :func:`evaluate` performs at a
    :class:`FuncApp` node, exposed so columnar kernels can reuse the
    exact same arithmetic, operator-kind checks, and error messages.
    ``registry`` may be ``None`` for the built-in arithmetic operators.
    """
    return _apply(name, args, registry)


def _apply(name: str, args, registry: OperatorRegistry) -> Any:
    if name in _ARITH:
        if len(args) != 2:
            raise MappingError(f"arithmetic {name!r} needs two arguments")
        return _arith(name, args[0], args[1])
    spec = registry.get(name)
    if spec.kind not in (OpKind.SCALAR, OpKind.DIM_FUNCTION):
        raise MappingError(
            f"function {name!r} is {spec.kind.value}; only scalar and dimension "
            f"functions may appear in terms"
        )
    return spec.impl(*args)


def _arith(op: str, a: Any, b: Any) -> Any:
    if isinstance(a, TimePoint) or isinstance(b, TimePoint):
        return _time_arith(op, a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise OperatorError("division by zero while evaluating a term")
        return a / b
    if op == "^":
        return a**b
    raise MappingError(f"unknown arithmetic operator {op!r}")


def _time_arith(op: str, a: Any, b: Any) -> Any:
    if isinstance(a, TimePoint) and isinstance(b, (int, float)):
        periods = int(b)
        if periods != b:
            raise MappingError(f"time shift must be an integer, got {b}")
        return a.shift(periods if op == "+" else -periods)
    if isinstance(a, TimePoint) and isinstance(b, TimePoint) and op == "-":
        return a - b
    raise MappingError(f"unsupported time arithmetic: {a!r} {op} {b!r}")
