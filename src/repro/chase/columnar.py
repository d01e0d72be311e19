"""Columnar chase kernels: vectorized tgd application.

Every tgd the stratified chase of :mod:`repro.chase.engine` applies runs
on a kernel of this module.  Relations are transposed into a
struct-of-arrays layout (:class:`ColumnarRelation` — one
dictionary-encoded ``int64`` code array per dimension column plus a
``float64`` measure column) and each tgd's term tree is compiled into a
kernel over whole columns:

* scalar arithmetic on measures becomes NumPy array arithmetic;
* multi-atom lhs conjunctions become a hash join on composite key
  codes (stable sort + ``searchsorted`` + expansion);
* time shifts — both the rhs ``q + 1`` transform and the simplified
  lhs ``q - 1`` join atom of the paper's tgd (5) — become key-code
  remaps evaluated once per *distinct* dictionary value;
* outer vectorials take the union of both operands' composite keys in
  one code space and fill the missing side with the tgd's default;
* aggregations group by composite key codes (the sorted-slices kernel
  of :mod:`repro.chase.groupreduce`) and apply the registered aggregate
  to each group's bag — or, in a shard worker, return the bags;
* table functions sort their one series by time and call the
  registered implementation once, emitting a time and a measure column;
* the functionality egd is checked per batch (duplicate key-code
  detection) instead of per insert.

A shape no kernel covers raises :class:`FallbackUnsupported` before any
insertion; the engine reports it as a :class:`~repro.errors.ChaseError`.
Each kernel equals the tuple-at-a-time reference chase of
``tests/oracle/chase.py`` bit for bit (pinned by
``tests/test_columnar_chase.py``), which drives two design rules:

1. **The oracle's enumeration order.**  Every kernel consumes operand
   rows in the operand fact set's iteration order and emits result rows
   in the exact order the oracle's match enumeration does, so the
   *insertion sequence* into every relation — and therefore each fact
   set's iteration order, which downstream aggregation bags depend on —
   is identical on both.
2. **Same scalar semantics.**  Dimension transforms and named scalar
   functions are evaluated through :func:`repro.mappings.terms`
   machinery (once per distinct dictionary value, or elementwise),
   and aggregation bags are reduced by the *registered* Python
   aggregate in original row order — never by ``np.add.reduceat``,
   whose pairwise summation would drift from ``sum()``.  Only IEEE-754
   ``+ - * /`` (where NumPy float64 matches Python ``float`` bit for
   bit) run as whole-column array ops; genuine evaluation errors
   (division by zero, bad time arithmetic) raise the same exception
   type and message as the scalar evaluator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.terms import (
    ARITH_OPS,
    AggTerm,
    Const,
    FuncApp,
    Term,
    Var,
    apply_function,
    evaluate,
    term_vars,
)
from ..errors import OperatorError
from ..model.time import TimePoint
from ..obs import NULL_TRACER
from ..stats.aggregates import get_aggregate
from .groupreduce import distinct, sorted_slices

__all__ = [
    "ColumnarRelation",
    "EncodedColumn",
    "FallbackUnsupported",
    "apply_vectorized",
    "collect_bags",
    "decode_facts",
]

_INT = np.int64
# composite key codes are mixed-radix int64; a partial composite whose
# radix product would reach this is renumbered densely first
_CODE_LIMIT = 1 << 62


class FallbackUnsupported(Exception):
    """This tgd/instance shape has no vectorized kernel.

    Raised strictly *before* any insertion side effect: the engine
    reports it as a :class:`~repro.errors.ChaseError`.
    """


class EncodedColumn:
    """A dictionary-encoded column: ``int64`` codes + code→value table."""

    __slots__ = ("codes", "dictionary", "vmap")

    def __init__(self, codes: np.ndarray, dictionary: list, vmap: dict):
        self.codes = codes
        self.dictionary = dictionary
        self.vmap = vmap

    def take(self, index: np.ndarray) -> "EncodedColumn":
        return EncodedColumn(self.codes[index], self.dictionary, self.vmap)

    def decode_list(self) -> list:
        """The column's values as Python objects, in row order."""
        if not len(self.codes):
            return []
        table = np.fromiter(
            self.dictionary, dtype=object, count=len(self.dictionary)
        )
        return table[self.codes].tolist()


def _take(col, index: np.ndarray):
    return col.take(index) if isinstance(col, EncodedColumn) else col[index]


class ColumnarRelation:
    """One relation transposed to struct-of-arrays.

    ``dims`` holds one :class:`EncodedColumn` per dimension position;
    ``measures`` is the float64 measure column.  Rows keep the fact
    set's iteration order (load-bearing: see the module docstring).
    """

    __slots__ = ("arity", "n_rows", "dims", "measures")

    def __init__(self, arity, n_rows, dims, measures):
        self.arity = arity
        self.n_rows = n_rows
        self.dims = dims
        self.measures = measures

    @classmethod
    def from_facts(cls, facts, arity: int) -> "ColumnarRelation":
        n = len(facts)
        if arity < 1:
            raise FallbackUnsupported("atoms without terms are not columnar")
        if n:
            try:
                columns = list(zip(*facts, strict=True))
            except ValueError:
                raise FallbackUnsupported("ragged facts") from None
            if len(columns) != arity:
                raise FallbackUnsupported("ragged facts")
            if set(map(type, columns[-1])) != {float}:
                raise FallbackUnsupported("non-float measures")
        else:
            columns = [()] * arity
        measures = np.array(columns[-1], dtype=np.float64)
        dims = [_encode(columns[j]) for j in range(arity - 1)]
        return cls(arity, n, dims, measures)


def _encode(values: Sequence) -> EncodedColumn:
    """Dictionary-encode ``values``, codes in first-occurrence order."""
    # dict.fromkeys dedups at C speed in first-occurrence order (the
    # same order the per-row setdefault loop would produce)
    vmap: Dict[Any, int] = dict.fromkeys(values)
    for code, value in enumerate(vmap):
        vmap[value] = code
    codes = np.fromiter(map(vmap.__getitem__, values), _INT, count=len(values))
    return EncodedColumn(codes, list(vmap), vmap)


def decode_facts(out_cols, n: int) -> list:
    """Kernel output columns decoded back into fact tuples (row order)."""
    return list(zip(*[_column_list(col, n) for col in out_cols]))


# -- the term-tree compiler ---------------------------------------------------
class _AtomPlan:
    __slots__ = ("relation", "arity", "consts", "dups", "solves", "fresh", "keys")

    def __init__(self, relation, arity):
        self.relation = relation
        self.arity = arity
        self.consts: List[Tuple[int, Any]] = []  # (pos, value) equality filter
        self.dups: List[Tuple[int, int]] = []  # (pos, first_pos) within atom
        self.solves: List[Tuple[int, str, str, Any]] = []  # invertible v±c
        self.fresh: List[Tuple[int, str]] = []  # (pos, var name)
        self.keys: List[Tuple[int, Tuple]] = []  # join keys vs earlier atoms


class _TgdPlan:
    __slots__ = ("atoms", "rhs", "group", "operand", "agg_func")

    def __init__(self, atoms, rhs=None, group=None, operand=None, agg_func=None):
        self.atoms = atoms
        self.rhs = rhs
        self.group = group
        self.operand = operand
        self.agg_func = agg_func


def _compile_atoms(atoms: Sequence[Atom]) -> Tuple[List[_AtomPlan], Dict[str, str]]:
    """Classify every lhs atom position, mirroring the scalar matcher.

    ``types`` maps each variable to ``"dim"`` (dictionary-encoded) or
    ``"measure"`` (float column) according to where it first binds.
    """
    plans: List[_AtomPlan] = []
    types: Dict[str, str] = {}
    for atom in atoms:
        plan = _AtomPlan(atom.relation, len(atom.terms))
        bound_before = dict(types)
        intra: Dict[str, int] = {}
        solve_positions = set()
        measure_pos = len(atom.terms) - 1
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if term.name in bound_before:
                    # equi-join with an earlier atom's binding
                    if pos == measure_pos or bound_before[term.name] != "dim":
                        raise FallbackUnsupported("measure-position join key")
                    plan.keys.append((pos, ("var", term.name)))
                elif term.name in intra:
                    first = intra[term.name]
                    if (
                        pos == measure_pos
                        or first == measure_pos
                        or first in solve_positions
                    ):
                        raise FallbackUnsupported("unsupported repeated variable")
                    plan.dups.append((pos, first))
                else:
                    intra[term.name] = pos
                    plan.fresh.append((pos, term.name))
                    types[term.name] = (
                        "measure" if pos == measure_pos else "dim"
                    )
            elif isinstance(term, Const):
                plan.consts.append((pos, term.value))
            elif isinstance(term, FuncApp):
                names = sorted(term_vars(term))
                if not names:
                    raise FallbackUnsupported("variable-free lhs function term")
                if all(v in bound_before for v in names):
                    # a determined key: evaluate per distinct value and
                    # remap into the atom's dictionary (tgd (5)'s q - 1)
                    if (
                        len(names) == 1
                        and bound_before[names[0]] == "dim"
                        and pos != measure_pos
                    ):
                        plan.keys.append((pos, ("func", term, names[0])))
                    else:
                        raise FallbackUnsupported("non-unary function key")
                elif (
                    term.name in ("+", "-")
                    and len(term.args) == 2
                    and isinstance(term.args[0], Var)
                    and isinstance(term.args[1], Const)
                    and term.args[0].name not in bound_before
                    and term.args[0].name not in intra
                    and pos != measure_pos
                ):
                    # the invertible shift shape the scalar _solve handles
                    name = term.args[0].name
                    inverse = "-" if term.name == "+" else "+"
                    plan.solves.append((pos, name, inverse, term.args[1].value))
                    intra[name] = pos
                    solve_positions.add(pos)
                    types[name] = "dim"
                else:
                    raise FallbackUnsupported(
                        f"lhs term {term} is not invertible"
                    )
            else:
                raise FallbackUnsupported("unsupported lhs term")
        plans.append(plan)
    return plans, types


def _compile_rhs_term(term: Term, types: Dict[str, str]) -> Tuple:
    if isinstance(term, Var):
        if term.name not in types:
            raise FallbackUnsupported("unbound rhs variable")
        return ("ref", term.name)
    if isinstance(term, Const):
        return ("const", term.value)
    if isinstance(term, FuncApp):
        names = sorted(term_vars(term))
        if not names:
            raise FallbackUnsupported("variable-free rhs function term")
        kinds = {types.get(v) for v in names}
        if kinds == {"dim"}:
            if len(names) == 1:
                # dimension transform: one scalar evaluation per
                # distinct dictionary value, then a canonical re-encode
                return ("transform", term, names[0])
            raise FallbackUnsupported("multi-variable dimension transform")
        if kinds == {"measure"}:
            return ("numeric", term)
        raise FallbackUnsupported("mixed dim/measure rhs term")
    raise FallbackUnsupported("unsupported rhs term")


def _compile(tgd: Tgd) -> _TgdPlan:
    if tgd.kind is TgdKind.TUPLE_LEVEL:
        atoms, types = _compile_atoms(tgd.lhs)
        rhs = [_compile_rhs_term(t, types) for t in tgd.rhs.terms]
        return _TgdPlan(atoms, rhs=rhs)
    if tgd.kind is TgdKind.AGGREGATION:
        atoms, types = _compile_atoms(tgd.lhs)
        if atoms[0].keys:
            raise FallbackUnsupported("joined aggregation operand")
        group = [
            _compile_rhs_term(t, types) for t in tgd.rhs.terms[: tgd.group_arity]
        ]
        if any(spec[0] == "numeric" for spec in group):
            raise FallbackUnsupported("measure-valued group key")
        agg = tgd.rhs.terms[-1]
        if not isinstance(agg, AggTerm):
            raise FallbackUnsupported("aggregation tgd without aggregate term")
        operand = _compile_rhs_term(agg.operand, types)
        if operand[0] not in ("ref", "numeric") or (
            operand[0] == "ref" and types[operand[1]] != "measure"
        ):
            raise FallbackUnsupported("non-numeric aggregation operand")
        return _TgdPlan(atoms, group=group, operand=operand, agg_func=agg.func)
    if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
        left, right = tgd.lhs
        if len(left.terms) != len(right.terms):
            raise FallbackUnsupported("outer operands of different arity")
        measures = (left.terms[-1], right.terms[-1])
        if not all(isinstance(term, Var) for term in measures):
            raise FallbackUnsupported("non-variable outer measure")
        if type(tgd.outer_default) is not float:
            raise FallbackUnsupported("non-float outer default")
        # the left operand's dimension variables name the union's keys
        types = {t.name: "dim" for t in left.terms[:-1] if isinstance(t, Var)}
        types.update((term.name, "measure") for term in measures)
        return _TgdPlan(None, rhs=[_compile_rhs_term(t, types) for t in tgd.rhs.terms])
    raise FallbackUnsupported(f"no kernel for {tgd.kind.value} tgds")


def _plan_for(tgd: Tgd, plans: Dict[int, Tuple[Tgd, Any]]):
    """Compile (or fetch) the kernel plan for one tgd.

    Keyed by ``id`` — the engine's plan cache keeps the tgd referenced,
    so ids are stable for the cache's lifetime.  A refusal is cached
    too, and raised again with its reason.
    """
    entry = plans.get(id(tgd))
    if entry is None:
        try:
            plan = _compile(tgd)
        except FallbackUnsupported as unsupported:
            plan = unsupported
        entry = plans[id(tgd)] = (tgd, plan)
    if isinstance(entry[1], FallbackUnsupported):
        raise FallbackUnsupported(str(entry[1]))
    return entry[1]


# -- columnar primitives ------------------------------------------------------
def _translate_lut(col: EncodedColumn, vmap: Dict[Any, int]) -> np.ndarray:
    """Code-to-code table from ``col``'s dictionary into ``vmap``.

    Unmatched values map to -1; dictionary lookups reuse Python
    hash/eq, so equality semantics match the scalar matcher exactly.
    """
    lut = np.empty(max(len(col.dictionary), 1), _INT)
    get = vmap.get
    for code, value in enumerate(col.dictionary):
        lut[code] = get(value, -1)
    return lut


def _transform_encoded(col: EncodedColumn, fn: Callable[[Any], Any]) -> EncodedColumn:
    """Apply a scalar function per *distinct used* value, re-encoding.

    Distinct codes are visited in code order — which is first-occurrence
    order, matching the scalar path's row enumeration, so any evaluation
    error surfaces for the same value on both paths.
    """
    used = distinct(col.codes)
    out_vmap: Dict[Any, int] = {}
    assign = out_vmap.setdefault
    lut = np.full(max(len(col.dictionary), 1), -1, _INT)
    for code in used.tolist():
        lut[code] = assign(fn(col.dictionary[code]), len(out_vmap))
    return EncodedColumn(lut[col.codes], list(out_vmap), out_vmap)


def _mix(parts: Sequence[np.ndarray], bases: Sequence[int], n: int) -> np.ndarray:
    """Mixed-radix composite of per-column codes (distinct ⇔ distinct)."""
    return _mix_joint([parts], bases, [n])[0]


def _mix_joint(
    sides: Sequence[Sequence[np.ndarray]], bases: Sequence[int], sizes: Sequence[int]
) -> List[np.ndarray]:
    """Composites of several row sets in one code space: equal keys get
    equal codes across ``sides``.

    Before a radix product would reach ``_CODE_LIMIT`` the partial
    composites are renumbered densely — jointly over every side — so
    any number of columns of any cardinality mixes without overflow.
    """
    composites = [np.zeros(n, _INT) for n in sizes]
    total = 1
    for j, base in enumerate(bases):
        if total * base >= _CODE_LIMIT:
            uniques, inverse = distinct(
                np.concatenate(composites), return_inverse=True
            )
            composites = np.split(inverse.astype(_INT), np.cumsum(sizes)[:-1])
            total = max(len(uniques), 1)
        for composite, parts in zip(composites, sides):
            composite *= base
            composite += parts[j]
        total *= base
    return composites


def _hash_join(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All (left row, right row) pairs with equal codes.

    Emitted in scalar enumeration order: left rows in order, and within
    one left row the matching right rows in *their* original order (the
    stable sort keeps equal keys in row order — exactly what the scalar
    matcher's hash index preserves).
    """
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    starts = np.searchsorted(ordered, left, side="left")
    ends = np.searchsorted(ordered, left, side="right")
    counts = ends - starts
    left_index = np.repeat(np.arange(len(left)), counts)
    total = int(counts.sum())
    if total:
        offsets = np.cumsum(counts) - counts
        span = np.arange(total) - np.repeat(offsets, counts)
        right_index = order[span + np.repeat(starts, counts)]
    else:
        right_index = np.empty(0, _INT)
    return left_index, right_index


# -- matching -----------------------------------------------------------------
def _atom_binds(plan: _AtomPlan, rel: ColumnarRelation):
    """Fresh/solved bindings (full-length columns) plus the row filter."""

    def column(pos):
        return rel.measures if pos == plan.arity - 1 else rel.dims[pos]

    mask = None

    def narrow(m):
        nonlocal mask
        mask = m if mask is None else mask & m

    for pos, value in plan.consts:
        col = column(pos)
        if isinstance(col, EncodedColumn):
            code = col.vmap.get(value, -1)
            narrow(col.codes == code)
        elif isinstance(value, (int, float)):
            narrow(col == value)
        else:
            narrow(np.zeros(rel.n_rows, bool))
    for pos, first in plan.dups:
        a, b = column(first), column(pos)
        lut = _translate_lut(b, a.vmap)
        narrow(a.codes == lut[b.codes])

    binds = {}
    for pos, name in plan.fresh:
        binds[name] = column(pos)
    for pos, name, inverse, shift in plan.solves:
        binds[name] = _transform_encoded(
            column(pos), lambda v: apply_function(inverse, [v, shift], None)
        )
    rows = None if mask is None else np.nonzero(mask)[0]
    return binds, rows


def _match(plan: _TgdPlan, instance, registry, tracer=NULL_TRACER):
    """The vectorized lhs match: env columns aligned over match rows."""
    env: Dict[str, Any] = {}
    n_env = 0
    for index, atom_plan in enumerate(plan.atoms):
        rel = instance.columnar_image(atom_plan.relation, atom_plan.arity)
        binds, rows = _atom_binds(atom_plan, rel)
        if index == 0:
            if rows is not None:
                binds = {k: _take(c, rows) for k, c in binds.items()}
                n_env = len(rows)
            else:
                n_env = rel.n_rows
            env = binds
            continue
        with tracer.span(
            "kernel:join", category="kernel", relation=atom_plan.relation
        ):
            right_rows = np.arange(rel.n_rows) if rows is None else rows
            if atom_plan.keys:
                left_parts, right_parts, bases = [], [], []
                for pos, spec in atom_plan.keys:
                    rcol = rel.dims[pos]
                    if spec[0] == "var":
                        lcol = env[spec[1]]
                    else:
                        _, term, name = spec
                        source = env[name]
                        if not isinstance(source, EncodedColumn):
                            raise FallbackUnsupported("non-encoded key source")
                        lcol = _transform_encoded(
                            source,
                            lambda v, _t=term, _n=name: evaluate(
                                _t, {_n: v}, registry
                            ),
                        )
                    if not isinstance(lcol, EncodedColumn):
                        raise FallbackUnsupported("non-encoded join key")
                    lut = _translate_lut(lcol, rcol.vmap)
                    left_parts.append(lut[lcol.codes] + 1)
                    right_parts.append(rcol.codes[right_rows] + 1)
                    bases.append(len(rcol.dictionary) + 1)
                left_comp, right_comp = _mix_joint(
                    [left_parts, right_parts], bases, [n_env, len(right_rows)]
                )
                left_index, right_pos = _hash_join(left_comp, right_comp)
            else:
                left_index = np.repeat(np.arange(n_env), len(right_rows))
                right_pos = np.tile(np.arange(len(right_rows)), n_env)
            gathered = right_rows[right_pos]
            env = {k: _take(c, left_index) for k, c in env.items()}
            for name, col in binds.items():
                env[name] = _take(col, gathered)
            n_env = len(left_index)
    return env, n_env


# -- rhs evaluation -----------------------------------------------------------
def _numeric(term: Term, env: Dict[str, Any], registry, n: int):
    """Vectorized measure-expression evaluation (array or Python scalar)."""
    if isinstance(term, Var):
        col = env[term.name]
        if isinstance(col, EncodedColumn):
            raise FallbackUnsupported("dimension column in measure expression")
        return col
    if isinstance(term, Const):
        return term.value
    if isinstance(term, FuncApp):
        args = [_numeric(arg, env, registry, n) for arg in term.args]
        return _apply_vectorized_func(term.name, args, registry, n)
    raise FallbackUnsupported("unsupported measure term")


def _apply_vectorized_func(name: str, args: list, registry, n: int):
    if not any(isinstance(a, np.ndarray) for a in args):
        # constant subtree: plain Python evaluation, exact semantics
        return apply_function(name, args, registry)
    if name in ARITH_OPS and len(args) == 2:
        return _vectorized_arith(name, args[0], args[1], registry, n)
    # named scalar function: elementwise through the registered
    # implementation — identical values and identical error order
    return _elementwise(name, args, registry, n)


def _elementwise(name: str, args: list, registry, n: int) -> np.ndarray:
    lists = [
        a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in args
    ]
    values = [apply_function(name, list(row), registry) for row in zip(*lists)]
    if any(type(v) is not float for v in values):
        raise FallbackUnsupported("non-float elementwise result")
    return np.array(values, dtype=np.float64)


def _vectorized_arith(op: str, a, b, registry, n: int):
    for operand in (a, b):
        if not isinstance(operand, (int, float, np.ndarray)):
            raise FallbackUnsupported("non-numeric arithmetic operand")
    if op == "/":
        zero = np.any(b == 0) if isinstance(b, np.ndarray) else b == 0
        if zero:
            # same failure, same message as the scalar evaluator
            raise OperatorError("division by zero while evaluating a term")
    if op == "^":
        # Python and NumPy disagree on corner cases (negative base,
        # overflow): keep exact Python semantics elementwise
        return _elementwise(op, [a, b], registry, n)
    with np.errstate(all="ignore"):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a / b


def _output_columns(specs, env, registry, n):
    out = []
    for spec in specs:
        kind = spec[0]
        if kind == "ref":
            out.append(env[spec[1]])
        elif kind == "const":
            out.append(("scalar", spec[1]))
        elif kind == "transform":
            source = env[spec[2]]
            if not isinstance(source, EncodedColumn):
                raise FallbackUnsupported("transform of non-encoded column")
            out.append(
                _transform_encoded(
                    source,
                    lambda v, _t=spec[1], _n=spec[2]: evaluate(
                        _t, {_n: v}, registry
                    ),
                )
            )
        else:  # numeric
            value = _numeric(spec[1], env, registry, n)
            out.append(value if isinstance(value, np.ndarray) else ("scalar", value))
    return out


def _column_list(col, n: int) -> list:
    if isinstance(col, EncodedColumn):
        return col.decode_list()
    if isinstance(col, np.ndarray):
        return col.tolist()
    return [col[1]] * n


def _dims_unique(dim_cols, n: int) -> bool:
    """Vectorized duplicate-key detection over the output dimensions.

    May over-report duplicates (e.g. NaN collapse in ``distinct``) but
    never under-reports — a ``False`` only routes the batch through the
    slower exact check.
    """
    parts, bases = [], []
    for col in dim_cols:
        if isinstance(col, EncodedColumn):
            parts.append(col.codes)
            bases.append(max(len(col.dictionary), 1))
        elif isinstance(col, np.ndarray):
            uniques, inverse = distinct(col, return_inverse=True)
            parts.append(inverse.astype(_INT))
            bases.append(max(len(uniques), 1))
        # broadcast scalars contribute nothing
    if not parts:
        return n <= 1
    return distinct(_mix(parts, bases, n)).size == n


def _emit(tgd, out_cols, n, target, functional, insert_batch,
          tracer=NULL_TRACER) -> int:
    if n == 0:
        return 0
    with tracer.span("kernel:egd-check", category="kernel", rows=n):
        unique = _dims_unique(out_cols[:-1], n)
    # proven-distinct keys: on the single-writer fast path the encoded
    # columns are adopted into the target's column buffers without ever
    # building fact tuples; anything else is decoded and checked
    with tracer.span("kernel:insert", category="kernel", rows=n):
        return insert_batch(
            target, functional, tgd.target_relation, None,
            assume_unique=unique, columns=out_cols, n=n,
        )


# -- the kernels --------------------------------------------------------------
def apply_vectorized(
    tgd: Tgd,
    operand_instance,
    target,
    functional,
    registry,
    insert_batch,
    plans: Dict[int, Tuple[Tgd, Any]],
    tracer=NULL_TRACER,
) -> int:
    """Apply one target tgd with its columnar kernel.

    ``operand_instance`` is the instance lhs atoms read from (the
    chase passes the target itself).  Raises :class:`FallbackUnsupported` — before any side
    effect — when no kernel covers the tgd.  ``tracer`` receives one
    span per kernel phase (join/eval/egd-check/insert), nested
    under whatever tgd span the caller holds open.
    """
    if tgd.kind is TgdKind.TABLE_FUNCTION:
        out_cols, n = _table_function(tgd, operand_instance, registry, tracer)
        return _emit(tgd, out_cols, n, target, functional, insert_batch, tracer)
    plan = _plan_for(tgd, plans)
    if tgd.kind is TgdKind.AGGREGATION:
        return _apply_aggregation(
            plan, tgd, operand_instance, target, functional, registry,
            insert_batch, tracer,
        )
    if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
        env, n = _outer_match(tgd, operand_instance, tracer)
    else:
        env, n = _match(plan, operand_instance, registry, tracer)
    with tracer.span("kernel:eval", category="kernel", rows=n):
        out_cols = _output_columns(plan.rhs, env, registry, n)
    return _emit(tgd, out_cols, n, target, functional, insert_batch, tracer)


def _outer_match(tgd: Tgd, instance, tracer=NULL_TRACER):
    """The outer vectorial's lhs: one env row per key of the union of
    both operands' dimension tuples — the left operand's rows in their
    order, then the right-only rows in theirs — with the missing side's
    measure filled by the tgd's default."""
    left_atom, right_atom = tgd.lhs
    arity = len(left_atom.terms)
    left = instance.columnar_image(left_atom.relation, arity)
    right = instance.columnar_image(right_atom.relation, arity)
    with tracer.span(
        "kernel:join", category="kernel", relation=right_atom.relation
    ):
        # both operands' dimension columns in one code space per position
        joint, right_parts, bases = [], [], []
        for lcol, rcol in zip(left.dims, right.dims):
            vmap, dictionary = dict(lcol.vmap), list(lcol.dictionary)
            for value in rcol.dictionary:
                if value not in vmap:
                    vmap[value] = len(dictionary)
                    dictionary.append(value)
            lut = _translate_lut(rcol, vmap)
            joint.append((lut, dictionary, vmap))
            right_parts.append(lut[rcol.codes])
            bases.append(max(len(dictionary), 1))
        left_keys, right_keys = _mix_joint(
            [[col.codes for col in left.dims], right_parts],
            bases,
            [left.n_rows, right.n_rows],
        )
        right_index, left_index = _hash_join(right_keys, left_keys)
        right_only = np.ones(right.n_rows, bool)
        right_only[right_index] = False
        right_only = np.nonzero(right_only)[0]
        default = tgd.outer_default
        env: Dict[str, Any] = {}
        for term, lcol, rcol, (lut, dictionary, vmap) in zip(
            left_atom.terms, left.dims, right.dims, joint
        ):
            if isinstance(term, Var):
                codes = np.concatenate([lcol.codes, lut[rcol.codes[right_only]]])
                env[term.name] = EncodedColumn(codes, dictionary, vmap)
        matched = np.full(left.n_rows, default)
        matched[left_index] = right.measures[right_index]
        env[left_atom.terms[-1].name] = np.concatenate(
            [left.measures, np.full(len(right_only), default)]
        )
        env[right_atom.terms[-1].name] = np.concatenate(
            [matched, right.measures[right_only]]
        )
    return env, left.n_rows + len(right_only)


def _time_key(fact: Tuple):
    """A series' sort key: time points by frequency and ordinal."""
    first = fact[0]
    if isinstance(first, TimePoint):
        return (first.freq.value, first.ordinal)
    return (str(first),)


def _table_function(tgd: Tgd, instance, registry, tracer=NULL_TRACER):
    """A table function's output columns: the operand's one series, in
    time order, through the registered implementation once.

    The operand atom names no terms, so the series — each fact's first
    dimension and its measure — is read off the relation's facts.
    """
    spec = registry.get(tgd.table_function)
    rows = sorted(instance.facts(tgd.lhs[0].relation), key=_time_key)
    with tracer.span("kernel:eval", category="kernel", rows=len(rows)):
        points, values = [], []
        for point, value in spec.impl(
            [(fact[0], fact[-1]) for fact in rows], tgd.params_dict()
        ):
            points.append(point)
            values.append(float(value))
    return [_encode(points), np.array(values, dtype=np.float64)], len(points)


def _group_slices(plan: _TgdPlan, env, registry, n: int):
    """An aggregation's matched operand sliced into group bags: the
    group-key columns and an iterator of ``(first row, bag)``, groups in
    first-occurrence order and each bag in row order."""
    if plan.operand[0] == "ref":
        values = env[plan.operand[1]]
        if isinstance(values, EncodedColumn):
            raise FallbackUnsupported("encoded aggregation operand")
    else:
        values = _numeric(plan.operand[1], env, registry, n)
    if not isinstance(values, np.ndarray):
        raise FallbackUnsupported("scalar aggregation operand")
    key_cols = _output_columns(plan.group, env, registry, n)
    parts, bases = [], []
    for col in key_cols:
        if isinstance(col, EncodedColumn):
            parts.append(col.codes)
            bases.append(max(len(col.dictionary), 1))
        elif isinstance(col, np.ndarray):
            raise FallbackUnsupported("non-encoded group key")
        # broadcast scalar keys are constant across the relation
    return key_cols, sorted_slices(_mix(parts, bases, n), values)


def collect_bags(
    tgd: Tgd, instance, registry, plans, tracer=NULL_TRACER
) -> Dict[Tuple, List[Any]]:
    """The aggregation kernel without its reduce: ``{group key: bag}`` —
    all a shard worker runs of a group-by that is not shard-aligned."""
    if tgd.kind is not TgdKind.AGGREGATION:
        raise FallbackUnsupported(f"no collect for {tgd.kind.value} tgds")
    plan = _plan_for(tgd, plans)
    env, n = _match(plan, instance, registry, tracer)
    if n == 0:
        return {}
    with tracer.span("kernel:eval", category="kernel", rows=n):
        key_cols, slices = _group_slices(plan, env, registry, n)
        return {
            tuple(
                col.dictionary[col.codes[row]]
                if isinstance(col, EncodedColumn)
                else col[1]
                for col in key_cols
            ): bag
            for row, bag in slices
        }


def _apply_aggregation(
    plan, tgd, operand_instance, target, functional, registry, insert_batch,
    tracer=NULL_TRACER,
) -> int:
    aggregate = get_aggregate(plan.agg_func)
    env, n = _match(plan, operand_instance, registry, tracer)
    if n == 0:
        return 0
    with tracer.span("kernel:eval", category="kernel", rows=n):
        key_cols, slices = _group_slices(plan, env, registry, n)
        # each bag holds the elements the oracle accumulates for the
        # group, and groups come in its first-occurrence order; both
        # reduce the bag in canonical order
        first_rows, measures = [], []
        for row, bag in slices:
            first_rows.append(row)
            measures.append(aggregate(bag))
        groups = len(first_rows)
        if set(map(type, measures)) != {float}:
            raise FallbackUnsupported("non-float aggregate result")
        # a group-by's result is a relation: its key columns are the
        # operand's at each group's first row, one key per group
        index = np.array(first_rows, dtype=_INT)
        out_cols = [
            col.take(index) if isinstance(col, EncodedColumn) else col
            for col in key_cols
        ]
        out_cols.append(np.array(measures, dtype=np.float64))
    with tracer.span("kernel:insert", category="kernel", rows=groups):
        return insert_batch(
            target, functional, tgd.target_relation, None,
            assume_unique=True, columns=out_cols, n=groups,
        )
