"""Columnar chase kernels: vectorized tgd application.

The tuple-at-a-time chase of :mod:`repro.chase.engine` interprets every
rule application as a Python loop over ``Set[Tuple]`` facts.  This
module is the columnar alternative: relations are transposed into a
struct-of-arrays layout (:class:`ColumnarRelation` — one
dictionary-encoded ``int64`` code array per dimension column plus a
``float64`` measure column) and each tgd's term tree is compiled into a
kernel over whole columns:

* scalar arithmetic on measures becomes NumPy array arithmetic;
* multi-atom lhs conjunctions become a hash join on composite key
  codes (stable sort + ``searchsorted`` + expansion), replacing the
  per-tuple index probes;
* time shifts — both the rhs ``q + 1`` transform and the simplified
  lhs ``q - 1`` join atom of the paper's tgd (5) — become key-code
  remaps evaluated once per *distinct* dictionary value;
* aggregations group by composite key codes (the sorted-slices kernel
  of :mod:`repro.chase.groupreduce`) and apply the registered aggregate
  to each group's bag;
* the functionality egd is checked per batch (duplicate key-code
  detection) instead of per insert.

Bit-exact equivalence with the scalar path is a hard requirement (the
ablation contract, pinned by ``tests/test_columnar_chase.py``), which
drives three design rules:

1. **Same enumeration order.**  Every kernel consumes operand rows in
   the operand fact set's iteration order and emits result rows in the
   exact order the scalar match enumeration would, so the *insertion
   sequence* into every relation — and therefore each fact set's
   iteration order, which downstream aggregation bags depend on — is
   identical on both paths.
2. **Same scalar semantics.**  Dimension transforms and named scalar
   functions are evaluated through :func:`repro.mappings.terms`
   machinery (once per distinct dictionary value, or elementwise),
   and aggregation bags are reduced by the *registered* Python
   aggregate in original row order — never by ``np.add.reduceat``,
   whose pairwise summation would drift from ``sum()``.  Only IEEE-754
   ``+ - * /`` (where NumPy float64 matches Python ``float`` bit for
   bit) run as whole-column array ops.
3. **Fallback before side effects.**  Any shape without a kernel
   (table functions, outer vectorials, non-float measures, exotic lhs
   terms) raises :class:`FallbackUnsupported` strictly before the
   first insertion, so the engine can transparently re-run the scalar
   path; genuine evaluation errors (division by zero, bad time
   arithmetic) propagate with the same exception type and message the
   scalar path raises.
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
from ..obs import NULL_TRACER
from ..stats.aggregates import get_aggregate
from .groupreduce import distinct, sorted_slices

__all__ = [
    "ColumnarRelation",
    "EncodedColumn",
    "FallbackUnsupported",
    "apply_vectorized",
    "decode_facts",
    "mix_codes",
    "transform_encoded",
]

_INT = np.int64
# composite key codes are mixed-radix int64; beyond this the product of
# the per-column cardinalities could overflow, so the kernel bows out
_CODE_LIMIT = 1 << 62


class FallbackUnsupported(Exception):
    """This tgd/instance shape has no vectorized kernel.

    Raised strictly *before* any insertion side effect, so the caller
    can transparently re-run the scalar path.
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
        dims = []
        for j in range(arity - 1):
            column = columns[j]
            # dict.fromkeys dedups at C speed in first-occurrence order
            # (the same order the per-row setdefault loop would produce)
            vmap: Dict[Any, int] = dict.fromkeys(column)
            for code, value in enumerate(vmap):
                vmap[value] = code
            codes = np.fromiter(map(vmap.__getitem__, column), _INT, count=n)
            dims.append(EncodedColumn(codes, list(vmap), vmap))
        return cls(arity, n, dims, measures)


def _relation_columns(
    instance, relation: str, arity: int, tracer=NULL_TRACER, metrics=None
) -> ColumnarRelation:
    """The columnar image of one relation.

    Columnar-native relations hand their image over directly (the
    zero-encode path); tuple-mode relations are encoded on demand by
    the instance, which traces the ``kernel:encode`` span and counts
    the encode on ``metrics``.
    """
    return instance.columnar_image(relation, arity, tracer, metrics)


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
                    raise FallbackUnsupported("non-invertible lhs function term")
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
    raise FallbackUnsupported(f"no kernel for {tgd.kind.value} tgds")


def _plan_for(tgd: Tgd, plans: Dict[int, Tuple[Tgd, Any]]):
    """Compile (or fetch) the kernel plan for one tgd.

    Keyed by ``id`` — the engine's plan cache keeps the tgd referenced,
    so ids are stable for the cache's lifetime.
    """
    entry = plans.get(id(tgd))
    if entry is not None:
        plan = entry[1]
        if plan is None:
            raise FallbackUnsupported("cached fallback")
        return plan
    try:
        plan = _compile(tgd)
    except FallbackUnsupported:
        plans[id(tgd)] = (tgd, None)
        raise
    plans[id(tgd)] = (tgd, plan)
    return plan


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
    total = 1
    for base in bases:
        total *= base
        if total >= _CODE_LIMIT:
            raise FallbackUnsupported("composite key code overflow")
    composite = np.zeros(n, _INT)
    for digits, base in zip(parts, bases):
        composite *= base
        composite += digits
    return composite


#: public names for the key-building primitives the OLAP roll-up
#: lattice shares with the aggregation kernel: per-distinct-value
#: dictionary transforms and mixed-radix composite group codes
transform_encoded = _transform_encoded
mix_codes = _mix


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


def _match(plan: _TgdPlan, instance, registry, tracer=NULL_TRACER, metrics=None):
    """The vectorized lhs match: env columns aligned over match rows."""
    env: Dict[str, Any] = {}
    n_env = 0
    for index, atom_plan in enumerate(plan.atoms):
        rel = _relation_columns(
            instance, atom_plan.relation, atom_plan.arity, tracer, metrics
        )
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
                left_comp = _mix(left_parts, bases, n_env)
                right_comp = _mix(right_parts, bases, len(right_rows))
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
    try:
        composite = _mix(parts, bases, n)
    except FallbackUnsupported:
        return False
    return distinct(composite).size == n


def _emit(tgd, out_cols, n, target, functional, insert_batch,
          tracer=NULL_TRACER) -> int:
    if n == 0:
        return 0
    with tracer.span("kernel:egd-check", category="kernel", rows=n):
        unique = _dims_unique(out_cols[:-1], n)
    if unique:
        # distinct keys: hand the encoded columns straight to the batch
        # insert — on the single-writer fast path they are adopted into
        # the target's column buffers without ever building fact tuples
        with tracer.span("kernel:insert", category="kernel", rows=n):
            return insert_batch(
                target, functional, tgd.target_relation, None,
                assume_unique=True, columns=out_cols, n=n,
            )
    lists = [_column_list(col, n) for col in out_cols]
    facts = list(zip(*lists))
    dims = list(zip(*lists[:-1])) if len(lists) > 1 else [()] * n
    with tracer.span("kernel:insert", category="kernel", rows=n):
        return insert_batch(
            target,
            functional,
            tgd.target_relation,
            facts,
            dims=dims,
            measures=lists[-1],
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
    metrics=None,
) -> int:
    """Apply one tgd with columnar kernels.

    ``operand_instance`` is the instance lhs atoms read from (the
    source instance for st copies, the target itself otherwise).
    Raises :class:`FallbackUnsupported` — before any side effect — when
    no kernel covers the tgd.  ``tracer`` receives one span per kernel
    phase (encode/join/eval/egd-check/insert), nested under whatever
    tgd span the caller holds open.
    """
    if tgd.kind is TgdKind.COPY:
        # list, not the set itself: see _apply_copy on why the batch
        # must flow element-wise into the target set
        facts = list(operand_instance.facts(tgd.lhs[0].relation))
        with tracer.span("kernel:insert", category="kernel", rows=len(facts)):
            return insert_batch(target, functional, tgd.target_relation, facts)
    plan = _plan_for(tgd, plans)
    if tgd.kind is TgdKind.TUPLE_LEVEL:
        env, n = _match(plan, operand_instance, registry, tracer, metrics)
        with tracer.span("kernel:eval", category="kernel", rows=n):
            out_cols = _output_columns(plan.rhs, env, registry, n)
        return _emit(tgd, out_cols, n, target, functional, insert_batch, tracer)
    return _apply_aggregation(
        plan, tgd, operand_instance, target, functional, registry,
        insert_batch, tracer, metrics,
    )


def _apply_aggregation(
    plan, tgd, operand_instance, target, functional, registry, insert_batch,
    tracer=NULL_TRACER, metrics=None,
) -> int:
    aggregate = get_aggregate(plan.agg_func)
    env, n = _match(plan, operand_instance, registry, tracer, metrics)
    if n == 0:
        return 0
    with tracer.span("kernel:eval", category="kernel", rows=n):
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
        composite = _mix(parts, bases, n)
        # each bag holds the elements the scalar path accumulates for
        # the group, and groups come in its first-occurrence order; both
        # paths reduce the bag in canonical order
        first_rows, measures = [], []
        for row, bag in sorted_slices(composite, values):
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
