"""The delta-stratified chase: recompute only what changed.

A full chase run recomputes every stratum from scratch.  When only a
small fraction of the source tuples changed, almost all of that work
reproduces the previous solution bit for bit.  This module replays a
mapping *incrementally*: the previous solution instance is kept as a
:class:`DeltaSnapshot`, the caller supplies per-input-cube deltas
(inserted / deleted / updated tuples, see
:class:`~repro.model.cube.CubeDelta`), and :class:`DeltaChase.update`
walks the target tgds in statement order propagating relation deltas:

* **copy** tgds pass the operand delta through unchanged;
* **tuple-level** tgds whose dimension terms are invertible (variables,
  constants, and ``var ± const`` shifts, with the lhs keys in bijection
  with the rhs key) re-fire only for the changed tuples — through the
  columnar kernels for single-atom rules, or by per-key scalar
  recomputation (functional-index lookups) for joins and outer rules;
* **aggregation** tgds keep a per-group contribution index in the
  snapshot and recompute only the affected group keys.  Fold-sensitive
  aggregates reduce their bag in canonical order internally
  (:func:`~repro.stats.aggregates.canonical_bag`), so recomputing one
  group reproduces the full run's value exactly regardless of operand
  enumeration order;
* **table functions** (and any shape the rules above cannot handle) fall
  back to a full recomputation of that stratum against the live operand
  relations, counted in the ``delta.fallback`` metric.

A stratum whose operand deltas are all empty is *clean*: nothing runs
and its output delta is empty, so cleanliness propagates down the DAG.

Every output delta is *spliced* into the snapshot instance (retract the
old side, assert the new side under the functionality egd), so the
snapshot always holds the exact instance a full rerun on the new inputs
would produce, and a later update can start from it.  If an update
raises midway the snapshot is left half-spliced — callers must discard
it (the chase backend does) and fall back to a full run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ChaseError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Var, apply_function, evaluate
from ..model.cube import Cube, CubeDelta, _same_measure
from ..obs import NULL_TRACER, MetricsRegistry
from ..stats.aggregates import get_aggregate
from . import columnar
from .engine import DeltaRunResult, DeltaStats, StratifiedChase
from .groupreduce import contribution_index, rereduce_groups
from .instance import RelationalInstance

__all__ = [
    "DeltaChase",
    "DeltaChaseResult",
    "DeltaRunResult",
    "DeltaSnapshot",
    "DeltaStats",
    "DeltaUnsupported",
    "EMPTY_DELTA",
]

_MISSING = object()

#: shared empty delta; deltas are immutable by convention once built
EMPTY_DELTA = CubeDelta()

_INVERSE = {"+": "-", "-": "+"}


class DeltaUnsupported(Exception):
    """The mapping cannot be updated incrementally at all (e.g. a target
    relation with several writer tgds, whose outputs cannot be retracted
    per producer).  Callers should fall back to a full run."""


@dataclass
class DeltaChaseResult:
    """Per-relation deltas plus update statistics."""

    deltas: Dict[str, CubeDelta]
    stats: DeltaStats


class DeltaSnapshot:
    """The previous solution of one mapping, kept for incremental reuse.

    Holds the solution :class:`RelationalInstance` *by reference* (the
    full run that produced it is done with it), the functional index
    ``relation -> {dims: measure}`` (completed lazily for relations the
    vectorized fast path skipped), the input/output cubes of the last
    run (for diffing new inputs and patching outputs), and the per-
    aggregation-tgd group contribution indexes built on first use.

    Updates mutate the snapshot in place under :attr:`lock`; a failed
    update leaves it inconsistent, so owners must drop it on error.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        instance: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        cubes: Dict[str, Cube],
    ):
        self.mapping = mapping
        self.instance = instance
        self.functional = functional
        self.cubes = cubes
        #: ``id(tgd) -> {group_key: {operand_dims: contribution}}``
        self.group_index: Dict[int, Dict[Tuple, Dict[Tuple, Any]]] = {}
        #: the DeltaChase bound to this snapshot (kernel plans and delta
        #: plans are compiled once and reused across updates)
        self.chaser: Optional["DeltaChase"] = None
        self.lock = threading.Lock()

    def index(self, relation: str) -> Dict[Tuple, Any]:
        """The functional index of one relation, rebuilt when stale.

        The chase's single-writer fast path proves key distinctness
        columnarly without populating the index, so a snapshot may
        start with an empty (or missing) dict for a populated relation;
        the length comparison detects that and rebuilds from the facts.
        """
        idx = self.functional.get(relation)
        if idx is None or len(idx) != self.instance.size(relation):
            idx = {fact[:-1]: fact[-1] for fact in self.instance.facts(relation)}
            self.functional[relation] = idx
        return idx


# -- delta plan compilation --------------------------------------------------
#
# A tgd is incrementally updatable when its key structure is invertible
# both ways: every lhs fact determines the rhs key it contributes to
# (forward), and every rhs key determines the lhs dims of each atom
# (lookup).  Dimension terms are restricted to variables, constants and
# the ``var ± const`` shift shape — exactly the invertible shapes the
# scalar matcher's ``_solve`` accepts.


class _Unsupported(Exception):
    """This tgd's shape has no delta rule; recompute the stratum."""


def _dim_spec(term) -> Tuple:
    if isinstance(term, Var):
        return ("var", term.name)
    if isinstance(term, Const):
        return ("const", term.value)
    if (
        isinstance(term, FuncApp)
        and term.name in _INVERSE
        and len(term.args) == 2
        and isinstance(term.args[0], Var)
        and isinstance(term.args[1], Const)
    ):
        return ("shift", term.args[0].name, term.name, term.args[1].value)
    raise _Unsupported("non-invertible dimension term")


def _bind_dim(env: Dict[str, Any], name: str, value: Any) -> bool:
    """Bind one dim variable, rejecting inconsistent repeats."""
    if name in env:
        return env[name] == value
    env[name] = value
    return True


class _AtomSpec:
    """One lhs atom with invertible dimension terms."""

    __slots__ = ("relation", "dim_specs", "measure_var", "dim_vars")

    def __init__(self, atom: Atom):
        self.relation = atom.relation
        if not atom.terms:
            raise _Unsupported("atom without terms")
        self.dim_specs = [_dim_spec(t) for t in atom.terms[:-1]]
        measure = atom.terms[-1]
        if not isinstance(measure, Var):
            raise _Unsupported("non-variable measure term in lhs atom")
        self.measure_var = measure.name
        self.dim_vars = {s[1] for s in self.dim_specs if s[0] != "const"}
        if self.measure_var in self.dim_vars:
            raise _Unsupported("measure variable reused as a dimension")

    def bind(self, fact: Tuple) -> Optional[Dict[str, Any]]:
        """Bind the atom's variables from one fact (inverting shifts);
        None when the fact fails a constant filter or repeats a
        variable inconsistently — i.e. the fact does not match."""
        env: Dict[str, Any] = {}
        for spec, component in zip(self.dim_specs, fact):
            kind = spec[0]
            if kind == "var":
                if not _bind_dim(env, spec[1], component):
                    return None
            elif kind == "const":
                if spec[1] != component:
                    return None
            else:
                _, name, op, shift = spec
                value = apply_function(_INVERSE[op], [component, shift], None)
                if not _bind_dim(env, name, value):
                    return None
        env[self.measure_var] = fact[-1]
        return env

    def dims_from(self, env: Dict[str, Any]) -> Tuple:
        """The atom's dimension tuple under an rhs-key environment."""
        out = []
        for spec in self.dim_specs:
            kind = spec[0]
            if kind == "var":
                out.append(env[spec[1]])
            elif kind == "const":
                out.append(spec[1])
            else:
                _, name, op, shift = spec
                out.append(apply_function(op, [env[name], shift], None))
        return tuple(out)


class _TuplePlan:
    """Delta rules for (outer) tuple-level tgds."""

    __slots__ = ("out_specs", "out_vars", "measure_term", "atoms", "outer_default")

    def __init__(self, tgd: Tgd):
        rhs_terms = tgd.rhs.terms
        if not rhs_terms:
            raise _Unsupported("rhs atom without terms")
        self.out_specs = [_dim_spec(t) for t in rhs_terms[:-1]]
        self.measure_term = rhs_terms[-1]
        self.atoms = [_AtomSpec(a) for a in tgd.lhs]
        self.outer_default = (
            tgd.outer_default if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL else None
        )
        self.out_vars = {s[1] for s in self.out_specs if s[0] != "const"}
        measure_vars = set()
        for spec in self.atoms:
            if spec.measure_var in measure_vars:
                raise _Unsupported("measure variable shared across lhs atoms")
            measure_vars.add(spec.measure_var)
            # bijectivity: each atom's key determines the rhs key and
            # vice versa, so per-key recomputation is sound (no output
            # tuple has a second, unchanged derivation)
            if spec.dim_vars != self.out_vars:
                raise _Unsupported("lhs keys not in bijection with the rhs key")
            if spec.measure_var in self.out_vars:
                raise _Unsupported("measure variable used in the rhs key")

    def key_of(self, atom: _AtomSpec, fact: Tuple) -> Optional[Tuple]:
        """The rhs key one operand fact contributes to (forward map)."""
        env = atom.bind(fact)
        if env is None:
            return None
        return self.key_from_env(env)

    def key_from_env(self, env: Dict[str, Any]) -> Tuple:
        out = []
        for spec in self.out_specs:
            kind = spec[0]
            if kind == "var":
                out.append(env[spec[1]])
            elif kind == "const":
                out.append(spec[1])
            else:
                _, name, op, shift = spec
                out.append(apply_function(op, [env[name], shift], None))
        return tuple(out)

    def env_from_key(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """Invert the rhs key back to dim-variable bindings."""
        env: Dict[str, Any] = {}
        for spec, component in zip(self.out_specs, key):
            kind = spec[0]
            if kind == "var":
                if not _bind_dim(env, spec[1], component):
                    return None
            elif kind == "shift":
                _, name, op, shift = spec
                value = apply_function(_INVERSE[op], [component, shift], None)
                if not _bind_dim(env, name, value):
                    return None
        return env


class _AggPlan:
    """Delta rules for aggregation tgds (single-atom group-bys)."""

    __slots__ = ("atom", "group_terms", "func", "operand")

    def __init__(self, tgd: Tgd):
        if len(tgd.lhs) != 1:
            raise _Unsupported("aggregation over a join")
        self.atom = _AtomSpec(tgd.lhs[0])
        self.group_terms = tgd.rhs.terms[: tgd.group_arity]
        agg = tgd.rhs.terms[-1]
        if not isinstance(agg, AggTerm):
            raise _Unsupported("aggregation tgd without an aggregate term")
        self.func = agg.func
        self.operand = agg.operand

    def classify(self, fact: Tuple, registry) -> Optional[Tuple[Tuple, Any]]:
        """``(group_key, contribution)`` of one operand fact, or None
        when the fact does not match the atom.  Deterministic in the
        fact alone, so removing an old fact's contribution recomputes
        exactly what its insertion once added."""
        env = self.atom.bind(fact)
        if env is None:
            return None
        key = tuple(evaluate(term, env, registry) for term in self.group_terms)
        return key, evaluate(self.operand, env, registry)


# -- the delta chase ---------------------------------------------------------


class DeltaChase:
    """Incrementally re-chases a mapping from a snapshot of its
    previous solution."""

    def __init__(
        self,
        snapshot: DeltaSnapshot,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.snapshot = snapshot
        self.mapping = snapshot.mapping
        self.registry = self.mapping.registry
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        # the applier runs fallback strata (and the kernel-mini path)
        # with the exact engine a full rerun would use
        self._applier = StratifiedChase(
            self.mapping, tracer=tracer, metrics=self.metrics
        )
        # delta plans per target tgd: _TuplePlan | _AggPlan | (None, reason)
        self._plans: Dict[int, Any] = {}
        writers: Dict[str, int] = {}
        for tgd in list(self.mapping.st_tgds) + list(self.mapping.target_tgds):
            writers[tgd.target_relation] = writers.get(tgd.target_relation, 0) + 1
        multi = sorted(r for r, count in writers.items() if count > 1)
        if multi:
            # retracting one tgd's old outputs could delete facts still
            # derivable by another writer of the same relation
            raise DeltaUnsupported(
                f"relations {multi} have multiple writer tgds"
            )

    # -- main entry ----------------------------------------------------------
    def update(self, input_deltas: Dict[str, CubeDelta]) -> DeltaChaseResult:
        """Propagate input-cube deltas through every stratum in order.

        ``input_deltas`` is keyed by input cube name (the lhs relation
        of each source-to-target copy tgd); missing entries mean the
        input did not change.  Returns per-relation output deltas; the
        snapshot instance is updated in place to the new solution.
        """
        stats = DeltaStats()
        deltas: Dict[str, CubeDelta] = {}
        with self.tracer.span("delta-chase", category="chase"):
            for tgd in self.mapping.st_tgds:
                relation = tgd.target_relation
                delta = input_deltas.get(tgd.lhs[0].relation)
                if delta is None or delta.is_empty:
                    deltas[relation] = EMPTY_DELTA
                    continue
                # the st copy is verbatim: the input delta *is* the
                # relation delta (not counted as a dirty target tgd)
                self._splice(relation, delta, stats)
                deltas[relation] = delta
            for tgd in self.mapping.target_tgds:
                relation = tgd.target_relation
                if all(
                    deltas.get(r, EMPTY_DELTA).is_empty
                    for r in tgd.source_relations
                ):
                    stats.clean_tgds += 1
                    self.metrics.inc("chase.delta.clean")
                    deltas[relation] = EMPTY_DELTA
                    continue
                with self.tracer.span(
                    f"delta-tgd:{tgd.label or relation}", category="tgd",
                    kind=tgd.kind.value,
                ):
                    out = self._delta_for(tgd, deltas, stats)
                self._splice(relation, out, stats)
                deltas[relation] = out
        self.metrics.inc("chase.delta.tuples.retracted", stats.tuples_retracted)
        self.metrics.inc("chase.delta.tuples.asserted", stats.tuples_asserted)
        return DeltaChaseResult(deltas, stats)

    # -- per-kind delta rules ------------------------------------------------
    def _delta_for(
        self, tgd: Tgd, deltas: Dict[str, CubeDelta], stats: DeltaStats
    ) -> CubeDelta:
        if tgd.kind is TgdKind.COPY:
            stats.dirty_tgds += 1
            self.metrics.inc("chase.delta.dirty")
            return deltas.get(tgd.lhs[0].relation, EMPTY_DELTA)
        plan = self._plan_for(tgd)
        if isinstance(plan, tuple):  # (None, reason)
            return self._full_recompute(tgd, stats, plan[1])
        stats.dirty_tgds += 1
        self.metrics.inc("chase.delta.dirty")
        if isinstance(plan, _AggPlan):
            return self._agg_delta(tgd, plan, deltas.get(
                tgd.lhs[0].relation, EMPTY_DELTA
            ))
        if len(tgd.lhs) == 1:
            try:
                return self._tuple_delta_kernel(
                    tgd, deltas.get(tgd.lhs[0].relation, EMPTY_DELTA)
                )
            except columnar.FallbackUnsupported:
                pass  # plan exists: the scalar per-key rule still applies
        return self._tuple_delta_scalar(tgd, plan, deltas)

    def _plan_for(self, tgd: Tgd):
        plan = self._plans.get(id(tgd))
        if plan is None:
            try:
                if tgd.kind is TgdKind.AGGREGATION:
                    plan = _AggPlan(tgd)
                elif tgd.kind in (TgdKind.TUPLE_LEVEL, TgdKind.OUTER_TUPLE_LEVEL):
                    plan = _TuplePlan(tgd)
                else:  # TABLE_FUNCTION: whole-cube black box
                    plan = (None, f"table function {tgd.table_function}")
            except _Unsupported as unsupported:
                plan = (None, str(unsupported))
            self._plans[id(tgd)] = plan
        return plan

    def _tuple_delta_kernel(self, tgd: Tgd, delta: CubeDelta) -> CubeDelta:
        """Single-atom tuple-level rule: push the delta's old and new
        sides through the columnar kernel as miniature relations.  The
        bijectivity check already proved each input fact owns its
        output key, so the old side's outputs are exactly the tuples to
        retract."""
        removed = self._kernel_rows(tgd, delta.old_facts())
        added = self._kernel_rows(tgd, delta.new_facts())
        out = CubeDelta()
        removed_by_dims = {row[:-1]: row for row in removed}
        for row in added:
            old = removed_by_dims.pop(row[:-1], None)
            if old is None:
                out.inserted.append(row)
            elif not _same_measure(old[-1], row[-1]):
                out.updated.append((old, row))
        out.deleted.extend(removed_by_dims.values())
        return out

    def _kernel_rows(self, tgd: Tgd, facts: List[Tuple]) -> List[Tuple]:
        if not facts:
            return []
        relation = tgd.lhs[0].relation
        operand = RelationalInstance()
        operand.ensure(relation)
        operand.add_batch(relation, facts)
        rows: List[Tuple] = []

        def collect(target, functional, rel, batch, dims=None, measures=None,
                    assume_unique=False, columns=None, n=0):
            if batch is None:
                batch = columnar.decode_facts(columns, n)
            rows.extend(batch)
            return len(batch)

        scratch = RelationalInstance()
        columnar.apply_vectorized(
            tgd, operand, scratch, {}, self.registry, collect,
            self._applier.kernel_plans, tracer=self.tracer,
        )
        return rows

    def _tuple_delta_scalar(
        self, tgd: Tgd, plan: _TuplePlan, deltas: Dict[str, CubeDelta]
    ) -> CubeDelta:
        """Joins and outer rules: recompute each affected rhs key from
        the functional indexes of the (already spliced) operands."""
        affected: Dict[Tuple, None] = {}
        for atom in plan.atoms:
            delta = deltas.get(atom.relation)
            if delta is None or delta.is_empty:
                continue
            for fact in delta.old_facts():
                key = plan.key_of(atom, fact)
                if key is not None:
                    affected[key] = None
            for fact in delta.new_facts():
                key = plan.key_of(atom, fact)
                if key is not None:
                    affected[key] = None
        previous = self.snapshot.index(tgd.target_relation)
        out = CubeDelta()
        for key in affected:
            new_fact = self._recompute_key(plan, key)
            old = previous.get(key, _MISSING)
            if new_fact is None:
                if old is not _MISSING:
                    out.deleted.append(key + (old,))
            elif old is _MISSING:
                out.inserted.append(new_fact)
            elif not _same_measure(old, new_fact[-1]):
                out.updated.append((key + (old,), new_fact))
        return out

    def _recompute_key(self, plan: _TuplePlan, key: Tuple) -> Optional[Tuple]:
        """The tgd's output fact at one rhs key, or None when it
        produces nothing there (operand missing / outer both-missing)."""
        env = plan.env_from_key(key)
        if env is None:
            return None
        missing = 0
        for atom in plan.atoms:
            dims = atom.dims_from(env)
            measure = self.snapshot.index(atom.relation).get(dims, _MISSING)
            if measure is _MISSING:
                if plan.outer_default is None:
                    return None  # inner semantics: every atom must match
                missing += 1
                env[atom.measure_var] = plan.outer_default
            else:
                env[atom.measure_var] = measure
        if plan.outer_default is not None and missing == len(plan.atoms):
            return None  # outer semantics: the union of operand keys
        value = evaluate(plan.measure_term, env, self.registry)
        return key + (value,)

    def _agg_delta(self, tgd: Tgd, plan: _AggPlan, delta: CubeDelta) -> CubeDelta:
        """Recompute only the group keys the operand delta touches,
        maintaining a per-group contribution index in the snapshot."""

        def classify(fact):
            return plan.classify(fact, self.registry)

        index = self.snapshot.group_index.get(id(tgd))
        if index is None:
            # first update: built from the (already spliced) operand,
            # through which re-splicing the delta below changes nothing
            index = contribution_index(
                self.snapshot.instance.facts(plan.atom.relation), classify
            )
            self.snapshot.group_index[id(tgd)] = index
        # the snapshot's own relation is spliced by the caller, so the
        # re-reduced values land in a scratch map and are diffed here
        current: Dict[Tuple, Any] = {}
        touched = rereduce_groups(
            index,
            delta.old_facts(),
            delta.new_facts(),
            classify,
            get_aggregate(plan.func),
            current,
        )
        previous = self.snapshot.index(tgd.target_relation)
        out = CubeDelta()
        for key in touched:
            old = previous.get(key, _MISSING)
            value = current.get(key, _MISSING)
            if value is _MISSING:
                if old is not _MISSING:
                    out.deleted.append(key + (old,))
            elif old is _MISSING:
                out.inserted.append(key + (value,))
            elif not _same_measure(old, value):
                out.updated.append((key + (old,), key + (value,)))
        return out

    def _full_recompute(
        self, tgd: Tgd, stats: DeltaStats, reason: str
    ) -> CubeDelta:
        """Whole-cube fallback: re-run the stratum against a view of the
        live operands and diff its output against the previous one."""
        stats.note_fallback(reason)
        self.metrics.inc("delta.fallback")
        self.metrics.inc(f"delta.fallback.reason:{reason}")
        relation = tgd.target_relation
        view = self.snapshot.instance.view(set(tgd.source_relations))
        view.ensure(relation)
        functional: Dict[str, Dict[Tuple, Any]] = {}
        self._applier.apply(tgd, view, functional)
        old = self.snapshot.index(relation)
        out = CubeDelta()
        new_dims = set()
        for row in view.facts(relation):
            dims = row[:-1]
            new_dims.add(dims)
            previous = old.get(dims, _MISSING)
            if previous is _MISSING:
                out.inserted.append(row)
            elif not _same_measure(previous, row[-1]):
                out.updated.append((dims + (previous,), row))
        for dims, previous in old.items():
            if dims not in new_dims:
                out.deleted.append(dims + (previous,))
        return out

    # -- splicing ------------------------------------------------------------
    def _splice(self, relation: str, delta: CubeDelta, stats: DeltaStats) -> None:
        """Apply one relation delta to the snapshot instance: retract
        the old side, then assert the new side under the functionality
        egd.  Retraction removes the *stored* fact tuples (looked up by
        dims in the functional index), so NaN measures — unequal to any
        rebuilt tuple under set semantics — still retract correctly."""
        if delta.is_empty:
            return
        instance = self.snapshot.instance
        index = self.snapshot.index(relation)
        old_facts = delta.old_facts()
        if old_facts:
            stored: List[Tuple] = []
            for fact in old_facts:
                dims = fact[:-1]
                measure = index.pop(dims, _MISSING)
                if measure is _MISSING:
                    raise ChaseError(
                        f"delta retraction mismatch: {relation}{dims!r} is "
                        f"not in the previous solution"
                    )
                stored.append(dims + (measure,))
            removed = instance.remove_batch(relation, stored)
            if removed != len(stored):
                raise ChaseError(
                    f"delta retraction mismatch on {relation!r}: "
                    f"{len(stored)} retractions, {removed} removed"
                )
            stats.tuples_retracted += removed
        new_facts = delta.new_facts()
        if new_facts:
            for fact in new_facts:
                dims, measure = fact[:-1], fact[-1]
                existing = index.get(dims, _MISSING)
                if existing is not _MISSING and not _same_measure(existing, measure):
                    raise ChaseError(
                        f"egd violation (chase failure): {relation}{dims!r} "
                        f"would hold both {existing!r} and {measure!r}"
                    )
                index[dims] = measure
            instance.add_batch(relation, new_facts)
            stats.tuples_asserted += len(new_facts)


def diff_cubes(previous: Optional[Cube], current: Cube) -> CubeDelta:
    """The delta from ``previous`` to ``current`` (everything-inserted
    when there is no previous version)."""
    if previous is None:
        return CubeDelta(inserted=list(current.to_rows()))
    return previous.delta(current)


def input_deltas_for(
    mapping: SchemaMapping,
    snapshot: DeltaSnapshot,
    inputs: Dict[str, Cube],
) -> Dict[str, CubeDelta]:
    """Self-diff new input cubes against the snapshot's baselines.

    Raises :class:`DeltaUnsupported` when the snapshot has no baseline
    for an input (the caller should fall back to a full run).
    """
    deltas: Dict[str, CubeDelta] = {}
    for tgd in mapping.st_tgds:
        name = tgd.lhs[0].relation
        if name not in inputs:
            raise ChaseError(f"missing input cube {name!r}")
        baseline = snapshot.cubes.get(name)
        if baseline is None:
            raise DeltaUnsupported(f"snapshot has no baseline for input {name!r}")
        deltas[name] = baseline.delta(inputs[name])
    return deltas
