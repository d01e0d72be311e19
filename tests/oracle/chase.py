"""The tuple-at-a-time chase: the Section 4.2 rules read literally.

:class:`ScalarChase` is :class:`~repro.chase.StratifiedChase` with its
columnar kernels swapped for a per-tuple interpreter.  Every rule
enumerates variable assignments with a hash-indexed left-to-right
matcher and sends each derived fact through the egd-checking insert.
It keeps the executor — statement order, thread waves (``jobs``) and
shard workers (``shards``) — so the equivalence suites and the ablation
benchmarks can compare the kernels with it under every policy:
tuple for tuple, measure bit for measure bit, and in insertion order.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chase import StratifiedChase, groupreduce
from repro.chase.instance import RelationalInstance
from repro.errors import ChaseError
from repro.mappings.dependencies import Atom, Tgd, TgdKind
from repro.mappings.terms import AggTerm, Const, FuncApp, Term, Var, evaluate
from repro.model.time import TimePoint

__all__ = ["ScalarChase"]


class ScalarChase(StratifiedChase):
    """The stratified chase, one tuple at a time."""

    def apply(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        return self._apply_scalar(tgd, target, functional)

    def copy(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        # a chase with shard workers adopts: data movement is merge
        # machinery, not a rule, and a per-fact rebuild of data the
        # workers already chased would be all cost
        if self.plan is not None:
            return super().copy(tgd, source, target, functional)
        return self._insert_each(
            target, functional, tgd.target_relation, source.facts(tgd.lhs[0].relation)
        )

    def _apply_scalar(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Tuple at a time: the rule enumerates the facts it derives,
        each goes through the egd-checking insert."""
        if tgd.kind is TgdKind.COPY:
            return self.copy(tgd, target, target, functional)
        if tgd.kind is TgdKind.TUPLE_LEVEL:
            facts = self._tuple_level_facts(tgd, target)
        elif tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
            facts = self._outer_tuple_level_facts(tgd, target)
        elif tgd.kind is TgdKind.AGGREGATION:
            facts = self._reduced_facts(tgd, self.collect(tgd, target))
        else:
            facts = self._table_function_facts(tgd, target)
        return self._insert_each(target, functional, tgd.rhs.relation, facts)

    def _insert_each(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        facts: Iterable[Tuple],
    ) -> int:
        produced = checks = 0
        for fact in facts:
            produced += self.insert(target, functional, relation, fact)
            checks += 1
        self.metrics.inc("chase.egd.checks", checks)
        return produced

    def _tuple_level_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        for env in self.matches(tgd.lhs, target):
            yield tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )

    def _outer_tuple_level_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        """Vectorial rule with a default for missing tuples: the result
        is defined on the union of the two operands' dimension tuples,
        padding the absent side with the tgd's default value.  The union
        is enumerated as the left operand's tuples in order, then the
        right-only tuples in theirs."""
        left_atom, right_atom = tgd.lhs
        left = {f[:-1]: f[-1] for f in target.facts(left_atom.relation)}
        right = {f[:-1]: f[-1] for f in target.facts(right_atom.relation)}
        default = tgd.outer_default
        left_measure = left_atom.terms[-1]
        right_measure = right_atom.terms[-1]
        dim_terms = left_atom.terms[:-1]
        for dims in chain(left, (dims for dims in right if dims not in left)):
            env = {
                term.name: value
                for term, value in zip(dim_terms, dims)
                if isinstance(term, Var)
            }
            env[left_measure.name] = left.get(dims, default)
            env[right_measure.name] = right.get(dims, default)
            yield tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )

    def collect(
        self, tgd: Tgd, instance: RelationalInstance
    ) -> Dict[Tuple, List[Any]]:
        group_terms = tgd.rhs.terms[: tgd.group_arity]
        agg_term = tgd.rhs.terms[-1]
        if not isinstance(agg_term, AggTerm):
            raise ChaseError("aggregation tgd without an aggregate term")
        registry = self.registry
        return groupreduce.collect(
            (
                tuple(evaluate(t, env, registry) for t in group_terms),
                evaluate(agg_term.operand, env, registry),
            )
            for env in self.matches([tgd.lhs[0]], instance)
        )

    def _table_function_facts(
        self, tgd: Tgd, target: RelationalInstance
    ) -> Iterator[Tuple]:
        spec = self.registry.get(tgd.table_function)
        rows = sorted(target.facts(tgd.lhs[0].relation), key=_time_key)
        series = [(fact[0], fact[-1]) for fact in rows]
        for point, value in spec.impl(series, tgd.params_dict()):
            yield (point, float(value))

    # -- matching ----------------------------------------------------------
    def matches(
        self, atoms: Sequence[Atom], instance: RelationalInstance
    ) -> Iterator[Dict[str, Any]]:
        """Enumerate variable assignments satisfying the conjunction.

        Atoms are matched left to right.  For every atom after the
        first, a hash index is built on the positions whose value is
        determined by the bindings so far (bound variables, constants,
        or computable function terms), so equi-joins run in linear
        time instead of as nested loops.
        """
        yield from self._match_rest(list(atoms), 0, {}, instance, {})

    def _match_rest(
        self,
        atoms: List[Atom],
        index: int,
        env: Dict[str, Any],
        instance: RelationalInstance,
        index_cache: Dict,
    ) -> Iterator[Dict[str, Any]]:
        if index == len(atoms):
            yield env
            return
        atom = atoms[index]
        bound = set(env)
        key_positions = [
            i for i, term in enumerate(atom.terms) if _determined(term, bound)
        ]
        if key_positions and index > 0:
            cache_key = (index, atom.relation, tuple(key_positions))
            if cache_key not in index_cache:
                built: Dict[Tuple, List[Tuple]] = {}
                for fact in instance.facts(atom.relation):
                    built.setdefault(
                        tuple(fact[i] for i in key_positions), []
                    ).append(fact)
                index_cache[cache_key] = built
            key = tuple(
                evaluate(atom.terms[i], env, self.registry) for i in key_positions
            )
            candidates = index_cache[cache_key].get(key, ())
        else:
            candidates = instance.facts(atom.relation)
        for fact in candidates:
            extended = self._unify(atom, fact, env)
            if extended is not None:
                yield from self._match_rest(
                    atoms, index + 1, extended, instance, index_cache
                )

    def _unify(
        self, atom: Atom, fact: Tuple, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if len(atom.terms) != len(fact):
            raise ChaseError(
                f"arity mismatch matching {atom} against fact of length {len(fact)}"
            )
        extended = dict(env)
        for term, value in zip(atom.terms, fact):
            if isinstance(term, Var):
                if term.name in extended:
                    if extended[term.name] != value:
                        return None
                else:
                    extended[term.name] = value
            elif isinstance(term, Const):
                if term.value != value:
                    return None
            elif isinstance(term, FuncApp):
                solved = self._solve(term, value, extended)
                if solved is None:
                    return None
                extended = solved
            else:
                raise ChaseError(f"cannot match term {term} in a lhs atom")
        return extended

    def _solve(
        self, term: FuncApp, value: Any, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Match a function term in a lhs atom against a value.

        If all variables are bound the term is evaluated and compared;
        otherwise the invertible shift shape ``v ± const`` is solved for
        its variable (this is how the simplified tgd (5)'s ``q - 1``
        atom is matched).
        """
        free = [v for v in _term_variables(term) if v not in env]
        if not free:
            return env if evaluate(term, env, self.registry) == value else None
        if (
            term.name in ("+", "-")
            and len(term.args) == 2
            and isinstance(term.args[0], Var)
            and isinstance(term.args[1], Const)
            and term.args[0].name not in env
        ):
            shift = term.args[1].value
            inverse = FuncApp("-" if term.name == "+" else "+", (Const(value), Const(shift)))
            solved_value = evaluate(inverse, {}, self.registry)
            extended = dict(env)
            extended[term.args[0].name] = solved_value
            return extended
        raise ChaseError(
            f"cannot match lhs term {term}: variables {free} are unbound and "
            f"the term is not invertible"
        )


def _determined(term: Term, bound: set) -> bool:
    if isinstance(term, Const):
        return True
    if isinstance(term, Var):
        return term.name in bound
    if isinstance(term, FuncApp):
        return all(v in bound for v in _term_variables(term))
    return False


def _term_variables(term: Term) -> List[str]:
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, Const):
        return []
    if isinstance(term, FuncApp):
        out: List[str] = []
        for arg in term.args:
            out.extend(_term_variables(arg))
        return out
    raise ChaseError(f"unexpected term {term!r} in a lhs atom")


def _time_key(fact: Tuple):
    first = fact[0]
    if isinstance(first, TimePoint):
        return (first.freq.value, first.ordinal)
    return (str(first),)
