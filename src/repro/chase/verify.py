"""Verification that an instance is a solution of the data exchange
problem — the model-checking side of Section 4.2.

:func:`check_egds` confirms cube functionality; :func:`check_tgd`
confirms a single tgd is satisfied; :func:`is_solution` checks the full
setting ``⟨I, J⟩ ⊨ Σst  and  J ⊨ Σt``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..mappings.dependencies import Egd, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import evaluate
from ..stats.aggregates import get_aggregate
from .engine import StratifiedChase, _time_key
from .groupreduce import reduce_bags
from .instance import RelationalInstance

__all__ = ["check_egds", "check_tgd", "is_solution", "violations"]


def check_egds(instance: RelationalInstance, egds: List[Egd]) -> List[str]:
    """Return a list of egd violation descriptions (empty = satisfied)."""
    problems = []
    for egd in egds:
        seen: Dict[Tuple, Any] = {}
        for fact in instance.facts(egd.relation):
            dims, measure = fact[:-1], fact[-1]
            if dims in seen and seen[dims] != measure:
                problems.append(
                    f"{egd.relation}{dims!r} holds {seen[dims]!r} and {measure!r}"
                )
            seen[dims] = measure
    return problems


def check_tgd(
    tgd: Tgd, instance: RelationalInstance, mapping: SchemaMapping
) -> List[str]:
    """Violations of one target tgd on ``instance`` (empty = satisfied)."""
    chase = StratifiedChase(mapping)
    problems: List[str] = []
    target_facts = instance.facts(tgd.target_relation)
    if tgd.kind in (TgdKind.COPY, TgdKind.TUPLE_LEVEL):
        for env in chase.matches(tgd.lhs, instance):
            expected = tuple(
                evaluate(term, env, mapping.registry) for term in tgd.rhs.terms
            )
            if expected not in target_facts:
                problems.append(f"{tgd.label}: missing fact {expected!r}")
    elif tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
        left_atom, right_atom = tgd.lhs
        left = {f[:-1]: f[-1] for f in instance.facts(left_atom.relation)}
        right = {f[:-1]: f[-1] for f in instance.facts(right_atom.relation)}
        dim_terms = left_atom.terms[:-1]
        for dims in left.keys() | right.keys():
            env = {
                term.name: value
                for term, value in zip(dim_terms, dims)
            }
            env[left_atom.terms[-1].name] = left.get(dims, tgd.outer_default)
            env[right_atom.terms[-1].name] = right.get(dims, tgd.outer_default)
            expected = tuple(
                evaluate(term, env, mapping.registry) for term in tgd.rhs.terms
            )
            if expected not in target_facts:
                problems.append(f"{tgd.label}: missing outer fact {expected!r}")
    elif tgd.kind is TgdKind.AGGREGATION:
        aggregate = get_aggregate(tgd.rhs.terms[-1].func)
        reduced = reduce_bags(chase.collect(tgd, instance), aggregate)
        for key, value in reduced.items():
            expected = key + (value,)
            if expected not in target_facts:
                problems.append(f"{tgd.label}: missing aggregated fact {expected!r}")
    else:  # TABLE_FUNCTION
        spec = mapping.registry.get(tgd.table_function)
        rows = sorted(instance.facts(tgd.lhs[0].relation), key=_time_key)
        series = [(fact[0], fact[-1]) for fact in rows]
        for point, value in spec.impl(series, tgd.params_dict()):
            if (point, float(value)) not in target_facts:
                problems.append(
                    f"{tgd.label}: missing table-function fact {(point, value)!r}"
                )
    return problems


def violations(mapping: SchemaMapping, target: RelationalInstance) -> List[str]:
    """All tgd and egd violations of ``target`` under the mapping."""
    problems: List[str] = []
    for tgd in mapping.target_tgds:
        problems.extend(check_tgd(tgd, target, mapping))
    problems.extend(check_egds(target, mapping.egds))
    return problems


def is_solution(
    mapping: SchemaMapping,
    source: RelationalInstance,
    target: RelationalInstance,
) -> bool:
    """Whether ``target`` solves the data exchange problem for ``source``."""
    for tgd in mapping.st_tgds:
        relation = tgd.lhs[0].relation
        copied = target.facts(tgd.target_relation)
        if not source.facts(relation) <= copied:
            return False
    return not violations(mapping, target)
