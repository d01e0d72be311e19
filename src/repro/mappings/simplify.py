"""Composition of generated schema mappings.

Normalization yields one tgd per single-operator statement, introducing
temporary cubes.  The paper notes that "in practice, our tool is able
to simplify them": statement (5) of the Overview becomes the *single*
tgd

    GDPT(q, r1) AND GDPT(q - 1, r2) -> PCHNG(q, (r1 - r2) * 100 / r1)

This module performs that simplification by *tgd composition*: a
tuple-level (or copy) tgd producing a temporary cube that is consumed
exactly once is inlined into its consumer.  Because every temporary has
exactly one defining full tgd, and the data exchange solution makes the
temporary's extension exactly the set of produced tuples, the
composition is exact (same solution for all user-visible cubes).  Every
target executes the composed mapping, so a fusable chain never fills a
temporary.

A temporary is what the mapping's ``temporaries`` record says it is —
a user cube named like one is never inlined — and it never outlives the
statement it was cut from, so each statement's tgds are composed among
themselves: the pass is linear in the program.

Shift producers are inlined by *inversion* when possible — equating the
producer's ``t + s`` with the consumer's variable ``q`` rewrites the
producer atom with ``q - s`` — which reproduces the paper's tgd (5)
shape verbatim.  Nested shifts fold into one lag (``q - 2``, never
``(q - 1) - 1``), and a composition that would leave an lhs term other
than a variable or a shifted variable — which no target can match — is
not made: the temporary stays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import MappingError
from ..model.schema import Schema
from .dependencies import Atom, Tgd, TgdKind
from .mapping import SchemaMapping
from .terms import AggTerm, Const, FuncApp, Term, Var, substitute, unshift

__all__ = ["simplify_mapping"]


def simplify_mapping(mapping: SchemaMapping) -> SchemaMapping:
    """Inline single-use temporary tgds, eliminating temp cubes.

    Returns a new mapping; ``mapping`` is unchanged.  Only the cubes
    ``mapping.temporaries`` lists are candidates, so user-visible cubes
    are always preserved.
    """
    statements: Dict[str, List[Tgd]] = {}
    for tgd in mapping.target_tgds:
        owner = mapping.temporaries.get(tgd.target_relation, tgd.target_relation)
        statements.setdefault(owner, []).append(tgd)
    tgds = [
        _drop_duplicate_atoms(tgd)
        for group in statements.values()
        for tgd in _compose(group, mapping.temporaries)
    ]
    removed = {t.target_relation for t in mapping.target_tgds} - {
        t.target_relation for t in tgds
    }
    target = Schema(
        (c for c in mapping.target if c.name not in removed), mapping.target.name
    )
    egds = [e for e in mapping.egds if e.relation not in removed]
    temporaries = {
        t: o for t, o in mapping.temporaries.items() if t not in removed
    }
    return SchemaMapping(
        mapping.source,
        target,
        list(mapping.st_tgds),
        tgds,
        egds,
        mapping.registry,
        temporaries,
    )


def _compose(tgds: List[Tgd], temporaries: Dict[str, str]) -> List[Tgd]:
    """Inline each single-use temporary of one statement's tgds."""
    tgds = list(tgds)
    changed = True
    while changed:
        changed = False
        for producer_index, producer in enumerate(tgds):
            temp = producer.target_relation
            if temp not in temporaries:
                continue
            if producer.kind not in (TgdKind.COPY, TgdKind.TUPLE_LEVEL):
                continue
            consumers = [
                (i, t)
                for i, t in enumerate(tgds)
                if i != producer_index and temp in t.source_relations
            ]
            if len(consumers) != 1:
                continue
            consumer_index, consumer = consumers[0]
            if consumer.source_relations.count(temp) != 1:
                continue
            inlined = _inline(producer, consumer)
            if inlined is None:
                continue
            tgds[consumer_index] = inlined
            del tgds[producer_index]
            changed = True
            break
    return tgds


def _inline(producer: Tgd, consumer: Tgd) -> Optional[Tgd]:
    """Compose ``producer`` into ``consumer``; None if not expressible."""
    if consumer.kind in (TgdKind.TABLE_FUNCTION, TgdKind.OUTER_TUPLE_LEVEL):
        # outer tgds read the temp's *extension* (union semantics);
        # inlining its definition is not extension-preserving in general
        return None
    if consumer.kind is TgdKind.AGGREGATION and len(producer.lhs) != 1:
        # keeping aggregation tgds single-atom preserves the paper's shape
        return None
    temp = producer.target_relation
    atom_index = next(
        i for i, a in enumerate(consumer.lhs) if a.relation == temp
    )
    consumer_atom = consumer.lhs[atom_index]
    producer = _rename_apart(producer, consumer)

    producer_subs: Dict[str, Term] = {}
    consumer_subs: Dict[str, Term] = {}
    for p_term, c_term in zip(producer.rhs.terms, consumer_atom.terms):
        p_term = substitute(p_term, producer_subs)
        c_term = substitute(c_term, consumer_subs)
        if isinstance(p_term, Var):
            producer_subs[p_term.name] = c_term
            continue
        inverted = _invert(p_term, c_term)
        if inverted is not None:
            var_name, solution = inverted
            producer_subs[var_name] = solution
            continue
        if isinstance(c_term, Var):
            consumer_subs[c_term.name] = p_term
            continue
        if p_term == c_term:
            continue
        return None

    # Substitutions in the two maps can chain through each other
    # (a producer variable mapped to a consumer variable that is itself
    # substituted later); resolve terms to a fixpoint.
    def resolve(term: Term) -> Term:
        for _ in range(10):
            updated = substitute(substitute(term, producer_subs), consumer_subs)
            if updated == term:
                return term
            term = updated
        raise MappingError("substitution did not stabilize while inlining")

    def resolve_rhs(term: Term) -> Term:
        if isinstance(term, AggTerm):
            return AggTerm(term.func, resolve(term.operand))
        return resolve(term)

    def resolve_atom(atom: Atom) -> Atom:
        return Atom(atom.relation, tuple(_fold_shift(resolve(t)) for t in atom.terms))

    try:
        new_lhs = []
        for i, atom in enumerate(consumer.lhs):
            if i == atom_index:
                new_lhs.extend(resolve_atom(a) for a in producer.lhs)
            else:
                new_lhs.append(resolve_atom(atom))
        if not all(_matchable(t) for atom in new_lhs for t in atom.terms):
            # every target binds an lhs position as a variable or a
            # shifted one; anything else keeps the temporary
            return None
        new_rhs = Atom(
            consumer.rhs.relation,
            tuple(resolve_rhs(t) for t in consumer.rhs.terms),
        )
        return Tgd(
            new_lhs,
            new_rhs,
            consumer.kind,
            group_arity=consumer.group_arity,
            label=consumer.label,
        )
    except MappingError:
        return None


def _drop_duplicate_atoms(tgd: Tgd) -> Tgd:
    """Merge lhs atoms that the egds make redundant.

    Two atoms over the same relation whose *dimension* terms coincide
    bind the same tuple — the functionality egd forces their measure
    variables to be equal.  The later atom is dropped and its measure
    variable substituted by the earlier one's; this turns the composed
    tgd (5) into the paper's two-atom form.
    """
    if tgd.kind in (TgdKind.TABLE_FUNCTION, TgdKind.OUTER_TUPLE_LEVEL):
        return tgd
    if len(tgd.lhs) < 2:
        return tgd
    kept: List[Atom] = []
    subs: Dict[str, Term] = {}
    for atom in tgd.lhs:
        duplicate = None
        for other in kept:
            if (
                other.relation == atom.relation
                and len(other.terms) == len(atom.terms)
                and other.terms[:-1] == atom.terms[:-1]
            ):
                duplicate = other
                break
        if duplicate is None:
            kept.append(atom)
            continue
        mine, theirs = atom.terms[-1], duplicate.terms[-1]
        if isinstance(mine, Var) and not isinstance(theirs, AggTerm):
            subs[mine.name] = theirs
        else:
            kept.append(atom)
    if not subs or len(kept) == len(tgd.lhs):
        return tgd
    lhs = [
        Atom(a.relation, tuple(substitute(t, subs) for t in a.terms)) for a in kept
    ]
    rhs_terms = []
    for term in tgd.rhs.terms:
        if isinstance(term, AggTerm):
            rhs_terms.append(AggTerm(term.func, substitute(term.operand, subs)))
        else:
            rhs_terms.append(substitute(term, subs))
    return Tgd(
        lhs,
        Atom(tgd.rhs.relation, tuple(rhs_terms)),
        tgd.kind,
        group_arity=tgd.group_arity,
        label=tgd.label,
    )


def _invert(p_term: Term, c_term: Term) -> Optional[Tuple[str, Term]]:
    """Solve ``p_term == c_term`` for the single variable of ``p_term``.

    Handles the shift shape ``v ± const``: equating ``t + 1`` with the
    consumer's ``q`` yields ``t := q - 1`` (the paper's tgd (5) lhs).
    """
    if not isinstance(c_term, Var):
        return None
    if not isinstance(p_term, FuncApp) or p_term.name not in ("+", "-"):
        return None
    if len(p_term.args) != 2:
        return None
    left, right = p_term.args
    if isinstance(left, Var) and isinstance(right, Const):
        inverse = "-" if p_term.name == "+" else "+"
        return left.name, FuncApp(inverse, (c_term, right))
    if p_term.name == "+" and isinstance(right, Var) and isinstance(left, Const):
        return right.name, FuncApp("-", (c_term, left))
    return None


def _fold_shift(term: Term) -> Term:
    """Fold a nested shift ``(v ± a) ± b`` into ``v ± c`` (``v`` when
    ``c`` is 0): inlining a shift producer into an atom that is already
    shifted nests the two offsets."""
    outer = _offset(term)
    if outer is None:
        return term
    inner, b = outer
    folded = _fold_shift(inner)
    nested = _offset(folded)
    if nested is None:
        return term if folded is inner else FuncApp(term.name, (folded, term.args[1]))
    var, a = nested
    total = a + b
    if total == 0:
        return var
    if total > 0:
        return FuncApp("+", (var, Const(total)))
    return FuncApp("-", (var, Const(-total)))


def _offset(term: Term) -> Optional[Tuple[Term, float]]:
    """``(x, k)`` for ``x + k``, ``(x, -k)`` for ``x - k`` with a
    numeric constant ``k``; None for any other term."""
    if not (
        isinstance(term, FuncApp)
        and term.name in ("+", "-")
        and len(term.args) == 2
        and isinstance(term.args[1], Const)
        and isinstance(term.args[1].value, (int, float))
    ):
        return None
    k = term.args[1].value
    return term.args[0], (k if term.name == "+" else -k)


def _matchable(term: Term) -> bool:
    """Whether every target can match ``term`` in an lhs atom."""
    return isinstance(term, Var) or unshift(term) is not None


def _rename_apart(producer: Tgd, consumer: Tgd) -> Tgd:
    """Rename producer variables that clash with the consumer's."""
    consumer_vars = set()
    for atom in consumer.lhs:
        consumer_vars |= atom.variables()
    consumer_vars |= consumer.rhs.variables()
    producer_vars = set()
    for atom in producer.lhs:
        producer_vars |= atom.variables()
    producer_vars |= producer.rhs.variables()
    clashes = producer_vars & consumer_vars
    if not clashes:
        return producer
    subs: Dict[str, Term] = {}
    taken = producer_vars | consumer_vars
    for name in sorted(clashes):
        candidate = name
        suffix = 0
        while candidate in taken:
            suffix += 1
            candidate = f"{name}_{suffix}"
        taken.add(candidate)
        subs[name] = Var(candidate)
    lhs = [
        Atom(a.relation, tuple(substitute(t, subs) for t in a.terms))
        for a in producer.lhs
    ]
    rhs = Atom(
        producer.rhs.relation,
        tuple(substitute(t, subs) for t in producer.rhs.terms),
    )
    return Tgd(
        lhs,
        rhs,
        producer.kind,
        group_arity=producer.group_arity,
        table_function=producer.table_function,
        tf_params=producer.tf_params,
        label=producer.label,
    )
