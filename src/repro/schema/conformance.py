"""Conformance of data graphs to schemas (Definition 2.1).

A graph ``G`` conforms to a schema ``S`` if there is a *type assignment*
``τ`` from nodes to type ids such that

1. the root maps to the root type,
2. referenceable nodes map to referenceable types,
3. atomic nodes map to atomic types containing their value, and
4. collection nodes map to collection types of matching orderedness whose
   regex accepts (some ordering of, for unordered nodes) the typed edge
   sequence.

The paper notes conformance is NP-complete in general but PTIME for a large
class including tagged schemas.  The implementation mirrors that split:

* **candidate refinement** (arc consistency): per-node candidate-type sets
  are refined to a greatest fixpoint — polynomial time;
* **assignment extraction**: non-referenceable regions are forests, so a
  witness run chosen top-down assigns them deterministically without
  backtracking; search happens only over the types of *referenceable*
  (shareable) nodes, which is where the NP-hardness genuinely lives.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..automata.bag import bag_run_groups
from ..automata.compiled import run_with_choices_compiled
from ..automata.nfa import NFA
from ..automata.ops import run_with_choices
from ..cancellation import current_deadline, raise_if_cancelled
from ..data.model import DataGraph, Node
from ..engine import Engine, get_default_engine
from .model import Schema, TypeDef, atomic_matches

#: A candidate map: oid -> set of admissible type ids.
Domains = Dict[str, FrozenSet[str]]


def _ordered_witness(
    engine: Engine, schema: Schema, tid: str, choice_sets: Sequence[FrozenSet]
) -> Optional[List]:
    """A witness word of ``tid``'s content model over per-edge choices.

    On the compiled backend the walk runs on the minimized table
    (deterministic witness order); the NFA route is kept for
    differential testing.  Unordered (bag) support stays on the NFA —
    the bag DP needs state-set introspection the table does not expose.
    """
    if engine.backend == "compiled":
        return run_with_choices_compiled(
            engine.compiled_content(schema, tid), choice_sets
        )
    return run_with_choices(engine.content_nfa(schema, tid), choice_sets)


def _ordered_member(
    engine: Engine, schema: Schema, tid: str, typed_edges: Sequence
) -> bool:
    """Ordered content-model membership on the engine's backend."""
    if engine.backend == "compiled":
        return engine.compiled_content(schema, tid).member(typed_edges)
    return engine.content_nfa(schema, tid).accepts(typed_edges)


def candidate_types(
    graph: DataGraph, schema: Schema, engine: Optional[Engine] = None
) -> Domains:
    """Arc-consistent candidate-type sets for every node.

    Starts from kind/value/referenceability-compatible candidates (with the
    root pinned to the root type per condition 1) and removes any candidate
    with no supporting run over the children's candidate sets, iterating to
    a fixpoint.  A node whose set ends up empty cannot be typed; if the
    root's set is empty the graph does not conform.
    """
    if engine is None:
        engine = get_default_engine()

    domains: Dict[str, Set[str]] = {}
    for node in graph:
        candidates = {
            type_def.tid
            for type_def in schema
            if _kind_compatible(node, type_def)
        }
        if node.oid == graph.root:
            candidates &= {schema.root}
        domains[node.oid] = candidates

    changed = True
    while changed:
        changed = False
        for node in graph:
            if node.is_atomic:
                continue
            survivors = {
                tid
                for tid in domains[node.oid]
                if _has_support(node, tid, domains, schema, engine)
            }
            if survivors != domains[node.oid]:
                domains[node.oid] = survivors
                changed = True
    return {oid: frozenset(candidates) for oid, candidates in domains.items()}


def _kind_compatible(node: Node, type_def: TypeDef) -> bool:
    if node.is_referenceable and not type_def.is_referenceable:
        return False
    if node.is_atomic:
        return type_def.is_atomic and atomic_matches(type_def.atomic, node.value)
    if node.is_ordered:
        return type_def.is_ordered
    return type_def.is_unordered


def _choice_sets(node: Node, domains: Dict[str, Set[str]]) -> Optional[List[FrozenSet]]:
    """Per-edge symbol choices ``(label, T)`` for T in the child's domain."""
    sets = []
    for edge in node.edges:
        child_domain = domains[edge.target]
        if not child_domain:
            return None
        sets.append(frozenset((edge.label, tid) for tid in child_domain))
    return sets


def _group_edges(
    node: Node, domains: Dict[str, Set[str]]
) -> Optional[List[Tuple[FrozenSet, List[int]]]]:
    """Group interchangeable edges of an unordered node.

    Two edges are interchangeable when they share the label and the child
    candidate set; the bag DP then only tracks counts per group.  Returns
    ``(choices, edge_indexes)`` pairs or None if some child is untypable.
    """
    groups: Dict[FrozenSet, List[int]] = {}
    for index, edge in enumerate(node.edges):
        child_domain = domains[edge.target]
        if not child_domain:
            return None
        choices = frozenset((edge.label, tid) for tid in child_domain)
        groups.setdefault(choices, []).append(index)
    return list(groups.items())


def _has_support(
    node: Node, tid: str, domains: Dict[str, Set[str]], schema: Schema, engine: Engine
) -> bool:
    if node.is_ordered:
        choice_sets = _choice_sets(node, domains)
        if choice_sets is None:
            return False
        return _ordered_witness(engine, schema, tid, choice_sets) is not None
    grouped = _group_edges(node, domains)
    if grouped is None:
        return False
    nfa = engine.content_nfa(schema, tid)
    return bag_run_groups(nfa, [(choices, len(idx)) for choices, idx in grouped]) is not None


def find_type_assignment(
    graph: DataGraph, schema: Schema, engine: Optional[Engine] = None
) -> Optional[Dict[str, str]]:
    """Return a full type assignment ``oid -> tid``, or None.

    After refinement, searches over the candidate types of referenceable
    nodes only; each choice is checked by deterministically typing the
    non-referenceable forest hanging off the root and off each referenceable
    node.  The search is exponential only in the number of referenceable
    nodes — conformance for tree data (e.g. XML documents) never backtracks.
    Each choice costs a full typing pass, so the search polls the caller's
    deadline before every one.
    """
    domains = candidate_types(graph, schema, engine)
    if not domains[graph.root]:
        return None
    referenceable = [
        node.oid for node in graph if node.is_referenceable and node.oid != graph.root
    ]
    if any(not domains[oid] for oid in domains):
        # Some node is untypable; no assignment can exist.
        return None

    root_choices = sorted(domains[graph.root])
    candidate_lists = [sorted(domains[oid]) for oid in referenceable]
    cancel = current_deadline()
    for root_tid in root_choices:
        for combo in itertools.product(*candidate_lists):
            raise_if_cancelled(cancel)
            fixed = dict(zip(referenceable, combo))
            fixed[graph.root] = root_tid
            assignment = _try_extend(graph, schema, domains, fixed, engine)
            if assignment is not None:
                return assignment
    return None


def _try_extend(
    graph: DataGraph,
    schema: Schema,
    domains: Domains,
    fixed: Dict[str, str],
    engine: Optional[Engine] = None,
) -> Optional[Dict[str, str]]:
    """Extend a choice for the referenceable nodes to a full assignment.

    Types each region top-down: starting at every fixed node, a witness run
    of the node's regex over the children's domains (children already fixed
    are pinned) assigns types to the non-referenceable children, which are
    then processed recursively.  Returns None as soon as some node admits
    no witness run under the fixed choices.
    """
    if engine is None:
        engine = get_default_engine()

    assignment: Dict[str, str] = dict(fixed)
    pending = list(fixed)
    processed: Set[str] = set()
    while pending:
        oid = pending.pop()
        if oid in processed:
            continue
        processed.add(oid)
        node = graph.node(oid)
        tid = assignment[oid]
        if node.is_atomic:
            continue
        edge_domains = [
            frozenset([assignment[edge.target]])
            if edge.target in assignment
            else domains[edge.target]
            for edge in node.edges
        ]
        if node.is_ordered:
            choice_sets = [
                frozenset((edge.label, t) for t in edge_domain)
                for edge, edge_domain in zip(node.edges, edge_domains)
            ]
            witness = _ordered_witness(engine, schema, tid, choice_sets)
            if witness is None:
                return None
            chosen = [symbol[1] for symbol in witness]
        else:
            nfa = engine.content_nfa(schema, tid)
            groups: Dict[Tuple[str, FrozenSet[str]], List[int]] = {}
            for index, (edge, edge_domain) in enumerate(zip(node.edges, edge_domains)):
                groups.setdefault((edge.label, edge_domain), []).append(index)
            group_list = list(groups.items())
            group_specs = [
                (frozenset((label, t) for t in edge_domain), len(indexes))
                for (label, edge_domain), indexes in group_list
            ]
            per_group = bag_run_groups(nfa, group_specs)
            if per_group is None:
                return None
            chosen = [""] * len(node.edges)
            for ((_label, _dom), indexes), symbols in zip(group_list, per_group):
                for index, symbol in zip(indexes, symbols):
                    chosen[index] = symbol[1]
        for edge, child_tid in zip(node.edges, chosen):
            if edge.target in assignment:
                if assignment[edge.target] != child_tid:
                    # The witness run disagrees with a previously assigned
                    # shared node; since shared nodes are fixed up front and
                    # pinned in the choice sets, this cannot happen.
                    return None
                continue
            assignment[edge.target] = child_tid
            pending.append(edge.target)
    if len(assignment) != len(graph.nodes):
        # Unreached nodes (possible only with unusual sharing) default to
        # any candidate; they are constrained solely by their own subtree.
        for node in graph:
            if node.oid not in assignment:
                return None
    return assignment


def conforms(
    graph: DataGraph, schema: Schema, engine: Optional[Engine] = None
) -> bool:
    """True if ``graph`` conforms to ``schema`` (Definition 2.1)."""
    return find_type_assignment(graph, schema, engine) is not None


def verify_assignment(
    graph: DataGraph,
    schema: Schema,
    assignment: Dict[str, str],
    engine: Optional[Engine] = None,
) -> bool:
    """Check a full type assignment against Definition 2.1 directly.

    Used by tests as an independent oracle for :func:`find_type_assignment`.
    """
    if engine is None:
        engine = get_default_engine()
    if assignment.get(graph.root) != schema.root:
        return False
    for node in graph:
        tid = assignment.get(node.oid)
        if tid is None or tid not in schema:
            return False
        type_def = schema.type(tid)
        if node.is_referenceable and not type_def.is_referenceable:
            return False
        if node.is_atomic:
            if not type_def.is_atomic:
                return False
            if not atomic_matches(type_def.atomic, node.value):
                return False
            continue
        if node.is_ordered != type_def.is_ordered:
            return False
        if any(edge.target not in assignment for edge in node.edges):
            return False
        typed_edges = [
            (edge.label, assignment[edge.target]) for edge in node.edges
        ]
        if node.is_ordered:
            if not _ordered_member(engine, schema, tid, typed_edges):
                return False
        else:
            from ..automata.bag import bag_accepts

            if not bag_accepts(schema.compile_regex(tid, engine), typed_edges):
                return False
    return True
