"""Evaluation of selection queries on data graphs (Definitions 2.2–2.3).

A *binding* maps node variables to oids, label variables to labels, and
value variables to atomic values, subject to:

1. the root variable binds to the root node;
2. referenceable variables bind to referenceable nodes;
3. constant-value patterns match atomic nodes with that value;
4. value-variable patterns bind the variable to the node's atomic value;
5. collection patterns are *satisfied* at the bound node per Definition
   2.2: each arm ``R -> Y`` is witnessed by a path from the node to the
   binding of ``Y`` whose label word is in ``lang(R)``; for ordered
   patterns there must be a choice of witness first edges whose child
   positions strictly increase along every constraint in
   :meth:`~repro.query.model.PatternDef.order_pairs` (the full arm-list
   chain by default, the declared pairs for partially ordered patterns) —
   arms not related by any constraint may share a first edge — while
   unordered patterns use set semantics and may overlap arbitrarily.

Ordered patterns match only ordered nodes and unordered patterns only
unordered nodes, mirroring the kind split in Definition 2.2.

Path search runs the arm's regex NFA over the graph with memoization, so
regular path expressions (including ``_*``) terminate on cyclic data.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..automata.nfa import NFA
from ..automata.syntax import Regex
from ..cancellation import POLL_EVERY, current_deadline, raise_if_cancelled
from ..data.model import AtomicValue, DataGraph
from ..engine import Engine, get_default_engine
from .model import LabelVar, PatternDef, PatternKind, Query, QueryError

#: A binding: node vars map to oids, ``$``-prefixed label/value variables
#: map to labels and atomic values respectively.
Binding = Dict[str, Union[str, AtomicValue]]


class _PathMatcher:
    """Finds regex-path matches from graph nodes, memoized per regex."""

    def __init__(self, graph: DataGraph, engine: Optional[Engine] = None):
        self.graph = graph
        self.engine = engine if engine is not None else get_default_engine()
        self.alphabet = frozenset(graph.labels())
        # cache[(regex, oid)] = mapping first-edge-index -> set of end oids
        self._cache: Dict[Tuple[Regex, str], Dict[int, FrozenSet[str]]] = {}

    def _nfa(self, regex: Regex) -> NFA:
        return self.engine.thompson(regex, self.alphabet | frozenset(regex.symbols()))

    def matches(self, regex: Regex, oid: str) -> Dict[int, FrozenSet[str]]:
        """All ways a path from ``oid`` matches ``regex``.

        Returns a mapping from the first edge's child position to the set
        of reachable end nodes (the possible bindings of the arm's target
        through that first edge).
        """
        key = (regex, oid)
        if key in self._cache:
            return self._cache[key]
        nfa = self._nfa(regex)
        start = nfa.initial_states()
        result: Dict[int, Set[str]] = {}
        node = self.graph.node(oid)
        for index, edge in enumerate(node.edges):
            after_first = nfa.step(start, edge.label)
            if not after_first:
                continue
            ends = self._closure_ends(nfa, edge.target, after_first)
            if ends:
                result[index] = ends
        frozen = {index: frozenset(ends) for index, ends in result.items()}
        self._cache[key] = frozen
        return frozen

    def _closure_ends(
        self, nfa: NFA, oid: str, states: FrozenSet[int]
    ) -> Set[str]:
        """Nodes reachable from (oid, states) at an accepting state."""
        ends: Set[str] = set()
        seen: Set[Tuple[str, FrozenSet[int]]] = set()
        stack: List[Tuple[str, FrozenSet[int]]] = [(oid, states)]
        while stack:
            current, current_states = stack.pop()
            if (current, current_states) in seen:
                continue
            seen.add((current, current_states))
            if current_states & nfa.accepting:
                ends.add(current)
            for edge in self.graph.node(current).edges:
                nxt = nfa.step(current_states, edge.label)
                if nxt:
                    stack.append((edge.target, nxt))
        return ends


def evaluate(
    query: Query,
    graph: DataGraph,
    limit: Optional[int] = None,
    engine: Optional[Engine] = None,
) -> List[Binding]:
    """Evaluate ``query`` on ``graph``; return the projected bindings.

    The result lists the distinct SELECT-projected bindings; each entry
    maps every selected variable to its value.  For boolean queries the
    result is ``[{}]`` when the query holds and ``[]`` otherwise.

    Args:
        limit: stop after this many distinct projected bindings (useful for
            existence checks and large result spaces).
    """
    known = (
        set(query.node_vars()) | set(query.label_vars()) | set(query.value_vars())
    )
    unbound = [name for name in query.select if name not in known]
    if unbound:
        # Reachable only for queries built with validate=False; validated
        # queries reject such SELECT clauses at construction time.
        raise QueryError(
            f"SELECT references variables never bound by the patterns: "
            f"{sorted(set(unbound))}"
        )
    results: List[Binding] = []
    seen: Set[Tuple] = set()
    for binding in iterate_bindings(query, graph, engine):
        projected = {name: binding[name] for name in query.select}
        key = tuple(sorted(projected.items()))
        if key in seen:
            continue
        seen.add(key)
        results.append(projected)
        if limit is not None and len(results) >= limit:
            break
    return results


def satisfies(
    query: Query, graph: DataGraph, engine: Optional[Engine] = None
) -> bool:
    """True if the query has at least one binding on the graph."""
    for _binding in iterate_bindings(query, graph, engine):
        return True
    return False


def iterate_bindings(
    query: Query, graph: DataGraph, engine: Optional[Engine] = None
) -> Iterator[Binding]:
    """Yield all full bindings of the query on the graph (Definition 2.3).

    Bindings include every node, label, and value variable.  The same full
    binding may be yielded once per distinct witness-path combination; use
    :func:`evaluate` for deduplicated, projected results.
    """
    matcher = _PathMatcher(graph, engine)
    ordered_defs = _definition_order(query)
    root_binding: Binding = {query.root_var: graph.root}
    if query.root_var.startswith("&") and not graph.root_node.is_referenceable:
        return
    yield from _extend(query, graph, matcher, ordered_defs, 0, root_binding)


def _definition_order(query: Query) -> List[PatternDef]:
    """Order definitions so each variable is bound before its definition.

    The root's definition comes first; every other definition follows some
    definition whose arms reference its variable (connectedness guarantees
    such an order exists).
    """
    remaining = {p.var: p for p in query.patterns}
    bound = {query.root_var}
    order: List[PatternDef] = []
    if query.root_var in remaining:
        order.append(remaining.pop(query.root_var))
        bound.update(order[-1].targets())
    progress = True
    while remaining and progress:
        progress = False
        for var in list(remaining):
            if var in bound:
                pattern = remaining.pop(var)
                order.append(pattern)
                bound.update(pattern.targets())
                progress = True
    if remaining:
        raise ValueError(
            f"patterns not reachable from the root: {sorted(remaining)}"
        )
    return order


def _extend(
    query: Query,
    graph: DataGraph,
    matcher: _PathMatcher,
    defs: List[PatternDef],
    index: int,
    binding: Binding,
) -> Iterator[Binding]:
    if index == len(defs):
        yield dict(binding)
        return
    pattern = defs[index]
    oid = binding[pattern.var]
    node = graph.node(oid)

    if pattern.kind is PatternKind.VALUE:
        if node.is_atomic and node.value == pattern.value:
            yield from _extend(query, graph, matcher, defs, index + 1, binding)
        return

    if pattern.kind is PatternKind.VALUE_VAR:
        if not node.is_atomic:
            return
        name = "$" + pattern.value_var
        if name in binding and binding[name] != node.value:
            return
        had = name in binding
        binding[name] = node.value
        yield from _extend(query, graph, matcher, defs, index + 1, binding)
        if not had:
            del binding[name]
        return

    # Collection pattern: kind must match the node's kind.
    if pattern.is_ordered != node.is_ordered or node.is_atomic:
        return

    yield from _match_arms(query, graph, matcher, defs, index, binding, pattern, oid)


def _match_arms(
    query: Query,
    graph: DataGraph,
    matcher: _PathMatcher,
    defs: List[PatternDef],
    index: int,
    binding: Binding,
    pattern: PatternDef,
    oid: str,
) -> Iterator[Binding]:
    node = graph.node(oid)
    # Per arm: list of (first_edge_index, end_oid) options.
    options: List[List[Tuple[int, str, Optional[Tuple[str, str]]]]] = []
    for arm in pattern.arms:
        arm_options: List[Tuple[int, str, Optional[Tuple[str, str]]]] = []
        if arm.is_label_var:
            name = "$" + arm.path.name
            bound_label = binding.get(name)
            for edge_index, edge in enumerate(node.edges):
                if bound_label is not None and edge.label != bound_label:
                    continue
                arm_options.append((edge_index, edge.target, (name, edge.label)))
        else:
            for edge_index, ends in matcher.matches(arm.path, oid).items():
                for end in sorted(ends):
                    arm_options.append((edge_index, end, None))
        if not arm_options:
            return
        options.append(arm_options)

    order_pairs = pattern.order_pairs()
    # The combinations number |options|^arms; poll while walking them.
    cancel = current_deadline()
    for count, combo in enumerate(itertools.product(*options), 1):
        if count % POLL_EVERY == 0:
            raise_if_cancelled(cancel)
        if pattern.is_ordered:
            positions = [edge_index for edge_index, _end, _lv in combo]
            # First edges must respect the (partial) order: strictly
            # increasing along every constraint; unconstrained arm pairs
            # may come in any order or even share a first edge.
            if any(positions[i] >= positions[j] for i, j in order_pairs):
                continue
        new_node_bindings: List[Tuple[str, str]] = []
        new_label_bindings: List[Tuple[str, str]] = []
        feasible = True
        staged: Dict[str, Union[str, AtomicValue]] = {}
        for arm, (edge_index, end, label_binding) in zip(pattern.arms, combo):
            target = arm.target
            existing = binding.get(target, staged.get(target))
            if existing is not None:
                if existing != end:
                    feasible = False
                    break
            else:
                if target.startswith("&") and not graph.node(end).is_referenceable:
                    feasible = False
                    break
                staged[target] = end
                new_node_bindings.append((target, end))
            if label_binding is not None:
                name, label = label_binding
                existing_label = binding.get(name, staged.get(name))
                if existing_label is not None:
                    if existing_label != label:
                        feasible = False
                        break
                else:
                    staged[name] = label
                    new_label_bindings.append((name, label))
        if not feasible:
            continue
        binding.update(staged)
        yield from _extend(query, graph, matcher, defs, index + 1, binding)
        for name, _value in new_node_bindings + new_label_bindings:
            del binding[name]
