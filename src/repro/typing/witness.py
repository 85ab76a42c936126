"""Witness construction: concrete certificates for satisfiability.

Theorem 3.1's membership side rests on the fact that a satisfiable query
has a polynomial-size witness: a conforming data graph on which the query
returns a non-empty result.  This module *builds* such witnesses for
join-free queries whose collection definitions are ordered (the Section
3.4 fragment), turning every positive satisfiability verdict into a
checkable certificate:

    >>> graph = find_witness(query, schema)
    >>> conforms(graph, schema) and satisfies(query, graph)
    True

Construction, bottom-up over the pattern tree (mirroring the acyclic
extended CFG):

1. pick a viable type for each variable (``TraceGrammar.viable_types``);
2. for a definition ``X = [R1 -> X1, ..., Rk -> Xk]`` at type ``T``, take
   a shortest word of the trace product — it fixes each arm's label path
   and end type;
3. embed the k first edges, in order, into a content word of ``R_T``
   (product search), realize arm paths through the schema graph, and
   close every remaining obligation with a *minimal* conforming subtree
   (rank-decreasing content words always terminate).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..automata.nfa import EPS, NFA
from ..data.model import DataGraph, Edge, Node, NodeKind
from ..engine import Engine
from ..query.model import PatternKind, Query
from ..schema.model import Schema
from .grammar import TraceGrammar
from .traces import is_marker, trace_product


class WitnessError(ValueError):
    """Raised when witness construction is asked for an unsupported form."""


def find_witness(
    query: Query, schema: Schema, engine: Optional[Engine] = None
) -> Optional[DataGraph]:
    """Build a conforming instance on which the query matches, or None.

    Supports join-free queries whose collection definitions are ordered
    and use regex arms (value and value-variable definitions are fine).
    Compiles on ``engine`` (default: the process-default engine).

    Raises:
        WitnessError: for joins, unordered definitions, or label-variable
            arms (use the general checker for verdicts on those).
    """
    try:
        grammar = TraceGrammar(query, schema, engine)
    except ValueError as error:
        raise WitnessError(str(error)) from error
    if schema.root not in grammar.viable_types(query.root_var):
        return None
    builder = _WitnessBuilder(query, schema, grammar)
    root_oid = builder.build_variable(query.root_var, schema.root)
    nodes = builder.nodes
    ordered = [next(n for n in nodes if n.oid == root_oid)]
    ordered += [n for n in nodes if n.oid != root_oid]
    return DataGraph(ordered)


class _WitnessBuilder:
    def __init__(self, query: Query, schema: Schema, grammar: TraceGrammar):
        self.query = query
        self.schema = schema
        self.grammar = grammar
        self.reach = grammar.reach
        self.engine = grammar.engine
        self.ranks = schema.inhabitation_ranks(self.engine)
        self.edges = schema.possible_edges(self.engine)
        self.nodes: List[Node] = []
        self._counter = itertools.count(1)

    def fresh_oid(self) -> str:
        return f"w{next(self._counter)}"

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def build_variable(self, var: str, tid: str) -> str:
        """Materialize a node of type ``tid`` satisfying ``var``'s subtree."""
        definition = self.query.definition(var)
        if definition is None:
            return self.minimal_subtree(tid)
        if definition.kind is PatternKind.VALUE:
            oid = self.fresh_oid()
            self.nodes.append(Node(oid, NodeKind.ATOMIC, value=definition.value))
            return oid
        if definition.kind is PatternKind.VALUE_VAR:
            return self.minimal_subtree(tid)
        return self.build_collection(definition, tid)

    def build_collection(self, definition, tid: str) -> str:
        arms = [arm.path for arm in definition.arms]
        if not arms:
            return self.minimal_subtree(tid)
        allowed = [self.grammar.viable_types(arm.target) for arm in definition.arms]
        product = trace_product(
            self.schema, [tid], arms, allowed, self.reach, self.engine
        )
        trace = product.shortest_word()
        if trace is None:
            raise WitnessError(
                f"no trace for {definition.var!r} at type {tid!r} "
                "(viability promised one; this is a bug)"
            )
        segments, end_types = _split_trace(trace)
        # Each segment i starts with the first edge of arm i; realize the
        # remainder of the path through the schema graph.
        first_symbols: List[Tuple[str, str]] = []
        subtree_oids: List[str] = []
        for index, (segment, end_type) in enumerate(zip(segments, end_types)):
            first_label = segment[0]
            rest = segment[1:]
            step_type = self._first_target(tid, first_label, rest, end_type, index)
            first_symbols.append((first_label, step_type))
            subtree_oids.append(
                self.build_path(
                    step_type, rest, end_type, definition.arms[index].target
                )
            )
        word = self._embed_in_content(tid, first_symbols)
        oid = self.fresh_oid()
        edges = []
        pending = list(zip(first_symbols, subtree_oids))
        for symbol in word:
            if pending and symbol == pending[0][0]:
                edges.append(Edge(symbol[0], pending.pop(0)[1]))
            else:
                edges.append(Edge(symbol[0], self.minimal_subtree(symbol[1])))
        if pending:
            raise WitnessError("content embedding failed to place all arms")
        self.nodes.append(Node(oid, NodeKind.ORDERED, edges=edges))
        return oid

    def _first_target(
        self,
        tid: str,
        first_label: str,
        rest: Sequence[str],
        end_type: str,
        arm_index: int,
    ) -> str:
        """Choose the type behind the arm's first edge such that the rest
        of the label word can reach ``end_type`` through Γ(S)."""
        for label, target in sorted(self.edges.get(tid, ())):
            if label != first_label:
                continue
            if self._path_exists(target, rest, end_type):
                return target
        raise WitnessError(
            f"no schema edge realizes arm {arm_index} of the trace"
        )

    def _path_exists(self, start: str, labels: Sequence[str], end: str) -> bool:
        current = {start}
        for label in labels:
            nxt: Set[str] = set()
            for tid in current:
                for edge_label, target in self.edges.get(tid, ()):
                    if edge_label == label:
                        nxt.add(target)
            if not nxt:
                return False
            current = nxt
        return end in current

    def build_path(
        self, start: str, labels: Sequence[str], end: str, target_var: str
    ) -> str:
        """Materialize a path with the given labels from a ``start``-typed
        node to the target variable's witness node (built recursively)."""
        # Choose the type sequence greedily (backwards-checked).
        types = [start]
        current = start
        for index, label in enumerate(labels):
            remaining = labels[index + 1 :]
            chosen = None
            for edge_label, target in sorted(self.edges.get(current, ())):
                if edge_label == label and self._path_exists(target, remaining, end):
                    chosen = target
                    break
            if chosen is None:
                raise WitnessError("path realization failed (should not happen)")
            types.append(chosen)
            current = chosen
        # Build from the end back: the last node is the variable's witness.
        tail_oid = self.build_variable(target_var, types[-1])
        for index in range(len(labels) - 1, -1, -1):
            tail_oid = self._node_with_child(types[index], labels[index], types[index + 1], tail_oid)
        return tail_oid

    def _node_with_child(
        self, tid: str, label: str, child_tid: str, child_oid: str
    ) -> str:
        """A ``tid``-node whose content embeds one ``(label, child_tid)``
        edge pointing at ``child_oid`` (fillers minimal)."""
        word = self._embed_in_content(tid, [(label, child_tid)])
        oid = self.fresh_oid()
        edges = []
        placed = False
        for symbol in word:
            if not placed and symbol == (label, child_tid):
                edges.append(Edge(label, child_oid))
                placed = True
            else:
                edges.append(Edge(symbol[0], self.minimal_subtree(symbol[1])))
        if not placed:
            raise WitnessError("content embedding lost the path edge")
        self.nodes.append(Node(oid, NodeKind.ORDERED, edges=edges))
        return oid

    # ------------------------------------------------------------------
    # Content words and minimal subtrees
    # ------------------------------------------------------------------

    def _embed_in_content(
        self, tid: str, required: Sequence[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        """A shortest word of the type's content language containing the
        required symbols in order (at distinct, increasing positions)."""
        nfa = self._restricted(tid)
        start = (nfa.initial_states(), 0)
        # BFS over (state set, progress) recording the word built so far.
        from collections import deque

        queue = deque([(start, [])])
        seen = {start}
        while queue:
            (states, progress), word = queue.popleft()
            if progress == len(required) and (states & nfa.accepting):
                return word
            for symbol in sorted(
                {
                    s
                    for q in states
                    for s, _dst in nfa.arcs_from(q)
                    if s is not EPS
                },
                key=repr,
            ):
                next_states = nfa.step(states, symbol)
                if not next_states:
                    continue
                options = [progress]
                if progress < len(required) and symbol == required[progress]:
                    options.append(progress + 1)
                for next_progress in options:
                    state = (next_states, next_progress)
                    if state not in seen:
                        seen.add(state)
                        queue.append((state, word + [symbol]))
        raise WitnessError(
            f"cannot embed {required!r} into the content of {tid!r}"
        )

    def _restricted(self, tid: str) -> NFA:
        nfa = self.schema.compile_regex(tid, self.engine)
        inhabited = self.schema.inhabited_types(self.engine)
        transitions = {}
        for src, arcs in nfa.transitions.items():
            kept = [
                (symbol, dst)
                for symbol, dst in arcs
                if symbol is EPS or symbol[1] in inhabited
            ]
            if kept:
                transitions[src] = kept
        return NFA(nfa.n_states, nfa.alphabet, nfa.start, nfa.accepting, transitions)

    def minimal_subtree(self, tid: str) -> str:
        """A smallest conforming subtree of type ``tid`` (rank-guided)."""
        type_def = self.schema.type(tid)
        oid = self.fresh_oid()
        if type_def.is_atomic:
            values = {"string": "w", "int": 0, "float": 0.5}
            self.nodes.append(
                Node(oid, NodeKind.ATOMIC, value=values[type_def.atomic])
            )
            return oid
        rank = self.ranks.get(tid)
        if rank is None:
            raise WitnessError(f"type {tid!r} is uninhabited")
        word = self._shortest_low_rank_word(tid, rank)
        edges = [
            Edge(label, self.minimal_subtree(target)) for label, target in word
        ]
        kind = NodeKind.ORDERED if type_def.is_ordered else NodeKind.UNORDERED
        self.nodes.append(Node(oid, kind, edges=edges))
        return oid

    def _shortest_low_rank_word(self, tid: str, rank: int) -> List[Tuple[str, str]]:
        """A shortest content word using only targets of lower rank."""
        nfa = self.schema.compile_regex(tid, self.engine)
        allowed = {t for t, r in self.ranks.items() if r < rank}
        from collections import deque

        start = nfa.initial_states()
        queue = deque([(start, [])])
        seen = {start}
        while queue:
            states, word = queue.popleft()
            if states & nfa.accepting:
                return word
            symbols = sorted(
                {
                    s
                    for q in states
                    for s, _dst in nfa.arcs_from(q)
                    if s is not EPS and s[1] in allowed
                },
                key=repr,
            )
            for symbol in symbols:
                nxt = nfa.step(states, symbol)
                if nxt and nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, word + [symbol]))
        raise WitnessError(f"no low-rank content word for {tid!r}")


def _split_trace(trace: Sequence) -> Tuple[List[List[str]], List[str]]:
    """Split a trace word into per-arm label segments and end types."""
    segments: List[List[str]] = []
    end_types: List[str] = []
    current: Optional[List[str]] = None
    for symbol in trace:
        if is_marker(symbol):
            _tag, index, tid = symbol
            if index == 0:
                current = []
                continue
            segments.append(current or [])
            end_types.append(tid)
            current = []
        else:
            assert current is not None, "trace must start with the root marker"
            current.append(symbol)
    return segments, end_types
