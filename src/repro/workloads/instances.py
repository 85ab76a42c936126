"""Instance generation from schemas: exhaustive enumeration and sampling.

Used in three places:

* the adaptive evaluator's extension oracle (Section 4.2) enumerates the
  conforming instances consistent with the data seen so far;
* property tests cross-validate conformance and satisfiability against
  brute force over enumerated instances;
* benchmarks sample random conforming documents of controlled size.

Enumeration is exhaustive for schemas whose instance sets are finite and
is cut off by ``max_nodes``/``max_word`` otherwise (star contents are
unrolled up to the bound).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..automata.nfa import EPS, NFA
from ..data.model import DataGraph, Edge, Node, NodeKind
from ..schema.model import Schema, TypeDef

#: Default atomic values used when materializing leaves.
DEFAULT_VALUES = {"string": "s", "int": 0, "float": 0.5}


def enumerate_instances(
    schema: Schema,
    max_nodes: int = 12,
    max_word: int = 4,
) -> Iterator[DataGraph]:
    """Yield conforming instances of ``schema`` (trees over referenceable
    expansion), smallest first, up to ``max_nodes`` nodes per instance.

    Referenceable types are expanded like any other type (so shared nodes
    are not produced; every enumerated instance is a tree).  ``max_word``
    bounds the child-sequence length of a single node.  For schemas whose
    content regexes are star-free and small, enumeration is exhaustive.
    """
    counter = itertools.count(1)

    def fresh_oid() -> str:
        return f"o{next(counter)}"

    def expand(tid: str, budget: int) -> Iterator[Tuple[List[Node], str, int]]:
        """Yield (nodes, root_oid, used) for subtrees of type ``tid``."""
        if budget <= 0:
            return
        type_def = schema.type(tid)
        oid = fresh_oid()
        if type_def.is_atomic:
            for value in _atomic_values(type_def.atomic):
                yield [Node(oid, NodeKind.ATOMIC, value=value)], oid, 1
            return
        kind = NodeKind.ORDERED if type_def.is_ordered else NodeKind.UNORDERED
        nfa = schema.compile_regex(tid)
        for word in _words_up_to(nfa, max_word):
            yield from _expand_word(oid, kind, word, budget, expand)

    def _expand_word(oid, kind, word, budget, expand_fn):
        def build(
            index: int, remaining: int
        ) -> Iterator[Tuple[List[Node], List[Edge], int]]:
            if index == len(word):
                yield [], [], 0
                return
            label, child_tid = word[index]
            for child_nodes, child_oid, child_used in expand_fn(
                child_tid, remaining
            ):
                for rest_nodes, rest_edges, rest_used in build(
                    index + 1, remaining - child_used
                ):
                    yield (
                        child_nodes + rest_nodes,
                        [Edge(label, child_oid)] + rest_edges,
                        child_used + rest_used,
                    )

        for nodes, edges, used in build(0, budget - 1):
            head = Node(oid, kind, edges=edges)
            yield [head] + nodes, oid, used + 1

    for nodes, root_oid, _used in expand(schema.root, max_nodes):
        ordered = [next(n for n in nodes if n.oid == root_oid)]
        ordered += [n for n in nodes if n.oid != root_oid]
        yield DataGraph(ordered, validate=False)


def _atomic_values(atomic: str) -> List[object]:
    return [DEFAULT_VALUES[atomic]]


def _words_up_to(nfa: NFA, max_length: int) -> Iterator[Tuple]:
    """All accepted words of length at most ``max_length``, shortest first."""
    seen_words: List[Tuple] = []
    frontier: List[Tuple[Tuple, object]] = [((), nfa.initial_states())]
    for _length in range(max_length + 1):
        next_frontier = []
        for word, states in frontier:
            if states & nfa.accepting:
                yield word
            for symbol in sorted(nfa.alphabet, key=repr):
                nxt = nfa.step(states, symbol)
                if nxt:
                    next_frontier.append((word + (symbol,), nxt))
        frontier = next_frontier


def random_instance(
    schema: Schema,
    rng: Optional[random.Random] = None,
    max_depth: int = 12,
    star_bias: float = 0.5,
    max_repeat: int = 3,
) -> DataGraph:
    """Sample a random conforming instance (a tree).

    Child words are sampled by a biased random walk over the content NFA:
    at accepting states the walk stops with probability ``1 - star_bias``
    (and always once ``max_repeat * fan-out`` symbols have been emitted or
    the depth budget runs out), so ``star_bias`` tunes document width.

    Raises:
        ValueError: if the root type is uninhabited.
    """
    rng = rng or random.Random()
    # Keyed by exactly the inhabited types; computed once per instance.
    ranks = schema.inhabitation_ranks()
    if schema.root not in ranks:
        raise ValueError(f"root type {schema.root!r} is uninhabited")
    counter = itertools.count(1)
    nodes: List[Node] = []

    def fresh_oid() -> str:
        return f"o{next(counter)}"

    def sample(tid: str, depth: int) -> str:
        type_def = schema.type(tid)
        oid = fresh_oid()
        if type_def.is_atomic:
            nodes.append(
                Node(oid, NodeKind.ATOMIC, value=_random_value(type_def.atomic, rng))
            )
            return oid
        word = _sample_word(
            schema, tid, rng, ranks, star_bias, max_repeat, shortest=depth <= 0
        )
        edges = []
        for label, child_tid in word:
            child_oid = sample(child_tid, depth - 1)
            edges.append(Edge(label, child_oid))
        kind = NodeKind.ORDERED if type_def.is_ordered else NodeKind.UNORDERED
        nodes.append(Node(oid, kind, edges=edges))
        return oid

    root_oid = sample(schema.root, max_depth)
    ordered = [next(n for n in nodes if n.oid == root_oid)]
    ordered += [n for n in nodes if n.oid != root_oid]
    return DataGraph(ordered, validate=False)


def _random_value(atomic: str, rng: random.Random) -> object:
    if atomic == "string":
        return "".join(rng.choice("abcdexyz") for _ in range(4))
    if atomic == "int":
        return rng.randrange(0, 100)
    return round(rng.uniform(0, 10), 3)


def _sample_word(
    schema: Schema,
    tid: str,
    rng: random.Random,
    ranks: Dict[str, int],
    star_bias: float,
    max_repeat: int,
    shortest: bool,
) -> List[Tuple[str, str]]:
    """Sample a word of the type's content language over inhabited symbols.

    ``ranks`` is :meth:`Schema.inhabitation_ranks`, whose keys are the
    inhabited types.  In ``shortest`` mode only symbols targeting strictly
    lower-rank types are used and the walk heads straight for acceptance,
    which guarantees termination on recursive schemas.
    """
    nfa = schema.compile_regex(tid)

    def allowed(symbol) -> bool:
        if symbol[1] not in ranks:
            return False
        if shortest:
            return ranks[symbol[1]] < ranks[tid]
        return True

    def arcs(states):
        result = set()
        for q in states:
            for symbol, _dst in nfa.arcs_from(q):
                if symbol is not EPS and allowed(symbol):
                    result.add(symbol)
        return sorted(result)

    word: List[Tuple[str, str]] = []
    states = nfa.initial_states()
    limit = max_repeat * max(4, len(schema.labels()))
    finishing = shortest
    while True:
        accepting_now = bool(states & nfa.accepting)
        if accepting_now and (finishing or rng.random() > star_bias):
            return word
        if len(word) >= limit:
            finishing = True
            if accepting_now:
                return word
        options = []
        for symbol in arcs(states):
            nxt = nfa.step(states, symbol)
            if not nxt:
                continue
            distance = _distance_to_accept(nfa, nxt, allowed)
            if distance is not None:
                options.append((symbol, nxt, distance))
        if not options:
            if accepting_now:
                return word
            raise RuntimeError(f"dead end sampling content of {tid!r}")
        if finishing:
            # Strictly decreasing distance to acceptance: cannot cycle.
            symbol, states_next, _distance = min(options, key=lambda o: o[2])
        else:
            symbol, states_next, _distance = rng.choice(options)
        word.append(symbol)
        states = states_next


def _distance_to_accept(nfa: NFA, states: frozenset, allowed) -> Optional[int]:
    """Length of a shortest allowed completion from ``states`` (BFS)."""
    from collections import deque

    seen = {states}
    queue = deque([(states, 0)])
    while queue:
        current, distance = queue.popleft()
        if current & nfa.accepting:
            return distance
        symbols = set()
        for q in current:
            for symbol, _dst in nfa.arcs_from(q):
                if symbol is not EPS and allowed(symbol):
                    symbols.add(symbol)
        for symbol in symbols:
            nxt = nfa.step(current, symbol)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, distance + 1))
    return None
