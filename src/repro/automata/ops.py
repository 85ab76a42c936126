"""Operations on automata: products, containment, projections, regex extraction.

These are the workhorses of the traces technique (Section 3.4): satisfiability
is an emptiness test on a product automaton, type inference reads marker
symbols off the product, and feedback queries (Section 4.1) project the
product onto path segments and convert the result back to a regular
expression by state elimination.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..cancellation import current_deadline, raise_if_cancelled
from .dfa import DFA, determinize
from .nfa import EPS, NFA
from .syntax import (
    EMPTY,
    EPSILON,
    Regex,
    Symbol,
    alt,
    concat,
    star,
    sym,
)


def intersect(left: NFA, right: NFA) -> NFA:
    """Product automaton accepting the intersection of the two languages.

    The result's alphabet is the union of both alphabets; a symbol outside
    one side's alphabet can never be matched by that side, so such symbols
    simply never appear in accepted words.

    A side can be a determinized automaton with 2^n states, so the product
    walk polls the caller's deadline before expanding each pair.
    """
    cancel = current_deadline()
    alphabet = left.alphabet | right.alphabet
    ids: Dict[Tuple[int, int], int] = {}
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    order: List[Tuple[int, int]] = []

    def state_id(pair: Tuple[int, int]) -> int:
        if pair not in ids:
            ids[pair] = len(order)
            order.append(pair)
        return ids[pair]

    start = state_id((left.start, right.start))
    queue = [(left.start, right.start)]
    seen = {(left.start, right.start)}
    while queue:
        raise_if_cancelled(cancel)
        lq, rq = queue.pop()
        src = state_id((lq, rq))
        # dict-as-ordered-set: parallel identical arcs in a source NFA would
        # otherwise multiply into duplicate product transitions.
        moves: Dict[Tuple[object, Tuple[int, int]], None] = {}
        for symbol, dst in left.arcs_from(lq):
            if symbol is EPS:
                moves[(EPS, (dst, rq))] = None
        for symbol, dst in right.arcs_from(rq):
            if symbol is EPS:
                moves[(EPS, (lq, dst))] = None
        for lsym, ldst in dict.fromkeys(left.arcs_from(lq)):
            if lsym is EPS:
                continue
            for rsym, rdst in dict.fromkeys(right.arcs_from(rq)):
                if rsym is EPS:
                    continue
                if lsym == rsym:
                    moves[(lsym, (ldst, rdst))] = None
        for symbol, pair in moves:
            dst = state_id(pair)
            transitions.setdefault(src, []).append((symbol, dst))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    accepting = [
        ids[pair]
        for pair in order
        if pair[0] in left.accepting and pair[1] in right.accepting
    ]
    return NFA(len(order), alphabet, start, accepting, transitions)


def union(left: NFA, right: NFA) -> NFA:
    """Automaton accepting the union of the two languages.

    Parallel identical arcs in either operand are collapsed to one arc in
    the result (order-preserving dedupe per source state).
    """
    alphabet = left.alphabet | right.alphabet
    offset = 1  # new start state is 0
    right_offset = offset + left.n_states
    transitions: Dict[int, List[Tuple[object, int]]] = {
        0: [(EPS, left.start + offset), (EPS, right.start + right_offset)]
    }
    for src, arcs in left.transitions.items():
        transitions[src + offset] = [
            (symbol, dst + offset) for symbol, dst in dict.fromkeys(arcs)
        ]
    for src, arcs in right.transitions.items():
        transitions[src + right_offset] = [
            (symbol, dst + right_offset) for symbol, dst in dict.fromkeys(arcs)
        ]
    accepting = [q + offset for q in left.accepting]
    accepting += [q + right_offset for q in right.accepting]
    n_states = 1 + left.n_states + right.n_states
    return NFA(n_states, alphabet, 0, accepting, transitions)


def concat_nfa(parts: Sequence[NFA]) -> NFA:
    """Automaton accepting the concatenation of the given languages, in order."""
    if not parts:
        raise ValueError("concat_nfa requires at least one automaton")
    alphabet = frozenset(itertools.chain.from_iterable(p.alphabet for p in parts))
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        for src, arcs in part.transitions.items():
            transitions[src + total] = [(symbol, dst + total) for symbol, dst in arcs]
        total += part.n_states
    for i in range(len(parts) - 1):
        next_start = parts[i + 1].start + offsets[i + 1]
        for q in parts[i].accepting:
            transitions.setdefault(q + offsets[i], []).append((EPS, next_start))
    accepting = [q + offsets[-1] for q in parts[-1].accepting]
    return NFA(total, alphabet, parts[0].start + offsets[0], accepting, transitions)


def relabel(nfa: NFA, fn: Callable[[Symbol], Optional[Symbol]]) -> NFA:
    """Apply a homomorphism to the arcs of ``nfa``.

    ``fn(symbol)`` returns the replacement symbol, or None to erase the
    symbol (the arc becomes an epsilon transition).  Erasure implements the
    projections of Sections 3.4 and 4.1: dropping marker symbols, or dropping
    everything *except* markers.
    """
    new_alphabet: Set[Symbol] = set()
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    for src, arcs in nfa.transitions.items():
        new_arcs: List[Tuple[object, int]] = []
        for symbol, dst in arcs:
            if symbol is EPS:
                new_arcs.append((EPS, dst))
                continue
            mapped = fn(symbol)
            if mapped is None:
                new_arcs.append((EPS, dst))
            else:
                new_alphabet.add(mapped)
                new_arcs.append((mapped, dst))
        transitions[src] = new_arcs
    return NFA(nfa.n_states, new_alphabet, nfa.start, nfa.accepting, transitions)


def trim(nfa: NFA) -> NFA:
    """Remove states not on any accepting path; keeps at least the start."""
    useful = nfa.useful_states() | {nfa.start}
    order = sorted(useful)
    index = {state: i for i, state in enumerate(order)}
    transitions: Dict[int, List[Tuple[object, int]]] = {}
    for src in order:
        arcs = [
            (symbol, index[dst])
            for symbol, dst in nfa.arcs_from(src)
            if dst in useful
        ]
        if arcs:
            transitions[index[src]] = arcs
    accepting = [index[q] for q in nfa.accepting if q in useful]
    return NFA(len(order), nfa.alphabet, index[nfa.start], accepting, transitions)


def is_subset(left: NFA, right: NFA) -> bool:
    """Decide language containment ``L(left) ⊆ L(right)``.

    Implemented as emptiness of ``L(left) ∩ complement(L(right))``; the
    complement is taken over the union of both alphabets so that words of
    ``left`` using symbols unknown to ``right`` are correctly rejected.
    """
    alphabet = left.alphabet | right.alphabet
    widened = NFA(right.n_states, alphabet, right.start, right.accepting, right.transitions)
    comp = determinize(widened).complement()
    return intersect(left, comp.to_nfa()).is_empty()


def equivalent(left: NFA, right: NFA) -> bool:
    """Decide language equality."""
    return is_subset(left, right) and is_subset(right, left)


def run_with_choices(
    nfa: NFA, choice_sets: Sequence[Iterable[Symbol]]
) -> Optional[List[Symbol]]:
    """Find an accepted word choosing one symbol per position.

    ``choice_sets[i]`` is the set of symbols allowed at position ``i``.
    Returns a witness word (one symbol per position) or None.  This is the
    engine behind conformance of *ordered* nodes: position ``i`` corresponds
    to the i-th child edge, whose allowed symbols are ``(label, T)`` for
    every type ``T`` in the child's candidate set.
    """
    layers: List[FrozenSet[int]] = [nfa.initial_states()]
    # back[(i, state)] = (previous_state, symbol) for witness extraction.
    back: Dict[Tuple[int, int], Tuple[int, Symbol]] = {}
    for i, choices in enumerate(choice_sets):
        nxt: Set[int] = set()
        for symbol in choices:
            for q in layers[i]:
                for arc_symbol, dst in nfa.arcs_from(q):
                    if arc_symbol is EPS or arc_symbol != symbol:
                        continue
                    for closed in nfa.eps_closure([dst]):
                        if (i + 1, closed) not in back:
                            back[(i + 1, closed)] = (q, symbol)
                            nxt.add(closed)
        if not nxt:
            return None
        layers.append(frozenset(nxt))
    final = [q for q in layers[-1] if q in nfa.accepting]
    if not final:
        return None
    word: List[Symbol] = []
    state = final[0]
    for i in range(len(choice_sets), 0, -1):
        previous, symbol = back[(i, state)]
        word.append(symbol)
        state = previous
    word.reverse()
    return word


def to_regex(nfa: NFA) -> Regex:
    """Convert an automaton back to a regular expression (state elimination).

    The output is not guaranteed to be the syntactically smallest expression,
    but the smart constructors keep it reasonable for display.  Used by the
    feedback-query application (Section 4.1) to present tightened path
    expressions to the user.
    """
    pruned = trim(nfa)
    if pruned.is_empty():
        return EMPTY
    # Normalize: fresh start state 0' and single final state f'.
    n = pruned.n_states
    start, final = n, n + 1
    # expr[(i, j)] = regex labelling the (i -> j) edge of the GNFA.
    expr: Dict[Tuple[int, int], Regex] = {}

    def add_edge(i: int, j: int, regex: Regex) -> None:
        if isinstance(regex, type(EMPTY)):
            return
        expr[(i, j)] = alt(expr[(i, j)], regex) if (i, j) in expr else regex

    add_edge(start, pruned.start, EPSILON)
    for q in pruned.accepting:
        add_edge(q, final, EPSILON)
    for src, arcs in pruned.transitions.items():
        for symbol, dst in arcs:
            add_edge(src, dst, EPSILON if symbol is EPS else sym(symbol))

    for victim in range(n):  # eliminate original states one by one
        loop = expr.pop((victim, victim), None)
        loop_regex = star(loop) if loop is not None else EPSILON
        incoming = [(i, r) for (i, j), r in expr.items() if j == victim and i != victim]
        outgoing = [(j, r) for (i, j), r in expr.items() if i == victim and j != victim]
        for (i, _), (j, _) in itertools.product(incoming, outgoing):
            expr.pop((i, victim), None)
            expr.pop((victim, j), None)
        for (i, rin), (j, rout) in itertools.product(incoming, outgoing):
            add_edge(i, j, concat(rin, loop_regex, rout))
        # Drop any leftover edges touching the victim.
        for key in [k for k in expr if victim in k]:
            expr.pop(key)
    return expr.get((start, final), EMPTY)
