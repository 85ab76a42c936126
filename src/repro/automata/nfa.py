"""Nondeterministic finite automata over arbitrary hashable symbols.

Automata in this project are always *concrete*: their transition relation is
over a finite alphabet fixed at construction time.  The ``_`` wildcard of the
pattern grammar (Table 1) is expanded against the supplied alphabet when a
regex is compiled (:func:`thompson`), following the standard reduction: since
schemas, queries and data graphs mention only finitely many labels, all other
labels behave identically and can be represented by one reserved symbol that
the caller adds to the alphabet.

States are consecutive integers so that product constructions and closures
stay cheap.  The class is deliberately minimal; richer operations (products,
containment, projections) live in :mod:`repro.automata.ops`.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..cancellation import current_deadline, raise_if_cancelled
from .syntax import Any, Alt, Concat, Empty, Epsilon, Regex, Star, Sym, Symbol

#: Marker used internally for epsilon transitions.
EPS = ("__eps__",)


class NFA:
    """A nondeterministic finite automaton with epsilon transitions.

    Attributes:
        n_states: number of states; states are ``0 .. n_states-1``.
        alphabet: the finite alphabet, as a frozenset of symbols.
        start: the (single) start state.
        accepting: frozenset of accepting states.
        transitions: per-state adjacency: ``transitions[q]`` is a list of
            ``(symbol, destination)`` pairs where ``symbol`` is either an
            alphabet symbol or :data:`EPS`.
    """

    __slots__ = ("n_states", "alphabet", "start", "accepting", "transitions")

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable[Symbol],
        start: int,
        accepting: Iterable[int],
        transitions: Dict[int, List[Tuple[object, int]]],
    ):
        self.n_states = n_states
        self.alphabet = frozenset(alphabet)
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = {q: list(arcs) for q, arcs in transitions.items()}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def arcs_from(self, state: int) -> List[Tuple[object, int]]:
        """Return the outgoing ``(symbol, dst)`` arcs of ``state``."""
        return self.transitions.get(state, [])

    def eps_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """Return the epsilon closure of a set of states."""
        seen: Set[int] = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for symbol, dst in self.arcs_from(q):
                if symbol is EPS and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def step(self, states: FrozenSet[int], symbol: Symbol) -> FrozenSet[int]:
        """One symbol-consuming move followed by epsilon closure."""
        moved = set()
        for q in states:
            for arc_symbol, dst in self.arcs_from(q):
                if arc_symbol is not EPS and arc_symbol == symbol:
                    moved.add(dst)
        if not moved:
            return frozenset()
        return self.eps_closure(moved)

    def initial_states(self) -> FrozenSet[int]:
        """Return the epsilon closure of the start state."""
        return self.eps_closure([self.start])

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Return True if ``word`` is in the automaton's language."""
        current = self.initial_states()
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable_states(self) -> FrozenSet[int]:
        """Return all states reachable from the start state."""
        seen = {self.start}
        stack = [self.start]
        while stack:
            q = stack.pop()
            for _symbol, dst in self.arcs_from(q):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def coreachable_states(self) -> FrozenSet[int]:
        """Return all states from which an accepting state is reachable."""
        reverse: Dict[int, List[int]] = {}
        for src, arcs in self.transitions.items():
            for _symbol, dst in arcs:
                reverse.setdefault(dst, []).append(src)
        seen = set(self.accepting)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for src in reverse.get(q, []):
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return frozenset(seen)

    def useful_states(self) -> FrozenSet[int]:
        """States on some path from the start to an accepting state."""
        return self.reachable_states() & self.coreachable_states()

    def is_empty(self) -> bool:
        """Return True if the language is empty."""
        return not (self.reachable_states() & self.accepting)

    def useful_symbols(self) -> FrozenSet[Symbol]:
        """Return symbols appearing on some accepting path.

        These are exactly the symbols that occur in at least one word of
        the language — the ingredient for the schema graph of Section 3.4.
        """
        useful = self.useful_states()
        found: Set[Symbol] = set()
        for src in useful:
            for symbol, dst in self.arcs_from(src):
                if symbol is not EPS and dst in useful:
                    found.add(symbol)
        return frozenset(found)

    def shortest_word(self) -> Optional[Tuple[Symbol, ...]]:
        """Return a shortest accepted word, or None if the language is empty.

        The breadth-first search runs over subsets, so it polls the
        caller's deadline before expanding each one.  It tries symbols in
        ``repr`` order, so the word does not depend on the hash seed.
        """
        start = self.initial_states()
        if start & self.accepting:
            return ()
        queue = deque([(start, ())])
        seen = {start}
        symbols = sorted(self.alphabet, key=repr)
        cancel = current_deadline()
        while queue:
            raise_if_cancelled(cancel)
            states, word = queue.popleft()
            for symbol in symbols:
                nxt = self.step(states, symbol)
                if not nxt or nxt in seen:
                    continue
                new_word = word + (symbol,)
                if nxt & self.accepting:
                    return new_word
                seen.add(nxt)
                queue.append((nxt, new_word))
        return None

    def enumerate_words(self, max_length: int) -> Iterable[Tuple[Symbol, ...]]:
        """Yield all accepted words of length at most ``max_length``.

        Intended for tests and small examples; the number of words can be
        exponential in ``max_length``.
        """
        start = self.initial_states()
        stack: List[Tuple[FrozenSet[int], Tuple[Symbol, ...]]] = [(start, ())]
        while stack:
            states, word = stack.pop()
            if states & self.accepting:
                yield word
            if len(word) == max_length:
                continue
            for symbol in sorted(self.alphabet, key=repr):
                nxt = self.step(states, symbol)
                if nxt:
                    stack.append((nxt, word + (symbol,)))

    def __repr__(self) -> str:
        return (
            f"NFA(states={self.n_states}, alphabet={len(self.alphabet)}, "
            f"accepting={sorted(self.accepting)})"
        )


class _Builder:
    """Mutable helper for assembling NFAs state by state."""

    def __init__(self, alphabet: Iterable[Symbol]):
        self.alphabet = frozenset(alphabet)
        self.n_states = 0
        self.transitions: Dict[int, List[Tuple[object, int]]] = {}

    def new_state(self) -> int:
        state = self.n_states
        self.n_states += 1
        return state

    def add_arc(self, src: int, symbol: object, dst: int) -> None:
        self.transitions.setdefault(src, []).append((symbol, dst))

    def finish(self, start: int, accepting: Iterable[int]) -> NFA:
        return NFA(self.n_states, self.alphabet, start, accepting, self.transitions)


def thompson(regex: Regex, alphabet: Iterable[Symbol]) -> NFA:
    """Compile ``regex`` into an NFA over the given finite alphabet.

    Wildcards (:class:`repro.automata.syntax.Any`) expand to one arc per
    alphabet symbol, in ``repr`` order, so the arcs (and the words a walk
    over them finds first) do not depend on the hash seed.  Atoms outside
    the alphabet are rejected, which catches alphabet-mismatch bugs early.
    """
    alphabet = frozenset(alphabet)
    missing = regex.symbols() - alphabet
    if missing:
        raise ValueError(f"regex mentions symbols outside the alphabet: {sorted(map(repr, missing))}")
    builder = _Builder(alphabet)
    # The alphabet in repr order, sorted at the first wildcard.
    ordered: List[Symbol] = []

    def build(node: Regex) -> Tuple[int, int]:
        """Return (entry, exit) states for ``node``."""
        entry = builder.new_state()
        exit_ = builder.new_state()
        if isinstance(node, Empty):
            pass  # no arc: exit unreachable
        elif isinstance(node, Epsilon):
            builder.add_arc(entry, EPS, exit_)
        elif isinstance(node, Sym):
            builder.add_arc(entry, node.symbol, exit_)
        elif isinstance(node, Any):
            if not ordered:
                ordered.extend(sorted(alphabet, key=repr))
            for symbol in ordered:
                builder.add_arc(entry, symbol, exit_)
        elif isinstance(node, Concat):
            previous = entry
            for part in node.parts:
                sub_entry, sub_exit = build(part)
                builder.add_arc(previous, EPS, sub_entry)
                previous = sub_exit
            builder.add_arc(previous, EPS, exit_)
        elif isinstance(node, Alt):
            for part in node.parts:
                sub_entry, sub_exit = build(part)
                builder.add_arc(entry, EPS, sub_entry)
                builder.add_arc(sub_exit, EPS, exit_)
        elif isinstance(node, Star):
            sub_entry, sub_exit = build(node.inner)
            builder.add_arc(entry, EPS, sub_entry)
            builder.add_arc(sub_exit, EPS, sub_entry)
            builder.add_arc(entry, EPS, exit_)
            builder.add_arc(sub_exit, EPS, exit_)
        else:
            raise TypeError(f"unknown regex node: {node!r}")
        return entry, exit_

    entry, exit_ = build(regex)
    return builder.finish(entry, [exit_])
