"""Schema-product reachability: the PTIME engine behind the traces technique.

Section 3.4 reduces satisfiability questions to emptiness of intersections
between pattern languages and the schema's trace language ``Tr(S)``.
Operationally every such intersection is a reachability computation in the
product of the *schema graph* Γ(S) (types connected by the ``(label, type)``
edges that can occur in some instance) with the automaton of a regular path
expression.

:class:`SchemaReach` packages those computations with caching:

* :meth:`path` — the path regex compiled for the engine's backend (a
  :class:`~repro.automata.compiled.CompiledDFA` table or the legacy
  :class:`~repro.automata.compiled.NFARunner`), under the shared walk
  contract: ``step`` returns ``None`` when the walk dies, states are
  otherwise opaque;
* :meth:`step` — one product step from a (type, state) configuration;
* :meth:`completions` — all (type, state) configurations reachable from
  a start configuration, i.e. the candidate end types of a path.

State values are backend-dependent (integers on the compiled backend,
frozensets on the NFA backend) but always opaque to callers: compare
them, hash them, pass them back in — never inspect them.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..automata.syntax import Regex
from ..cancellation import current_deadline, raise_if_cancelled
from ..engine import Engine, get_default_engine
from ..engine.core import Runner
from ..schema.model import Schema


class SchemaReach:
    """Cached product-reachability computations over a schema.

    Prefer obtaining instances through :meth:`repro.engine.Engine.reach`:
    all consumers handed the same engine then share one ``SchemaReach``
    (and its completion caches) per schema fingerprint.
    """

    def __init__(self, schema: Schema, engine: Optional[Engine] = None):
        self.schema = schema
        self.engine = engine if engine is not None else get_default_engine()
        self.edges = schema.possible_edges(self.engine)
        self.labels = frozenset(schema.labels())
        self._completions: Dict[
            Tuple[Regex, str, object], FrozenSet[Tuple[str, object]]
        ] = {}
        # Per-regex runner memo in front of the engine cache: path() is
        # the innermost call of the satisfiability search, and the
        # engine-level lookup (alphabet union + key build + lock) costs
        # more than the identity-hash dict hit on a hash-consed regex.
        self._runners: Dict[Regex, Runner] = {}
        # The engine keeps this object resident for as long as the schema
        # is queried, so each memo is held to the engine cache's own bound
        # (None: unbounded, like the engine).  Lookups take no lock; the
        # lock makes the size check and the insert one step for threads
        # sharing the engine.
        self._max_entries = self.engine.cache.max_entries
        self._memo_lock = threading.Lock()

    def _remember(self, memo: dict, key, value) -> None:
        """Store ``value``, first clearing ``memo`` if it is full.

        A search that loses its runner this way gets the engine's, or a
        fresh compile of the same path: compilation is deterministic, so
        its states mean what they meant before.
        """
        with self._memo_lock:
            if self._max_entries is not None and len(memo) >= self._max_entries:
                memo.clear()
            memo[key] = value

    def path(self, regex: Regex) -> Runner:
        """The path automaton on the engine's backend (walk contract)."""
        runner = self._runners.get(regex)
        if runner is None:
            runner = self.engine.path_runner(
                regex, self.labels | frozenset(regex.symbols())
            )
            self._remember(self._runners, regex, runner)
        return runner

    def initial_states(self, regex: Regex):
        """The path automaton's initial state (None = empty language)."""
        return self.path(regex).initial()

    def start_symbols(
        self, regex: Regex, source_type: str
    ) -> List[Tuple[Tuple[str, str], object]]:
        """First-step options for a path leaving a node of ``source_type``.

        Returns ``((label, target_type), state_after_label)`` pairs for
        every schema edge whose label the regex can start with.
        """
        runner = self.path(regex)
        start = runner.initial()
        options = []
        if start is None:
            return options
        for label, target in sorted(self.edges.get(source_type, ())):
            after = runner.step(start, label)
            if after is not None:
                options.append(((label, target), after))
        return options

    def step(
        self, regex: Regex, configuration: Tuple[str, object]
    ) -> List[Tuple[Tuple[str, str], object]]:
        """One product step from ``(type, state)``; see start_symbols."""
        runner = self.path(regex)
        source_type, state = configuration
        options = []
        for label, target in sorted(self.edges.get(source_type, ())):
            after = runner.step(state, label)
            if after is not None:
                options.append((((label, target)), after))
        return options

    def completions(
        self, regex: Regex, start_type: str, state: object
    ) -> FrozenSet[Tuple[str, object]]:
        """All ``(type, state)`` configurations reachable from the start
        configuration, including it, restricted to live configurations.

        On the nfa backend the states are subsets built as the walk goes,
        2^n of them for some n-state paths, so the walk polls the
        caller's deadline before expanding each configuration."""
        key = (regex, start_type, state)
        cached = self._completions.get(key)
        if cached is not None:
            return cached
        seen: Set[Tuple[str, object]] = {(start_type, state)}
        stack = [(start_type, state)]
        runner = self.path(regex)
        cancel = current_deadline()
        while stack:
            raise_if_cancelled(cancel)
            current_type, current_state = stack.pop()
            for (label, target) in self.edges.get(current_type, ()):
                after = runner.step(current_state, label)
                if after is not None and (target, after) not in seen:
                    seen.add((target, after))
                    stack.append((target, after))
        result = frozenset(seen)
        self._remember(self._completions, key, result)
        return result

    def reachable_end_types(
        self, regex: Regex, start_type: str, state: object
    ) -> FrozenSet[str]:
        """Types at which the path can end (configurations with an accepting
        state), starting from ``(start_type, state)``."""
        runner = self.path(regex)
        ends = set()
        for current_type, current_state in self.completions(regex, start_type, state):
            if runner.is_accepting(current_state):
                ends.add(current_type)
        return frozenset(ends)

    def can_complete(
        self,
        regex: Regex,
        start_type: str,
        state: object,
        end_types: Iterable[str],
    ) -> bool:
        """True if the path can end at a node whose type is in ``end_types``."""
        wanted = set(end_types)
        if not wanted:
            return False
        runner = self.path(regex)
        for current_type, current_state in self.completions(regex, start_type, state):
            if current_type in wanted and runner.is_accepting(current_state):
                return True
        return False
