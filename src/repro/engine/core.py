"""The shared compilation engine: compile-once / reuse-many automata.

Every algorithm in this reproduction — conformance (Definition 2.1), the
traces technique (Section 3.4), the feedback queries and the adaptive
optimizer (Section 4) — bottoms out in the same automata constructions:
Thompson compilation, schema-graph reachability, content-model
restriction, trace products.  :class:`Engine` is the single place those
constructions happen; results are memoized in an :class:`EngineCache`
keyed on schema fingerprints and hash-consed regexes, so repeated calls
from any layer (or from different layers on equal inputs) reuse one
compiled artifact.

A module-level default engine backs every public API that does not pass
an explicit ``engine=`` handle, which is why all pre-engine call sites
keep working unchanged — and get the caching for free.

This module deliberately imports only the ``automata`` layer at module
scope; everything above it (schemas, reachability) is imported lazily
inside methods so that consumer modules may import the engine at module
scope without cycles.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple, Union

from ..automata.compiled import CompiledDFA, NFARunner, compile_nfa
from ..automata.nfa import NFA, thompson as _thompson
from ..automata.syntax import Regex, Symbol
from .cache import CacheStats, EngineCache

#: The automata backends an engine can run its decision walks on.
BACKENDS: Tuple[str, ...] = ("nfa", "compiled")

#: Either side of the runner contract (see repro.automata.compiled):
#: step() returns None when the walk dies, never a falsy state.
Runner = Union[CompiledDFA, NFARunner]


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend or fall back to ``"compiled"``."""
    if backend is None:
        backend = "compiled"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
        )
    return backend


class Engine:
    """A handle bundling a memoizing cache with the automata constructions.

    Construct one per long-lived server (or share the module default);
    pass it via the ``engine=`` parameter that every consumer API accepts.
    All artifacts an engine returns are treated as immutable by every
    consumer in this package — callers adding their own uses must copy
    before mutating.
    """

    def __init__(
        self,
        cache: Optional[EngineCache] = None,
        max_entries: Optional[int] = 4096,
        backend: Optional[str] = None,
    ):
        self.cache = cache if cache is not None else EngineCache(max_entries)
        #: Which automata implementation the decision procedures walk:
        #: ``"compiled"`` (minimized table-driven DFAs, the default) or
        #: ``"nfa"`` (the legacy subset simulation, kept for differential
        #: testing, the fuzz oracles and ``repro diff --backend``).
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    # Generic regex compilation
    # ------------------------------------------------------------------

    def thompson(self, regex: Regex, alphabet: Iterable[Symbol]) -> NFA:
        """Memoized Thompson construction.

        Hash-consed regexes make the ``(regex, alphabet)`` key O(1) to
        hash; equal regexes compiled against equal alphabets share one NFA
        no matter where in the stack the request originates.
        """
        alphabet = frozenset(alphabet)
        key = ("thompson", regex, alphabet)
        return self.cache.get_or_compute(key, lambda: _thompson(regex, alphabet))

    # ------------------------------------------------------------------
    # Per-schema derived data (keyed on the schema fingerprint)
    # ------------------------------------------------------------------

    def symbol_alphabet(self, schema) -> FrozenSet[Tuple[str, str]]:
        """The schema's ``(label, tid)`` alphabet, computed once."""
        key = ("schema-alphabet", schema.fingerprint())
        return self.cache.get_or_compute(key, schema.symbol_alphabet)

    def content_nfa(self, schema, tid: str) -> NFA:
        """The content NFA of collection type ``tid`` over the schema alphabet."""
        key = ("content-nfa", schema.fingerprint(), tid)

        def build() -> NFA:
            type_def = schema.type(tid)
            if type_def.regex is None:
                from ..schema.model import SchemaError

                raise SchemaError(f"type {tid!r} is atomic and has no regex")
            return _thompson(type_def.regex, self.symbol_alphabet(schema))

        return self.cache.get_or_compute(key, build)

    def restricted_content_nfa(self, schema, tid: str) -> NFA:
        """The content NFA of ``tid`` with arcs to uninhabited targets dropped.

        This is the automaton every instance-level argument runs on (a
        conforming instance can only realize inhabited child types); it is
        what conformance support checks, the satisfiability word search,
        the trace construction, and the adaptive optimizer all consumed —
        each building its own copy before this engine existed.
        """
        key = ("restricted-content-nfa", schema.fingerprint(), tid)

        def build() -> NFA:
            from ..schema.model import _restrict_to_targets

            return _restrict_to_targets(
                self.content_nfa(schema, tid), self.inhabited_types(schema)
            )

        return self.cache.get_or_compute(key, build)

    def inhabited_types(self, schema) -> FrozenSet[str]:
        """Type ids with at least one finite conforming instance."""
        key = ("inhabited", schema.fingerprint())

        def build() -> FrozenSet[str]:
            from ..schema.model import _compute_inhabited

            return _compute_inhabited(schema, self)

        return self.cache.get_or_compute(key, build)

    def possible_edges(self, schema):
        """The schema graph Γ(S): per type, the realizable ``(label, tid)`` pairs."""
        key = ("possible-edges", schema.fingerprint())

        def build():
            from ..schema.model import _compute_possible_edges

            return _compute_possible_edges(schema, self)

        return self.cache.get_or_compute(key, build)

    def reachable_types(self, schema) -> FrozenSet[str]:
        """Types reachable from the schema root through Γ(S), computed once."""
        key = ("reachable", schema.fingerprint())
        return self.cache.get_or_compute(key, lambda: schema.reachable_types(self))

    def reach(self, schema):
        """A :class:`repro.typing.reach.SchemaReach` shared per schema.

        All consumers handed the same engine share one reachability
        object (and therefore its product-completion caches) for equal
        schemas.
        """
        key = ("reach", schema.fingerprint())

        def build():
            from ..typing.reach import SchemaReach

            return SchemaReach(schema, engine=self)

        return self.cache.get_or_compute(key, build)

    # ------------------------------------------------------------------
    # The compile pipeline (NFA → subset → Hopcroft → tables)
    # ------------------------------------------------------------------

    def compiled_path(self, regex: Regex, alphabet: Iterable[Symbol]) -> CompiledDFA:
        """A path regex lowered to a minimized transition table."""
        alphabet = frozenset(alphabet)
        key = ("compiled-path", regex, alphabet)
        return self.cache.get_or_compute(
            key, lambda: compile_nfa(self.thompson(regex, alphabet))
        )

    def compiled_content(self, schema, tid: str) -> CompiledDFA:
        """The (unrestricted) content model of ``tid`` as a compiled DFA.

        This is the automaton conformance membership and witness runs
        execute on.
        """
        key = ("compiled-content", schema.fingerprint(), tid)
        return self.cache.get_or_compute(
            key, lambda: compile_nfa(self.content_nfa(schema, tid))
        )

    def compiled_restricted_content(self, schema, tid: str) -> CompiledDFA:
        """The inhabited-restricted content model of ``tid``, compiled.

        The satisfiability word search runs on this table; the pipeline's
        dead-state pruning means every offered symbol can still complete
        a content word.  When every target of ``tid`` is inhabited the
        restricted NFA is the content NFA itself, and this is
        :meth:`compiled_content`'s table: equal NFAs compile to equal
        tables, so it is compiled once and stored once.
        """
        key = ("compiled-content-restricted", schema.fingerprint(), tid)

        def build() -> CompiledDFA:
            restricted = self.restricted_content_nfa(schema, tid)
            if restricted is self.content_nfa(schema, tid):
                return self.compiled_content(schema, tid)
            return compile_nfa(restricted)

        return self.cache.get_or_compute(key, build)

    def compiled_trace(self, schema, root_tid: str, arm_count: int) -> CompiledDFA:
        """``Tr(S)`` rooted at ``root_tid``, compiled (Section 3.4)."""
        key = ("compiled-trace", schema.fingerprint(), root_tid, arm_count)

        def build() -> CompiledDFA:
            from ..typing.traces import schema_trace_nfa

            return compile_nfa(schema_trace_nfa(schema, root_tid, arm_count, engine=self))

        return self.cache.get_or_compute(key, build)

    # ------------------------------------------------------------------
    # Backend-resolved runners (None-is-dead walk contract)
    # ------------------------------------------------------------------

    def path_runner(self, regex: Regex, alphabet: Iterable[Symbol]) -> Runner:
        """A walkable automaton for a path regex on this engine's backend."""
        alphabet = frozenset(alphabet)
        if self.backend == "compiled":
            return self.compiled_path(regex, alphabet)
        key = ("path-runner", regex, alphabet)
        return self.cache.get_or_compute(
            key, lambda: NFARunner(self.thompson(regex, alphabet))
        )

    def content_runner(self, schema, tid: str) -> Runner:
        """A walkable inhabited-restricted content automaton for ``tid``."""
        if self.backend == "compiled":
            return self.compiled_restricted_content(schema, tid)
        key = ("content-runner", schema.fingerprint(), tid)
        return self.cache.get_or_compute(
            key, lambda: NFARunner(self.restricted_content_nfa(schema, tid))
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Snapshot of the underlying cache counters."""
        return self.cache.stats()

    def __repr__(self) -> str:
        return f"Engine({self.cache!r})"


#: The process-wide default engine used whenever ``engine=None``.
_default_engine = Engine()


def get_default_engine() -> Engine:
    """The module-level default engine (shared by all default-argument calls)."""
    return _default_engine


def set_default_engine(engine: Engine) -> Engine:
    """Replace the default engine; returns the previous one.

    Useful for long-running services that want a custom LRU bound, and
    for tests that need isolated counters.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
