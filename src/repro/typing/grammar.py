"""The acyclic extended CFG for Tr(S) over nested patterns (Section 3.4).

For a query with several (join-free, ordered) pattern definitions, the
paper constructs ``Tr(S)`` *bottom up, following the tree structure of the
set of pattern definitions*, as an acyclic context-free grammar with
regular expressions on right-hand sides, of size polynomial in the schema
(its full expansion would be an exponentially large regular expression).

:class:`TraceGrammar` materializes that object:

* one nonterminal ``(X, T)`` per pattern variable and candidate type;
* the production of ``(X, T)`` is the trace language of the definition of
  ``X`` matched at a ``T``-node, with each arm's end marker replaced by
  the alternation of the *viable* child nonterminals;
* viability is computed bottom-up with the flat trace intersection of
  :mod:`repro.typing.traces` — so the grammar is simultaneously an
  independent implementation of satisfiability for the nested join-free
  ordered fragment, used by tests to cross-validate the general checker.

A ``NonTerm`` marker in a production's regex stands for the sub-trace of
the child variable at the given type.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..automata.ops import relabel, to_regex, trim
from ..automata.syntax import Regex
from ..engine import Engine
from ..query.model import PatternKind, Query
from ..schema.model import Schema
from .reach import SchemaReach
from .traces import is_marker, trace_product


class NonTerm(NamedTuple):
    """A grammar nonterminal: pattern variable ``var`` typed ``tid``."""

    var: str
    tid: str


class TraceGrammar:
    """The Section 3.4 grammar for a join-free query over ordered defs.

    Raises:
        ValueError: for queries with joins, or with unordered collection
            definitions (the paper's grammar construction covers the
            ordered fragment; the general checker handles the rest).
    """

    def __init__(self, query: Query, schema: Schema, engine: Optional[Engine] = None):
        if not query.is_join_free():
            raise ValueError("the trace grammar is defined for join-free queries")
        if query.value_join_vars():
            raise ValueError(
                "value-variable joins are outside the grammar fragment "
                "(the general checker handles them)"
            )
        for pattern in query.patterns:
            if pattern.kind is PatternKind.UNORDERED:
                raise ValueError(
                    "the trace grammar covers ordered pattern definitions"
                )
            if any(arm.is_label_var for arm in pattern.arms):
                raise ValueError("label variables are not part of the grammar form")
            if pattern.partial_order is not None:
                raise ValueError(
                    "partially ordered definitions are outside the grammar form"
                )
        self.query = query
        self.schema = schema
        self.reach = SchemaReach(schema, engine)
        self.engine = self.reach.engine
        self._viable: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Viability (bottom-up satisfiability)
    # ------------------------------------------------------------------

    def viable_types(self, var: str) -> FrozenSet[str]:
        """Types ``T`` such that the sub-pattern rooted at ``var`` is
        satisfiable at a ``T``-node of some instance."""
        if var in self._viable:
            return self._viable[var]
        definition = self.query.definition(var)
        reachable = self.schema.reachable_types(self.engine)
        inhabited = self.schema.inhabited_types(self.engine)
        if definition is None:
            result = frozenset(
                tid
                for tid in reachable & inhabited
                if not var.startswith("&") or tid.startswith("&")
            )
        elif definition.kind is PatternKind.VALUE:
            from ..schema.model import atomic_matches

            result = frozenset(
                tid
                for tid in reachable
                if self.schema.type(tid).is_atomic
                and atomic_matches(self.schema.type(tid).atomic, definition.value)
            )
        elif definition.kind is PatternKind.VALUE_VAR:
            result = frozenset(
                tid for tid in reachable if self.schema.type(tid).is_atomic
            )
        else:
            from .traces import flat_satisfiable

            arms = [arm.path for arm in definition.arms]
            allowed = [self.viable_types(arm.target) for arm in definition.arms]
            candidates = [
                tid
                for tid in sorted(reachable)
                if self.schema.type(tid).is_ordered
                and (not var.startswith("&") or tid.startswith("&"))
            ]
            viable = set()
            for tid in candidates:
                if not definition.arms:
                    if tid in inhabited:
                        viable.add(tid)
                    continue
                if any(not targets for targets in allowed):
                    continue
                if flat_satisfiable(self.schema, [tid], arms, allowed, self.engine):
                    viable.add(tid)
            result = frozenset(viable)
        self._viable[var] = result
        return result

    def satisfiable(self) -> bool:
        """Satisfiability via the grammar (join-free ordered fragment)."""
        return self.schema.root in self.viable_types(self.query.root_var)

    # ------------------------------------------------------------------
    # Productions
    # ------------------------------------------------------------------

    def nonterminals(self) -> List[NonTerm]:
        """All viable nonterminals, pattern-tree order then type order."""
        result = []
        for pattern in self.query.patterns:
            for tid in sorted(self.viable_types(pattern.var)):
                result.append(NonTerm(pattern.var, tid))
        return result

    def production(self, nonterminal: NonTerm) -> Regex:
        """The RHS of a nonterminal: a regex over labels and NonTerms.

        Built from the trimmed trace product of the definition at the
        given type; arm markers become the child nonterminals.
        """
        definition = self.query.definition(nonterminal.var)
        if definition is None or not definition.is_collection:
            raise ValueError(f"{nonterminal.var!r} has no collection definition")
        arms = [arm.path for arm in definition.arms]
        allowed = [self.viable_types(arm.target) for arm in definition.arms]
        product = trace_product(
            self.schema, [nonterminal.tid], arms, allowed, self.reach, self.engine
        )

        def rename(symbol: object) -> Optional[object]:
            if is_marker(symbol):
                _tag, index, tid = symbol
                if index == 0:
                    return None  # the root marker is implicit in the LHS
                return NonTerm(definition.arms[index - 1].target, tid)
            return symbol

        return to_regex(trim(relabel(product, rename)))

    def size(self) -> int:
        """Total AST size of all productions (polynomial in the schema)."""
        total = 0
        for nonterminal in self.nonterminals():
            definition = self.query.definition(nonterminal.var)
            if definition is None or not definition.is_collection:
                continue
            total += sum(1 for _ in self.production(nonterminal).walk())
        return total
