"""The compile pipeline: NFA → subset construction → Hopcroft → tables.

Every decision procedure in this reproduction bottoms out in membership,
product emptiness, or containment questions on automata built from the
schema and the query.  The classic NFA simulation (`repro.automata.nfa`)
answers those questions over frozensets of states — flexible, but every
step allocates and hashes.  This module lowers a hot automaton once into
a :class:`CompiledDFA`:

* the alphabet is *interned* into a dense ``symbol -> id`` table
  (repr-sorted for determinism);
* the transition function is one flat ``array('i')`` row per state, with
  ``-1`` as the explicit dead entry;
* the accepting set is an integer bitset.

The lowering subset-constructs only the reachable part of the powerset
automaton, then minimizes with Hopcroft's algorithm.  Minimization runs
over the construction *plus an implicit sink*, so every state whose
right language is empty collapses into the sink's block, which is then
dropped: the resulting table is simultaneously minimal and pruned to
co-accessible states, and a walk is dead exactly when an entry is
``-1``.  ``member``, ``product_empty`` and ``is_subset`` are then tight
index arithmetic over those rows.

Compiled automata are plain data (tuples, arrays, ints), so they pickle
cheaply; the batch process executor ships them to workers instead of
re-parsing schema text (see :mod:`repro.engine.artifact`).

The dead-state convention travels through the layers above as
``Optional`` states: a walk that has died is ``None``, never a falsy
state value (state ``0`` is a perfectly live integer state).
:class:`NFARunner` gives the legacy NFA walk the same ``None``-is-dead
contract so both backends are interchangeable behind
``Engine(backend=...)``.
"""

from __future__ import annotations

from array import array
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
from .nfa import EPS, NFA
from .syntax import Symbol

#: Version tag embedded in every pickled :class:`CompiledDFA`; bump when
#: the table layout changes so stale artifacts fail loudly.
PICKLE_VERSION = 1


class CompiledDFA:
    """A minimized, co-accessible-pruned DFA as dense integer tables.

    Attributes:
        symbols: the interned live alphabet, repr-sorted — symbols that
            move the automaton somewhere from some state; all others are
            dead everywhere and are simply absent.
        columns: per-symbol table column, parallel to ``symbols``.
            Symbols with identical transition behaviour everywhere (e.g.
            the labels a wildcard expanded to) share one column, so a
            path regex naming 3 of a schema's 40 labels gets a 4-column
            table, not a 40-column one.
        n_states: number of live states (``0 .. n_states-1``); may be 0
            for the empty language.
        start: the start state, or ``-1`` when the language is empty.
        table: row-major transition table of ``n_states * n_symbols``
            entries (``n_symbols`` counts *columns*, not symbols); ``-1``
            marks a dead transition (no accepting state is reachable
            after it).
        accepting: bitset of accepting states (bit ``q`` set iff state
            ``q`` accepts).

    Because dead states are pruned at build time, *every* stored state
    can still reach acceptance; this is what makes the word searches in
    :mod:`repro.typing.satisfiability` prune for free on this backend.
    """

    __slots__ = (
        "symbols",
        "columns",
        "n_states",
        "start",
        "table",
        "accepting",
        "symbol_ids",
        "n_symbols",
        "_avail",
    )

    def __init__(
        self,
        symbols: Tuple[Symbol, ...],
        columns: Tuple[int, ...],
        n_states: int,
        start: int,
        table: array,
        accepting: int,
    ):
        self.symbols = symbols
        self.columns = columns
        self.n_states = n_states
        self.start = start
        self.table = table
        self.accepting = accepting
        self.symbol_ids: Dict[Symbol, int] = dict(zip(symbols, columns))
        self.n_symbols = (max(columns) + 1) if columns else 0
        self._avail: Dict[int, Tuple[Symbol, ...]] = {}

    # ------------------------------------------------------------------
    # Pickling: plain data plus a version tag
    # ------------------------------------------------------------------

    def __getstate__(self):
        return (PICKLE_VERSION, self.symbols, self.columns, self.n_states,
                self.start, self.table.tobytes(), self.accepting)

    def __setstate__(self, state):
        version = state[0]
        if version != PICKLE_VERSION:
            raise ValueError(
                f"CompiledDFA pickle version {version} is not supported "
                f"(expected {PICKLE_VERSION})"
            )
        _version, symbols, columns, n_states, start, table_bytes, accepting = state
        table = array("i")
        table.frombytes(table_bytes)
        self.__init__(symbols, columns, n_states, start, table, accepting)

    # ------------------------------------------------------------------
    # The runner contract (shared with NFARunner): None is dead
    # ------------------------------------------------------------------

    def initial(self) -> Optional[int]:
        """The start state, or None when the language is empty."""
        return self.start if self.start >= 0 else None

    def step(self, state: int, symbol: Symbol) -> Optional[int]:
        """One transition; None when the walk dies."""
        sid = self.symbol_ids.get(symbol)
        if sid is None:
            return None
        nxt = self.table[state * self.n_symbols + sid]
        return nxt if nxt >= 0 else None

    def is_accepting(self, state: int) -> bool:
        return bool((self.accepting >> state) & 1)

    def available_symbols(self, state: int) -> Tuple[Symbol, ...]:
        """Symbols with a live transition out of ``state`` (table order).

        Because dead states are pruned, every returned symbol leads to a
        state that can still reach acceptance.  Cached per state.
        """
        cached = self._avail.get(state)
        if cached is None:
            base = state * self.n_symbols
            table = self.table
            cached = tuple(
                symbol
                for symbol, col in zip(self.symbols, self.columns)
                if table[base + col] >= 0
            )
            self._avail[state] = cached
        return cached

    # ------------------------------------------------------------------
    # Decision procedures as index arithmetic
    # ------------------------------------------------------------------

    def member(self, word: Sequence[Symbol]) -> bool:
        """Membership: one table lookup per symbol."""
        state = self.start
        if state < 0:
            return False
        table = self.table
        ids = self.symbol_ids
        m = self.n_symbols
        for symbol in word:
            sid = ids.get(symbol)
            if sid is None:
                return False
            state = table[state * m + sid]
            if state < 0:
                return False
        return bool((self.accepting >> state) & 1)

    def is_empty(self) -> bool:
        """Emptiness is a start-state check: dead states were pruned."""
        return self.start < 0

    def shortest_word(self) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word, or None when the language is empty."""
        if self.start < 0:
            return None
        parents: Dict[int, Tuple[int, Symbol]] = {}
        queue = deque([self.start])
        seen = {self.start}
        m = self.n_symbols
        target = None
        if (self.accepting >> self.start) & 1:
            return ()
        while queue and target is None:
            state = queue.popleft()
            base = state * m
            for symbol, col in zip(self.symbols, self.columns):
                nxt = self.table[base + col]
                if nxt < 0 or nxt in seen:
                    continue
                seen.add(nxt)
                parents[nxt] = (state, symbol)
                if (self.accepting >> nxt) & 1:
                    target = nxt
                    break
                queue.append(nxt)
        if target is None:
            return None
        word: List[Symbol] = []
        state = target
        while state != self.start:
            state, symbol = parents[state]
            word.append(symbol)
        word.reverse()
        return tuple(word)

    def product_empty(self, other: "CompiledDFA") -> bool:
        """Emptiness of ``L(self) ∩ L(other)`` over the shared alphabet."""
        if self.start < 0 or other.start < 0:
            return True
        # Column pairs, deduplicated: symbols sharing columns on both
        # sides are interchangeable in the product.
        other_ids = other.symbol_ids
        shared = sorted(
            {
                (col, other_ids[symbol])
                for symbol, col in zip(self.symbols, self.columns)
                if symbol in other_ids
            }
        )
        m_self, m_other = self.n_symbols, other.n_symbols
        acc_self, acc_other = self.accepting, other.accepting
        start = (self.start, other.start)
        seen: Set[Tuple[int, int]] = {start}
        stack = [start]
        while stack:
            a, b = stack.pop()
            if (acc_self >> a) & 1 and (acc_other >> b) & 1:
                return False
            base_a = a * m_self
            base_b = b * m_other
            for ca, cb in shared:
                na = self.table[base_a + ca]
                if na < 0:
                    continue
                nb = other.table[base_b + cb]
                if nb < 0:
                    continue
                pair = (na, nb)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True

    def is_subset(self, other: "CompiledDFA") -> bool:
        """``L(self) ⊆ L(other)`` without materializing a complement.

        Walks the product where the ``other`` side may be dead (``-1``):
        a dead right-hand side rejects the current word and all of its
        extensions, so reaching an accepting left state there (or at a
        non-accepting right state) is a counterexample.
        """
        if self.start < 0:
            return True
        # Column pairs (ours, other's or -1 for "not in other's alphabet",
        # which sends other to its dead state), deduplicated: a symbol
        # class must be split when its members behave differently in
        # ``other``, which the per-symbol mapping does implicitly.
        other_ids = other.symbol_ids
        pairs = sorted(
            {
                (col, other_ids.get(symbol, -1))
                for symbol, col in zip(self.symbols, self.columns)
            }
        )
        m_self, m_other = self.n_symbols, other.n_symbols
        start = (self.start, other.start)  # other.start may be -1 already
        seen: Set[Tuple[int, int]] = {start}
        stack = [start]
        while stack:
            a, b = stack.pop()
            if (self.accepting >> a) & 1:
                if b < 0 or not (other.accepting >> b) & 1:
                    return False
            base_a = a * m_self
            for ca, cb in pairs:
                na = self.table[base_a + ca]
                if na < 0:
                    continue
                if b >= 0 and cb >= 0:
                    nb = other.table[b * m_other + cb]
                else:
                    nb = -1
                pair = (na, nb)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True

    def equivalent(self, other: "CompiledDFA") -> bool:
        """Language equality, as containment both ways."""
        return self.is_subset(other) and other.is_subset(self)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Alias for :meth:`member` (NFA-compatible spelling)."""
        return self.member(word)

    def __repr__(self) -> str:
        return (
            f"CompiledDFA(states={self.n_states}, symbols={self.n_symbols}, "
            f"empty={self.start < 0})"
        )


class NFARunner:
    """The legacy NFA subset walk behind the compiled runner contract.

    States are frozensets of NFA states; a dead walk is ``None`` (never
    an empty frozenset), matching :class:`CompiledDFA` so the decision
    procedures can hold either backend without branching.
    """

    __slots__ = ("nfa", "_start", "_avail")

    def __init__(self, nfa: NFA):
        self.nfa = nfa
        self._start: Optional[FrozenSet[int]] = None
        self._avail: Dict[FrozenSet[int], Tuple[Symbol, ...]] = {}

    def initial(self) -> Optional[FrozenSet[int]]:
        if self._start is None:
            self._start = self.nfa.initial_states()
        return self._start

    def step(
        self, states: FrozenSet[int], symbol: Symbol
    ) -> Optional[FrozenSet[int]]:
        nxt = self.nfa.step(states, symbol)
        return nxt if nxt else None

    def is_accepting(self, states: FrozenSet[int]) -> bool:
        return bool(states & self.nfa.accepting)

    def available_symbols(self, states: FrozenSet[int]) -> Tuple[Symbol, ...]:
        cached = self._avail.get(states)
        if cached is None:
            symbols = set()
            for q in states:
                for symbol, _dst in self.nfa.arcs_from(q):
                    if symbol is not EPS:
                        symbols.add(symbol)
            cached = tuple(sorted(symbols))
            self._avail[states] = cached
        return cached

    def member(self, word: Sequence[Symbol]) -> bool:
        return self.nfa.accepts(word)

    def __repr__(self) -> str:
        return f"NFARunner({self.nfa!r})"


# ----------------------------------------------------------------------
# Subset construction (lazy: reachable subsets only)
# ----------------------------------------------------------------------


def _subset_construct(
    nfa: NFA,
) -> Tuple[Tuple[Symbol, ...], Tuple[int, ...], List[List[int]], int, List[bool]]:
    """Determinize the reachable part of ``nfa``.

    Returns ``(symbols, columns, rows, start, accepting_flags)`` where
    ``rows[q]`` holds one target per *column* with ``-1`` for "no move" —
    the dead subset is never materialized as a state.

    Two alphabet reductions keep the table narrow:

    * Only symbols on some non-EPS arc get a column at all; the rest of
      the alphabet is dead at every state, which is exactly what an
      absent symbol already means to every CompiledDFA operation.
    * Symbols with *identical arc sets* — e.g. the 40 labels a wildcard
      expanded to — share one column (``columns`` maps each symbol to
      its class), so the construction and minimization pay per class,
      not per label.

    The reachable subsets can number 2^n for an n-state NFA, so the
    construction polls the caller's deadline before expanding
    each one.
    """
    cancel = current_deadline()
    profiles: Dict[Symbol, List[Tuple[int, int]]] = {}
    for q, arcs in nfa.transitions.items():
        for s, d in arcs:
            if s is not EPS:
                profiles.setdefault(s, []).append((q, d))
    symbols = tuple(sorted(profiles, key=repr))
    class_ids: Dict[Tuple[Tuple[int, int], ...], int] = {}
    columns: List[int] = []
    col_arcs: List[List[Tuple[int, int]]] = []
    for s in symbols:
        arcs = profiles[s]
        key = tuple(sorted(arcs))
        cid = class_ids.get(key)
        if cid is None:
            cid = len(col_arcs)
            class_ids[key] = cid
            col_arcs.append(arcs)
        columns.append(cid)
    m = len(col_arcs)
    # Per NFA state, the (column, destination) arcs of one representative
    # symbol per class — what one subset-state expansion iterates.
    consuming: Dict[int, List[Tuple[int, int]]] = {}
    for cid, arcs in enumerate(col_arcs):
        for q, d in arcs:
            consuming.setdefault(q, []).append((cid, d))
    eps_closure = nfa.eps_closure
    start_set = nfa.initial_states()
    ids: Dict[FrozenSet[int], int] = {start_set: 0}
    order: List[FrozenSet[int]] = [start_set]
    rows: List[List[int]] = []
    index = 0
    while index < len(order):
        raise_if_cancelled(cancel)
        current = order[index]
        moved: List[Optional[Set[int]]] = [None] * m
        for q in current:
            for cid, d in consuming.get(q, ()):
                bucket = moved[cid]
                if bucket is None:
                    moved[cid] = {d}
                else:
                    bucket.add(d)
        row = []
        for bucket in moved:
            if bucket is None:
                row.append(-1)
                continue
            nxt = eps_closure(bucket)
            target = ids.get(nxt)
            if target is None:
                target = len(order)
                ids[nxt] = target
                order.append(nxt)
            row.append(target)
        rows.append(row)
        index += 1
    accepting = [bool(subset & nfa.accepting) for subset in order]
    return symbols, tuple(columns), rows, 0, accepting


# ----------------------------------------------------------------------
# Hopcroft minimization
# ----------------------------------------------------------------------


def hopcroft_partition(
    n_states: int,
    n_symbols: int,
    rows: Sequence[Sequence[int]],
    accepting: Sequence[bool],
) -> List[int]:
    """Myhill–Nerode classes of a *total* DFA via Hopcroft's algorithm.

    ``rows[q][c]`` must be a valid state for every pair (no ``-1``
    entries — callers add an explicit sink first).  Returns a block id
    per state; two states share a block iff their right languages are
    equal.  Runs in the classic ``O(n_symbols · n_states · log
    n_states)`` via the smaller-half rule, polling the caller's
    deadline once per state and once per splitter.
    """
    if n_states == 0:
        return []
    cancel = current_deadline()
    # Inverse transitions: preimage[c][q] = states entering q on c.
    preimage: List[Dict[int, List[int]]] = [dict() for _ in range(n_symbols)]
    for q in range(n_states):
        raise_if_cancelled(cancel)
        row = rows[q]
        for c in range(n_symbols):
            preimage[c].setdefault(row[c], []).append(q)

    finals = {q for q in range(n_states) if accepting[q]}
    nonfinals = set(range(n_states)) - finals
    blocks: List[Set[int]] = []
    block_of = [0] * n_states
    for group in (finals, nonfinals):
        if group:
            bid = len(blocks)
            blocks.append(set(group))
            for q in group:
                block_of[q] = bid
    if len(blocks) < 2:
        return block_of

    smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
    worklist: Set[Tuple[int, int]] = {(smaller, c) for c in range(n_symbols)}
    while worklist:
        raise_if_cancelled(cancel)
        splitter_id, c = worklist.pop()
        # The splitter's members may change later; snapshot the preimage.
        x: Set[int] = set()
        pre_c = preimage[c]
        for q in blocks[splitter_id]:
            x.update(pre_c.get(q, ()))
        if not x:
            continue
        # Find blocks cut by X and split them.
        touched: Dict[int, Set[int]] = {}
        for q in x:
            touched.setdefault(block_of[q], set()).add(q)
        for bid, inside in touched.items():
            block = blocks[bid]
            if len(inside) == len(block):
                continue
            outside = block - inside
            # Keep the larger part in place; the smaller becomes new.
            if len(inside) <= len(outside):
                new_part, blocks[bid] = inside, outside
            else:
                new_part, blocks[bid] = outside, inside
            new_id = len(blocks)
            blocks.append(new_part)
            for q in new_part:
                block_of[q] = new_id
            for d in range(n_symbols):
                if (bid, d) in worklist:
                    worklist.add((new_id, d))
                else:
                    worklist.add(
                        (bid, d) if len(blocks[bid]) <= len(new_part) else (new_id, d)
                    )
    return block_of


def _minimize_rows(
    n_states: int,
    n_symbols: int,
    rows: List[List[int]],
    accepting: List[bool],
    start: int,
) -> Tuple[int, int, array, int]:
    """Hopcroft-minimize partial rows and lower them to the dense table.

    The partial construction (``-1`` = no move) is completed with an
    implicit sink before minimization; every state whose right language
    is empty then lands in the sink's block, which is dropped — pruning
    and minimization in one pass.  Blocks are renumbered by a BFS from
    the start block over symbol order, so the output is deterministic.
    Both passes over the blocks poll the caller's deadline.

    Returns ``(n_states, start, table, accepting_bitset)``.
    """
    sink = n_states
    total_rows: List[List[int]] = [
        [sink if target < 0 else target for target in row] for row in rows
    ]
    total_rows.append([sink] * n_symbols)
    flags = list(accepting) + [False]
    block_of = hopcroft_partition(n_states + 1, n_symbols, total_rows, flags)
    dead_block = block_of[sink]
    if block_of[start] == dead_block:
        return 0, -1, array("i"), 0

    cancel = current_deadline()
    # Renumber live blocks in BFS discovery order from the start block.
    representative: Dict[int, int] = {}
    for q in range(n_states):
        representative.setdefault(block_of[q], q)
    new_ids: Dict[int, int] = {block_of[start]: 0}
    queue = deque([block_of[start]])
    order: List[int] = [block_of[start]]
    while queue:
        raise_if_cancelled(cancel)
        bid = queue.popleft()
        row = total_rows[representative[bid]]
        for c in range(n_symbols):
            target_block = block_of[row[c]]
            if target_block == dead_block or target_block in new_ids:
                continue
            new_ids[target_block] = len(order)
            order.append(target_block)
            queue.append(target_block)

    n_min = len(order)
    table = array("i", [-1]) * (n_min * n_symbols)
    accepting_bits = 0
    for new_id, bid in enumerate(order):
        raise_if_cancelled(cancel)
        row = total_rows[representative[bid]]
        base = new_id * n_symbols
        for c in range(n_symbols):
            target_block = block_of[row[c]]
            if target_block != dead_block:
                table[base + c] = new_ids[target_block]
        if flags[representative[bid]]:
            accepting_bits |= 1 << new_id
    return n_min, 0, table, accepting_bits


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def compile_nfa(nfa: NFA) -> CompiledDFA:
    """Lower an NFA through the full pipeline: subset → Hopcroft → tables."""
    symbols, columns, rows, start, accepting = _subset_construct(nfa)
    n_cols = (max(columns) + 1) if columns else 0
    n_states, new_start, table, accepting_bits = _minimize_rows(
        len(rows), n_cols, rows, accepting, start
    )
    return CompiledDFA(symbols, columns, n_states, new_start, table, accepting_bits)


def run_with_choices_compiled(
    dfa: CompiledDFA, choice_sets: Sequence[Iterable[Symbol]]
) -> Optional[List[Symbol]]:
    """Compiled counterpart of :func:`repro.automata.ops.run_with_choices`.

    Finds an accepted word picking one symbol per position from
    ``choice_sets[i]``; the DFA makes each layer a plain integer map.
    Choices are tried in repr order so the witness is deterministic
    across processes (frozenset iteration order is not).
    """
    state = dfa.start
    if state < 0:
        return None
    m = dfa.n_symbols
    layer: Dict[int, Optional[Tuple[int, Symbol]]] = {state: None}
    layers: List[Dict[int, Optional[Tuple[int, Symbol]]]] = [layer]
    for choices in choice_sets:
        nxt: Dict[int, Optional[Tuple[int, Symbol]]] = {}
        for symbol in sorted(choices, key=repr):
            sid = dfa.symbol_ids.get(symbol)
            if sid is None:
                continue
            for q in layer:
                target = dfa.table[q * m + sid]
                if target >= 0 and target not in nxt:
                    nxt[target] = (q, symbol)
        if not nxt:
            return None
        layer = nxt
        layers.append(layer)
    final = [q for q in layer if (dfa.accepting >> q) & 1]
    if not final:
        return None
    word: List[Symbol] = []
    state = min(final)
    for i in range(len(choice_sets), 0, -1):
        state, symbol = layers[i][state]  # type: ignore[misc]
        word.append(symbol)
    word.reverse()
    return word
