"""ScmDL schemas (Section 2, following [BM99]).

A schema is a sequence of type definitions ``Tid = atomicType | {R} | [R]``
where ``R`` is a regular expression over ``label -> Tid`` pairs.  The first
type id is the root type.  Type ids starting with ``&`` are referenceable.

This module provides the schema model plus the classifiers that drive
Table 2:

* **ordered** schemas (all collection types ordered), optionally relaxed
  with *homogeneous* unordered collections ``{(a -> T)*}``;
* **tagged** schemas (the occurs-relation between labels and type ids is
  one-to-one);
* **tree** schemas (no referenceable types);
* the **DTD⁻** (ordered+tagged+tree) and **DTD⁺** (ordered+tagged) classes.

It also provides the *schema graph* Γ(S) used throughout Section 3.4: the
edges ``T --(a)--> T'`` that can occur in some instance, restricted to
*inhabited* types (types with at least one finite instance).
"""

from __future__ import annotations

import enum
import hashlib
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..automata import (
    NFA,
    Regex,
    Sym,
    homogeneous_alternatives,
)
from ..cancellation import current_deadline, raise_if_cancelled
from ..data.model import AtomicValue

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module lazily
    from ..engine import Engine


class TypeKind(enum.Enum):
    """The three type shapes of Table 1."""

    ATOMIC = "atomic"
    UNORDERED = "unordered"
    ORDERED = "ordered"


#: The atomic types of the model.  ``string``/``int``/``float`` are the
#: base domains used in the paper's examples.
ATOMIC_TYPE_NAMES = ("string", "int", "float")


def atomic_matches(atomic_type: str, value: AtomicValue) -> bool:
    """Return True if ``value`` belongs to the named atomic type."""
    if atomic_type == "string":
        return isinstance(value, str)
    if atomic_type == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if atomic_type == "float":
        return isinstance(value, float)
    raise ValueError(f"unknown atomic type {atomic_type!r}")


def atomic_types_overlap(left: str, right: str) -> bool:
    """True if two atomic types share at least one value (used for joins)."""
    return left == right


class TypeDef:
    """One type definition.

    For atomic types, ``atomic`` names the base domain.  For collection
    types, ``regex`` is a regular expression whose atoms are
    ``(label, tid)`` tuples.

    Definitions are immutable after construction: they are ingredients of
    :meth:`Schema.fingerprint`, so in-place mutation would silently
    invalidate every cache entry keyed on the fingerprint.
    """

    __slots__ = ("tid", "kind", "atomic", "regex")

    def __init__(
        self,
        tid: str,
        kind: TypeKind,
        atomic: Optional[str] = None,
        regex: Optional[Regex] = None,
    ):
        if kind is TypeKind.ATOMIC:
            if atomic not in ATOMIC_TYPE_NAMES:
                raise ValueError(
                    f"type {tid!r}: unknown atomic type {atomic!r} "
                    f"(expected one of {ATOMIC_TYPE_NAMES})"
                )
            if regex is not None:
                raise ValueError(f"atomic type {tid!r} cannot carry a regex")
        else:
            if regex is None:
                raise ValueError(f"collection type {tid!r} requires a regex")
            if atomic is not None:
                raise ValueError(f"collection type {tid!r} cannot carry an atomic domain")
            for symbol in regex.symbols():
                if not (isinstance(symbol, tuple) and len(symbol) == 2):
                    raise ValueError(
                        f"type {tid!r}: regex atom {symbol!r} is not a "
                        "(label, tid) pair"
                    )
            if regex.has_wildcard():
                raise ValueError(f"type {tid!r}: wildcards are not allowed in schemas")
        object.__setattr__(self, "tid", tid)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "atomic", atomic)
        object.__setattr__(self, "regex", regex)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"TypeDef is immutable (attempted to set {name!r}); "
            "build a new definition instead"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("TypeDef is immutable")

    # Slots plus the immutability guard defeat default pickling; restore
    # through object.__setattr__ (validation already ran when the original
    # was built).
    def __getstate__(self):
        return (self.tid, self.kind, self.atomic, self.regex)

    def __setstate__(self, state) -> None:
        tid, kind, atomic, regex = state
        object.__setattr__(self, "tid", tid)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "atomic", atomic)
        object.__setattr__(self, "regex", regex)

    @property
    def is_referenceable(self) -> bool:
        return self.tid.startswith("&")

    @property
    def is_atomic(self) -> bool:
        return self.kind is TypeKind.ATOMIC

    @property
    def is_ordered(self) -> bool:
        return self.kind is TypeKind.ORDERED

    @property
    def is_unordered(self) -> bool:
        return self.kind is TypeKind.UNORDERED

    def symbols(self) -> FrozenSet[Tuple[str, str]]:
        """The ``(label, tid)`` atoms occurring in this definition."""
        if self.regex is None:
            return frozenset()
        return self.regex.symbols()  # type: ignore[return-value]

    def is_homogeneous_unordered(self) -> bool:
        """True for unordered types of the form ``{(a1->T1 | ... | ak->Tk)*}``.

        The paper's relaxation of ordered schemas admits homogeneous
        unordered collections ``{(a->T)*}``; we also accept the union form,
        which keeps bag membership PTIME (see :mod:`repro.automata.bag`).
        """
        if self.kind is not TypeKind.UNORDERED:
            return False
        return homogeneous_alternatives(self.regex) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeDef):
            return NotImplemented
        return (
            self.tid == other.tid
            and self.kind == other.kind
            and self.atomic == other.atomic
            and self.regex == other.regex
        )

    def __hash__(self) -> int:
        return hash((self.tid, self.kind, self.atomic, self.regex))

    def __repr__(self) -> str:
        if self.is_atomic:
            return f"TypeDef({self.tid!r}, {self.atomic})"
        brackets = "[]" if self.is_ordered else "{}"
        return f"TypeDef({self.tid!r}, {brackets[0]}{self.regex!r}{brackets[1]})"


class SchemaError(ValueError):
    """Raised when a schema violates well-formedness rules."""


class Schema:
    """A well-formed ScmDL schema.

    Args:
        types: type definitions in order; the first is the root type.
        validate: if True (default), check that every referenced tid is
            defined and that every type is inhabited by some finite instance.
    """

    __slots__ = ("types", "root", "_fingerprint", "_edges_cache", "_inhabited_cache")

    def __init__(self, types: Iterable[TypeDef], validate: bool = True):
        type_list = list(types)
        if not type_list:
            raise SchemaError("a schema needs at least one type definition")
        self._fingerprint: Optional[str] = None
        types_map: Dict[str, TypeDef] = {}
        for type_def in type_list:
            if type_def.tid in types_map:
                raise SchemaError(f"type {type_def.tid!r} defined more than once")
            types_map[type_def.tid] = type_def
        self.types: Dict[str, TypeDef] = types_map
        self.root = type_list[0].tid
        self._edges_cache: Optional[Dict[str, FrozenSet[Tuple[str, str]]]] = None
        self._inhabited_cache: Optional[FrozenSet[str]] = None
        if validate:
            self._validate()

    def __setattr__(self, name: str, value: object) -> None:
        # Once fingerprinted, the schema may be used as a cache key, so its
        # observable state is frozen.  Private caches stay rebindable.
        if not name.startswith("_") and getattr(self, "_fingerprint", None) is not None:
            raise SchemaError(
                f"schema is frozen: it was fingerprinted and may back cache "
                f"entries (attempted to set {name!r})"
            )
        object.__setattr__(self, name, value)

    # A frozen schema holds its types in a MappingProxyType (unpicklable)
    # and rejects ordinary setattr, so pickling goes through the type list.
    # The fingerprint is recomputed on restore — it is a pure function of
    # the definitions, so equal schemas keep equal fingerprints across
    # processes (which is what lets shipped artifacts hit worker caches).
    def __getstate__(self):
        return (list(self.types.values()), self.root, self._fingerprint is not None)

    def __setstate__(self, state) -> None:
        type_list, root, was_frozen = state
        object.__setattr__(
            self, "types", {type_def.tid: type_def for type_def in type_list}
        )
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, "_edges_cache", None)
        object.__setattr__(self, "_inhabited_cache", None)
        if was_frozen:
            self.fingerprint()

    def _validate(self) -> None:
        for type_def in self.types.values():
            for _label, target in type_def.symbols():
                if target not in self.types:
                    raise SchemaError(
                        f"type {type_def.tid!r} references undefined type {target!r}"
                    )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def type(self, tid: str) -> TypeDef:
        """Return the definition of ``tid`` (KeyError if undefined)."""
        return self.types[tid]

    @property
    def root_type(self) -> TypeDef:
        return self.types[self.root]

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[TypeDef]:
        return iter(self.types.values())

    def __contains__(self, tid: str) -> bool:
        return tid in self.types

    def tids(self) -> Tuple[str, ...]:
        return tuple(self.types)

    def labels(self) -> FrozenSet[str]:
        """All labels occurring in the schema."""
        return frozenset(
            label for type_def in self for label, _target in type_def.symbols()
        )

    def symbol_alphabet(self) -> FrozenSet[Tuple[str, str]]:
        """All ``(label, tid)`` atoms occurring anywhere in the schema."""
        result: Set[Tuple[str, str]] = set()
        for type_def in self:
            result.update(type_def.symbols())
        return frozenset(result)

    def fingerprint(self) -> str:
        """A stable content hash of this schema, usable as a cache key.

        Equal schemas (same root, same definitions, in any order) share a
        fingerprint across processes: it is a SHA-1 of a deterministic
        rendering of the sorted type definitions, independent of
        ``PYTHONHASHSEED``.  The first call freezes the schema — public
        attributes become immutable and ``types`` is wrapped read-only —
        because cache entries keyed on the fingerprint would go stale if
        the schema changed afterwards.
        """
        if self._fingerprint is None:
            payload = repr(
                (
                    self.root,
                    sorted(
                        (t.tid, t.kind.value, t.atomic, repr(t.regex))
                        for t in self.types.values()
                    ),
                )
            )
            object.__setattr__(self, "types", MappingProxyType(dict(self.types)))
            self._fingerprint = hashlib.sha1(payload.encode("utf-8")).hexdigest()
        return self._fingerprint

    def compile_regex(self, tid: str, engine: Optional["Engine"] = None) -> NFA:
        """Compile the regex of a collection type over the schema alphabet.

        The compiled NFA is memoized by the engine under
        ``("content-nfa", fingerprint, tid)`` — callers must not mutate it.
        """
        if engine is None:
            from ..engine import get_default_engine

            engine = get_default_engine()
        return engine.content_nfa(self, tid)

    # ------------------------------------------------------------------
    # Classification (the Table-2 schema restrictions)
    # ------------------------------------------------------------------

    def is_ordered(self, allow_homogeneous: bool = False) -> bool:
        """True if all collection types are ordered.

        With ``allow_homogeneous=True``, homogeneous unordered collections
        are also admitted (the relaxation of Section 3).
        """
        for type_def in self:
            if type_def.is_unordered:
                if not (allow_homogeneous and type_def.is_homogeneous_unordered()):
                    return False
        return True

    def tag_relation(self) -> Dict[str, Set[str]]:
        """The occurs-relation: label -> set of type ids it points to."""
        relation: Dict[str, Set[str]] = {}
        for type_def in self:
            for label, target in type_def.symbols():
                relation.setdefault(label, set()).add(target)
        return relation

    def is_tagged(self) -> bool:
        """True if the label/type-id occurs-relation is one-to-one."""
        relation = self.tag_relation()
        targets_seen: Set[str] = set()
        for targets in relation.values():
            if len(targets) != 1:
                return False
            (target,) = targets
            if target in targets_seen:
                return False
            targets_seen.add(target)
        return True

    def tag_of(self, label: str) -> Optional[str]:
        """For tagged schemas: the unique type id a label points to."""
        targets = self.tag_relation().get(label)
        if targets and len(targets) == 1:
            return next(iter(targets))
        return None

    def is_tree(self) -> bool:
        """True if the schema has no referenceable types."""
        return not any(type_def.is_referenceable for type_def in self)

    def is_dtd_minus(self) -> bool:
        """True for the DTD⁻ class: ordered, tagged, tree."""
        return self.is_ordered() and self.is_tagged() and self.is_tree()

    def is_dtd_plus(self) -> bool:
        """True for the DTD⁺ class: ordered, tagged."""
        return self.is_ordered() and self.is_tagged()

    # ------------------------------------------------------------------
    # Inhabitation and the schema graph Γ(S)
    # ------------------------------------------------------------------

    def inhabited_types(self, engine: Optional["Engine"] = None) -> FrozenSet[str]:
        """Type ids with at least one finite conforming instance.

        Least fixpoint: atomic types are inhabited; a collection type is
        inhabited once its regex accepts some word using only inhabited
        targets.
        """
        if self._inhabited_cache is not None:
            return self._inhabited_cache
        if engine is None:
            from ..engine import get_default_engine

            engine = get_default_engine()
        self._inhabited_cache = engine.inhabited_types(self)
        return self._inhabited_cache

    def inhabitation_ranks(self, engine: Optional["Engine"] = None) -> Dict[str, int]:
        """Fixpoint round at which each inhabited type gained an instance.

        Atomic types have rank 0; a collection type of rank ``r`` accepts
        some content word whose targets all have rank strictly below
        ``r``.  Useful for constructing *minimal* instances: following
        rank-decreasing words always terminates.  Uninhabited types are
        absent from the result, so its keys are :meth:`inhabited_types`.
        """
        if engine is None:
            from ..engine import get_default_engine

            engine = get_default_engine()
        return _inhabitation_rounds(self, engine)

    def possible_edges(
        self, engine: Optional["Engine"] = None
    ) -> Dict[str, FrozenSet[Tuple[str, str]]]:
        """The schema graph Γ(S): for each type, the ``(label, tid)`` pairs
        that occur in some instance of that type.

        A pair qualifies if it appears in some word of the type's regex in
        which every symbol targets an inhabited type.
        """
        if self._edges_cache is not None:
            return self._edges_cache
        if engine is None:
            from ..engine import get_default_engine

            engine = get_default_engine()
        self._edges_cache = engine.possible_edges(self)
        return self._edges_cache

    def reachable_types(self, engine: Optional["Engine"] = None) -> FrozenSet[str]:
        """Types reachable from the root through Γ(S)."""
        edges = self.possible_edges(engine)
        seen = {self.root}
        stack = [self.root]
        while stack:
            tid = stack.pop()
            for _label, target in edges.get(tid, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.root == other.root and self.types == other.types

    def __hash__(self) -> int:
        return hash((self.root, tuple(self.types.values())))

    def __repr__(self) -> str:
        return f"Schema(root={self.root!r}, types={len(self.types)})"


def _compute_inhabited(schema: Schema, engine: "Engine") -> FrozenSet[str]:
    """The body behind ``inhabited_types``: the types the fixpoint ranks."""
    return frozenset(_inhabitation_rounds(schema, engine))


def _inhabitation_rounds(schema: Schema, engine: "Engine") -> Dict[str, int]:
    """Least-fixpoint inhabitation as a worklist: type -> round inhabited.

    Round ``r`` inhabits each collection type it visits whose content
    accepts a word over the types inhabited in earlier rounds, so the
    round is the type's rank.  Round 1 visits every collection type;
    each later round visits, in schema order, only the types with an arc
    to one inhabited in the round before, so a chain of n types costs
    about 2n visits, not n^2 / 2.  Every visit polls the caller's
    deadline.
    """
    from ..automata.nfa import EPS

    cancel = current_deadline()
    rounds: Dict[str, int] = {t.tid: 0 for t in schema if t.is_atomic}
    tids: List[str] = []
    compiled: List[NFA] = []
    #: target -> schema positions of the collection types with an arc to it.
    dependents: Dict[str, Set[int]] = {}
    for type_def in schema:
        if type_def.is_atomic:
            continue
        raise_if_cancelled(cancel)
        nfa = engine.content_nfa(schema, type_def.tid)
        for arcs in nfa.transitions.values():
            for symbol, _dst in arcs:
                if symbol is not EPS:
                    dependents.setdefault(symbol[1], set()).add(len(tids))
        tids.append(type_def.tid)
        compiled.append(nfa)
    visits = range(len(tids))
    round_index = 0
    while visits:
        round_index += 1
        inhabited = []
        for position in visits:
            raise_if_cancelled(cancel)
            if not _restrict_to_targets(compiled[position], rounds).is_empty():
                inhabited.append(tids[position])
        for tid in inhabited:
            rounds[tid] = round_index
        visits = sorted(
            {
                source
                for tid in inhabited
                for source in dependents.get(tid, ())
                if tids[source] not in rounds
            }
        )
    return rounds


def _compute_possible_edges(
    schema: Schema, engine: "Engine"
) -> Dict[str, FrozenSet[Tuple[str, str]]]:
    """The schema-graph body behind ``possible_edges``."""
    cancel = current_deadline()
    result: Dict[str, FrozenSet[Tuple[str, str]]] = {}
    for type_def in schema:
        raise_if_cancelled(cancel)
        if type_def.is_atomic:
            result[type_def.tid] = frozenset()
            continue
        restricted = engine.restricted_content_nfa(schema, type_def.tid)
        result[type_def.tid] = frozenset(restricted.useful_symbols())
    return result


def _restrict_to_targets(nfa: NFA, allowed_targets: Container[str]) -> NFA:
    """Drop arcs whose ``(label, tid)`` symbol targets a type outside the set.

    Returns ``nfa`` itself when no arc goes, so a caller can tell by
    identity that the restriction changed nothing.
    """
    from ..automata.nfa import EPS

    transitions = {}
    dropped = False
    for src, arcs in nfa.transitions.items():
        kept = [
            (symbol, dst)
            for symbol, dst in arcs
            if symbol is EPS or symbol[1] in allowed_targets
        ]
        dropped = dropped or len(kept) < len(arcs)
        if kept:
            transitions[src] = kept
    if not dropped:
        return nfa
    return NFA(nfa.n_states, nfa.alphabet, nfa.start, nfa.accepting, transitions)
