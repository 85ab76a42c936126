"""The data model of Section 2: an ordered version of OEM.

A :class:`DataGraph` is a collection of objects (nodes), each identified by
an *oid* and carrying a value that is either

* an atomic value (string, int, or float),
* an unordered collection of ``(label, oid)`` pairs, or
* an ordered sequence of ``(label, oid)`` pairs.

The first node defined is the distinguished *root*; every node must be
reachable from it.  Oids starting with ``&`` denote *referenceable* objects;
all other objects are non-referenceable and may occur at most once on the
right-hand side of a definition (so non-referenceable regions of the graph
are trees hanging off referenceable nodes — exactly the paper's convention,
and the reason XML documents are trees of non-referenceable objects).
"""

from __future__ import annotations

import enum
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cancellation import POLL_EVERY, current_deadline, raise_if_cancelled

#: Atomic values allowed at leaves.
AtomicValue = Union[str, int, float]


class NodeKind(enum.Enum):
    """The three node shapes of Table 1."""

    ATOMIC = "atomic"
    UNORDERED = "unordered"
    ORDERED = "ordered"


class Edge(NamedTuple):
    """A labelled edge ``label -> target`` out of a collection node."""

    label: str
    target: str


class Node:
    """One object definition ``oid = value | {E} | [E]``.

    Exactly one of ``value`` (for atomic nodes) or ``edges`` (for collection
    nodes) is meaningful, depending on ``kind``.
    """

    __slots__ = ("oid", "kind", "value", "edges")

    def __init__(
        self,
        oid: str,
        kind: NodeKind,
        value: Optional[AtomicValue] = None,
        edges: Sequence[Edge] = (),
    ):
        if kind is NodeKind.ATOMIC:
            if value is None:
                raise ValueError(f"atomic node {oid!r} requires a value")
            if edges:
                raise ValueError(f"atomic node {oid!r} cannot have edges")
        else:
            if value is not None:
                raise ValueError(f"collection node {oid!r} cannot carry a value")
        self.oid = oid
        self.kind = kind
        self.value = value
        self.edges = tuple(Edge(label, target) for label, target in edges)

    @property
    def is_referenceable(self) -> bool:
        """True if the oid starts with ``&``."""
        return self.oid.startswith("&")

    @property
    def is_atomic(self) -> bool:
        return self.kind is NodeKind.ATOMIC

    @property
    def is_ordered(self) -> bool:
        return self.kind is NodeKind.ORDERED

    @property
    def is_unordered(self) -> bool:
        return self.kind is NodeKind.UNORDERED

    def labels(self) -> Tuple[str, ...]:
        """Return the edge labels in definition order."""
        return tuple(edge.label for edge in self.edges)

    def targets(self) -> Tuple[str, ...]:
        """Return the edge targets in definition order."""
        return tuple(edge.target for edge in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (
            self.oid == other.oid
            and self.kind == other.kind
            and self.value == other.value
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.oid, self.kind, self.value, self.edges))

    def __repr__(self) -> str:
        if self.is_atomic:
            return f"Node({self.oid!r}, value={self.value!r})"
        brackets = "[]" if self.is_ordered else "{}"
        inner = ", ".join(f"{e.label}->{e.target}" for e in self.edges)
        return f"Node({self.oid!r}, {brackets[0]}{inner}{brackets[1]})"


class DataGraphError(ValueError):
    """Raised when a data graph violates the well-formedness rules of §2."""


class DataGraph:
    """A well-formed data graph.

    Construction and validation poll the calling context's deadline
    every :data:`~repro.cancellation.POLL_EVERY` nodes, so a large graph
    in a request body unwinds near its deadline.

    Args:
        nodes: node definitions in order; the first one is the root.
        validate: if True (default), check all Section-2 well-formedness
            conditions and raise :class:`DataGraphError` on violation.
    """

    __slots__ = ("nodes", "root")

    def __init__(self, nodes: Iterable[Node], validate: bool = True):
        node_list = list(nodes)
        if not node_list:
            raise DataGraphError("a data graph needs at least one node")
        self.nodes: Dict[str, Node] = {}
        cancel = current_deadline()
        for index, node in enumerate(node_list):
            if index % POLL_EVERY == 0:
                raise_if_cancelled(cancel)
            if node.oid in self.nodes:
                raise DataGraphError(f"oid {node.oid!r} defined more than once")
            self.nodes[node.oid] = node
        self.root = node_list[0].oid
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Well-formedness
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        cancel = current_deadline()
        occurrences: Dict[str, int] = {}
        for index, node in enumerate(self.nodes.values()):
            if index % POLL_EVERY == 0:
                raise_if_cancelled(cancel)
            for edge in node.edges:
                if edge.target not in self.nodes:
                    raise DataGraphError(
                        f"edge {edge.label!r} of {node.oid!r} points to "
                        f"undefined oid {edge.target!r}"
                    )
                occurrences[edge.target] = occurrences.get(edge.target, 0) + 1
        for index, (oid, node) in enumerate(self.nodes.items()):
            if index % POLL_EVERY == 0:
                raise_if_cancelled(cancel)
            count = occurrences.get(oid, 0)
            if not node.is_referenceable:
                if oid == self.root:
                    if count > 0:
                        raise DataGraphError(
                            f"non-referenceable root {oid!r} may not occur "
                            "on any right-hand side"
                        )
                elif count > 1:
                    raise DataGraphError(
                        f"non-referenceable oid {oid!r} occurs {count} times "
                        "on right-hand sides (at most once allowed)"
                    )
        unreachable = set(self.nodes) - set(self.reachable_from(self.root))
        if unreachable:
            raise DataGraphError(
                f"nodes not reachable from the root: {sorted(unreachable)}"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def node(self, oid: str) -> Node:
        """Return the node with the given oid (KeyError if undefined)."""
        return self.nodes[oid]

    @property
    def root_node(self) -> Node:
        return self.nodes[self.root]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes.values())

    def __contains__(self, oid: str) -> bool:
        return oid in self.nodes

    def edge_count(self) -> int:
        """Total number of edges in the graph."""
        return sum(len(node.edges) for node in self)

    def labels(self) -> FrozenSet[str]:
        """All edge labels appearing in the graph."""
        return frozenset(
            edge.label for node in self for edge in node.edges
        )

    def atomic_values(self) -> FrozenSet[AtomicValue]:
        """All atomic values appearing in the graph."""
        return frozenset(node.value for node in self if node.is_atomic)

    def reachable_from(self, oid: str) -> List[str]:
        """Oids reachable from ``oid`` (including it), depth-first preorder."""
        cancel = current_deadline()
        seen = {oid}
        order = [oid]
        stack = [oid]
        visits = 0
        while stack:
            visits += 1
            if visits % POLL_EVERY == 0:
                raise_if_cancelled(cancel)
            current = stack.pop()
            for edge in reversed(self.nodes[current].edges):
                if edge.target not in seen:
                    seen.add(edge.target)
                    order.append(edge.target)
                    stack.append(edge.target)
        return order

    def is_tree(self) -> bool:
        """True if every node has at most one incoming edge (and the root none)."""
        seen: Dict[str, int] = {}
        for node in self:
            for edge in node.edges:
                seen[edge.target] = seen.get(edge.target, 0) + 1
                if seen[edge.target] > 1:
                    return False
        return self.root not in seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataGraph):
            return NotImplemented
        return self.root == other.root and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash((self.root, tuple(self.nodes.values())))

    def __repr__(self) -> str:
        return f"DataGraph(root={self.root!r}, nodes={len(self.nodes)}, edges={self.edge_count()})"


class GraphBuilder:
    """Incremental construction of a :class:`DataGraph`.

    Example::

        builder = GraphBuilder()
        builder.ordered("o1", [("paper", "o2")])
        builder.atomic("o2", "hello")
        graph = builder.build()
    """

    def __init__(self) -> None:
        self._nodes: List[Node] = []

    def atomic(self, oid: str, value: AtomicValue) -> "GraphBuilder":
        """Define an atomic node."""
        self._nodes.append(Node(oid, NodeKind.ATOMIC, value=value))
        return self

    def unordered(self, oid: str, edges: Iterable[Tuple[str, str]]) -> "GraphBuilder":
        """Define an unordered collection node."""
        self._nodes.append(
            Node(oid, NodeKind.UNORDERED, edges=[Edge(*e) for e in edges])
        )
        return self

    def ordered(self, oid: str, edges: Iterable[Tuple[str, str]]) -> "GraphBuilder":
        """Define an ordered collection node."""
        self._nodes.append(
            Node(oid, NodeKind.ORDERED, edges=[Edge(*e) for e in edges])
        )
        return self

    def build(self, validate: bool = True) -> DataGraph:
        """Finalize and validate the graph."""
        return DataGraph(self._nodes, validate=validate)
