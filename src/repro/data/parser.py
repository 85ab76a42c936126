"""Parser and printer for the Table-1 data-graph syntax.

Grammar::

    GraphDef ::= Oid=Node ; ... ; Oid=Node
    Node     ::= value | { E } | [ E ]
    E        ::= label->Oid , ... , label->Oid

Values are double-quoted strings, integers, or floats.  Oids are identifiers,
optionally prefixed with ``&`` (referenceable).  A trailing semicolon is
allowed; ``#`` starts a line comment.

Example (from Section 2 of the paper)::

    o1 = {a -> o2, b -> o3};
    o2 = [a -> o4, c -> o5, c -> o6];
    o3 = 3.14; o4 = "abc"; o5 = 2.71; o6 = 6.12
"""

from __future__ import annotations

from typing import List, Tuple

from ..cancellation import POLL_EVERY, current_deadline, raise_if_cancelled
from ..lexer import TokenStream
from .model import DataGraph, Edge, Node, NodeKind


def parse_data(text: str, validate: bool = True) -> DataGraph:
    """Parse a data graph from its textual representation.

    Lexing and the per-node loop poll the calling context's deadline
    (:mod:`repro.cancellation`), so a large graph in a request body
    unwinds near its deadline.
    """
    stream = TokenStream(text)
    nodes: List[Node] = []
    cancel = current_deadline()
    while not stream.at_end():
        if len(nodes) % POLL_EVERY == 0:
            raise_if_cancelled(cancel)
        nodes.append(_parse_definition(stream))
        if stream.match("OP", ";") is None:
            break
    if not stream.at_end():
        token = stream.current
        raise SyntaxError(
            f"unexpected {token.kind} {token.value!r} at line {token.line}, "
            f"column {token.column}"
        )
    return DataGraph(nodes, validate=validate)


def _parse_definition(stream: TokenStream) -> Node:
    oid = str(stream.expect("IDENT").value)
    stream.expect("OP", "=")
    if stream.match("OP", "{"):
        edges = _parse_edges(stream, "}")
        return Node(oid, NodeKind.UNORDERED, edges=edges)
    if stream.match("OP", "["):
        edges = _parse_edges(stream, "]")
        return Node(oid, NodeKind.ORDERED, edges=edges)
    token = stream.current
    if token.kind == "STRING" or token.kind == "NUMBER":
        stream.advance()
        return Node(oid, NodeKind.ATOMIC, value=token.value)
    raise SyntaxError(
        f"expected node value for {oid!r}, found {token.kind} {token.value!r} "
        f"at line {token.line}, column {token.column}"
    )


def _parse_edges(stream: TokenStream, closing: str) -> List[Edge]:
    edges: List[Edge] = []
    if stream.match("OP", closing):
        return edges
    while True:
        label = str(stream.expect("IDENT").value)
        stream.expect("ARROW")
        target = str(stream.expect("IDENT").value)
        edges.append(Edge(label, target))
        if stream.match("OP", closing):
            return edges
        stream.expect("OP", ",")


def data_to_string(graph: DataGraph, indent: bool = True) -> str:
    """Render a data graph in the Table-1 syntax (parse round-trips)."""
    separator = ";\n" if indent else "; "
    return separator.join(_render_node(node) for node in graph)


def _render_node(node: Node) -> str:
    if node.kind is NodeKind.ATOMIC:
        return f"{node.oid} = {_render_value(node.value)}"
    open_, close = ("[", "]") if node.kind is NodeKind.ORDERED else ("{", "}")
    inner = ", ".join(f"{edge.label} -> {edge.target}" for edge in node.edges)
    return f"{node.oid} = {open_}{inner}{close}"


def _render_value(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)
