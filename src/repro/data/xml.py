"""XML encoding of the data model (Section 2 of the paper).

The paper shows how an XML fragment maps to a data graph::

    <paper><title> A real nice paper </title> ... </paper>

becomes::

    o1 = [paper -> o2];
    o2 = [title -> o3, author -> o4]; o3 = "A real nice paper"; ...

Rules implemented here (matching the paper's example):

* every element becomes an *ordered* node whose edges are labelled by the
  child element names, in document order;
* an element containing only character data becomes an atomic string node
  (text is stripped of surrounding whitespace);
* the document is wrapped in a synthetic ordered root with a single edge
  labelled by the document element's tag;
* all generated objects are non-referenceable (XML data is tree data);
* attributes are encoded as leading edges labelled ``@name`` pointing to
  atomic string nodes — a documented extension, since plain OEM has no
  attribute notion;
* mixed content (text interleaved with elements) is rejected, mirroring the
  DTD fragment of Section 2 which has no mixed-content types.

The parser is deliberately small: elements, attributes, character data, the
five standard entities, comments, and processing instructions (skipped).
It exists so the library has no dependency beyond the standard library and
so the ordered-node semantics is pinned by our own tests.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..cancellation import POLL_EVERY, current_deadline, raise_if_cancelled
from .model import DataGraph, Edge, Node, NodeKind


class XmlError(ValueError):
    """Raised on malformed XML or content outside the supported subset."""


class XmlElement:
    """A parsed XML element: tag, attributes, and children.

    Children are :class:`XmlElement` instances or text strings.
    """

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List[Union["XmlElement", str]]] = None,
    ):
        self.tag = tag
        self.attributes = dict(attributes or {})
        self.children = list(children or [])

    def element_children(self) -> List["XmlElement"]:
        """Child elements, in document order."""
        return [c for c in self.children if isinstance(c, XmlElement)]

    def text_content(self) -> str:
        """Concatenated character data directly under this element."""
        return "".join(c for c in self.children if isinstance(c, str))

    def __repr__(self) -> str:
        return f"XmlElement({self.tag!r}, children={len(self.children)})"


_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_.:\-]*")
_ATTR_RE = re.compile(
    r"\s*([A-Za-z_:][A-Za-z0-9_.:\-]*)\s*=\s*(\"[^\"]*\"|'[^']*')"
)


def _unescape(text: str) -> str:
    def replace(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name.startswith("#x") or name.startswith("#X"):
            return chr(int(name[2:], 16))
        if name.startswith("#"):
            return chr(int(name[1:]))
        if name in _ENTITIES:
            return _ENTITIES[name]
        raise XmlError(f"unknown entity &{name};")

    return re.sub(r"&([^;]+);", replace, text)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def parse_xml(text: str) -> XmlElement:
    """Parse an XML fragment with a single document element."""
    parser = _XmlParser(text)
    element = parser.parse_document()
    return element


class _XmlParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        #: Elements started so far; every POLL_EVERY-th polls the deadline.
        self.elements = 0
        self.cancel = current_deadline()

    def error(self, message: str) -> XmlError:
        line = self.text.count("\n", 0, self.pos) + 1
        return XmlError(f"{message} (line {line})")

    def skip_misc(self) -> None:
        """Skip whitespace, comments, PIs, and a doctype before/after the root."""
        while self.pos < len(self.text):
            if self.text[self.pos].isspace():
                self.pos += 1
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!DOCTYPE", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error("unterminated doctype")
                self.pos = end + 1
            else:
                return

    def parse_document(self) -> XmlElement:
        self.skip_misc()
        if self.pos >= len(self.text) or self.text[self.pos] != "<":
            raise self.error("expected document element")
        element = self.parse_element()
        self.skip_misc()
        if self.pos < len(self.text):
            raise self.error("content after document element")
        return element

    def parse_element(self) -> XmlElement:
        assert self.text[self.pos] == "<"
        self.elements += 1
        if self.elements % POLL_EVERY == 0:
            raise_if_cancelled(self.cancel)
        self.pos += 1
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("expected element name")
        tag = match.group()
        self.pos = match.end()
        attributes: Dict[str, str] = {}
        while True:
            attr = _ATTR_RE.match(self.text, self.pos)
            if attr is None:
                break
            attributes[attr.group(1)] = _unescape(attr.group(2)[1:-1])
            self.pos = attr.end()
        self.skip_spaces()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return XmlElement(tag, attributes)
        if not self.text.startswith(">", self.pos):
            raise self.error(f"malformed start tag <{tag}>")
        self.pos += 1
        children = self.parse_content(tag)
        return XmlElement(tag, attributes, children)

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_content(self, tag: str) -> List[Union[XmlElement, str]]:
        children: List[Union[XmlElement, str]] = []
        buffer: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error(f"unterminated element <{tag}>")
            if self.text.startswith("</", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error(f"malformed end tag in <{tag}>")
                closing = self.text[self.pos + 2 : end].strip()
                if closing != tag:
                    raise self.error(
                        f"mismatched end tag </{closing}> for <{tag}>"
                    )
                self.pos = end + 1
                break
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
                continue
            if self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise self.error("unterminated CDATA section")
                buffer.append(self.text[self.pos + 9 : end])
                self.pos = end + 3
                continue
            if self.text.startswith("<", self.pos):
                if buffer:
                    children.append(_unescape("".join(buffer)))
                    buffer = []
                children.append(self.parse_element())
                continue
            next_tag = self.text.find("<", self.pos)
            if next_tag < 0:
                raise self.error(f"unterminated element <{tag}>")
            buffer.append(self.text[self.pos : next_tag])
            self.pos = next_tag
        if buffer:
            children.append(_unescape("".join(buffer)))
        return children


def from_xml(text: str, oid_prefix: str = "o") -> DataGraph:
    """Encode an XML fragment as a data graph, per Section 2.

    The result's root is a synthetic ordered node ``<prefix>1`` with one
    edge labelled by the document element's tag.  Parsing and encoding
    poll the calling context's deadline every
    :data:`~repro.cancellation.POLL_EVERY` elements or nodes.
    """
    element = parse_xml(text)
    nodes: List[Node] = []
    counter = [1]
    cancel = current_deadline()

    def fresh_oid() -> str:
        oid = f"{oid_prefix}{counter[0]}"
        counter[0] += 1
        if counter[0] % POLL_EVERY == 0:
            raise_if_cancelled(cancel)
        return oid

    root_oid = fresh_oid()

    def encode(elem: XmlElement) -> str:
        oid = fresh_oid()
        text_parts = [
            c.strip() for c in elem.children if isinstance(c, str) and c.strip()
        ]
        element_children = elem.element_children()
        if text_parts and element_children:
            raise XmlError(
                f"mixed content in <{elem.tag}> is outside the supported subset"
            )
        edges: List[Edge] = []
        placeholder_index = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]  # reserve slot, fill below
        for name, value in elem.attributes.items():
            attr_oid = fresh_oid()
            nodes.append(Node(attr_oid, NodeKind.ATOMIC, value=value))
            edges.append(Edge(f"@{name}", attr_oid))
        if text_parts and not elem.attributes:
            nodes[placeholder_index] = Node(
                oid, NodeKind.ATOMIC, value=" ".join(text_parts)
            )
            return oid
        if text_parts:
            text_oid = fresh_oid()
            nodes.append(Node(text_oid, NodeKind.ATOMIC, value=" ".join(text_parts)))
            edges.append(Edge("#text", text_oid))
        for child in element_children:
            child_oid = encode(child)
            edges.append(Edge(child.tag, child_oid))
        nodes[placeholder_index] = Node(oid, NodeKind.ORDERED, edges=edges)
        return oid

    document_oid = encode(element)
    nodes.insert(0, Node(root_oid, NodeKind.ORDERED, edges=[Edge(element.tag, document_oid)]))
    return DataGraph(nodes)


def to_xml(graph: DataGraph, indent: str = "  ") -> str:
    """Serialize a tree-shaped data graph back to XML.

    The graph must be in the image of :func:`from_xml`: a tree whose root is
    an ordered node with a single outgoing edge.
    """
    if not graph.is_tree():
        raise XmlError("only tree-shaped data graphs can be serialized to XML")
    root = graph.root_node
    if root.is_atomic or len(root.edges) != 1:
        raise XmlError("the root must be a collection node with exactly one edge")
    lines: List[str] = []

    def render(label: str, oid: str, depth: int) -> None:
        node = graph.node(oid)
        pad = indent * depth
        if node.is_atomic:
            lines.append(f"{pad}<{label}>{_escape(str(node.value))}</{label}>")
            return
        attributes = []
        body: List[Edge] = []
        for edge in node.edges:
            target = graph.node(edge.target)
            if edge.label.startswith("@") and target.is_atomic:
                attributes.append((edge.label[1:], str(target.value)))
            else:
                body.append(edge)
        attr_text = "".join(f' {name}="{_escape(value)}"' for name, value in attributes)
        if not body:
            lines.append(f"{pad}<{label}{attr_text}/>")
            return
        if len(body) == 1 and body[0].label == "#text":
            value = str(graph.node(body[0].target).value)
            lines.append(f"{pad}<{label}{attr_text}>{_escape(value)}</{label}>")
            return
        lines.append(f"{pad}<{label}{attr_text}>")
        for edge in body:
            render(edge.label, edge.target, depth + 1)
        lines.append(f"{pad}</{label}>")

    edge = root.edges[0]
    render(edge.label, edge.target, 0)
    return "\n".join(lines)
