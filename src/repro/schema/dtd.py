"""DTDs as schemas (Section 2).

The paper observes that a DTD is a schema in which (1) all types are
ordered, (2) all types are tagged (labels and type ids are in one-to-one
correspondence), and (3) all types are non-referenceable.  This module
translates between DTD element declarations and ScmDL schemas:

* :func:`parse_dtd` turns declarations like::

      <!ELEMENT paper  (title, (author)*)>
      <!ELEMENT title  #PCDATA>

  into a :class:`~repro.schema.model.Schema` whose type ids are the
  upper-cased element names (disambiguated on collision), preserving the
  label/type bijection — the result is always in the DTD⁻ class.

* :func:`schema_to_dtd` renders a DTD⁻ schema back as element declarations.

Supported content models: ``#PCDATA``, ``EMPTY``, ``ANY``, and the usual
regular operators ``,`` (sequence), ``|`` (choice), ``*``, ``+``, ``?`` and
parentheses.  (Strict XML requires ``#PCDATA`` only inside mixed-content
choices; like the paper, we use the relaxed form where ``#PCDATA`` alone
declares a text element.)
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..automata.parser import regex_to_string
from ..automata.syntax import EPSILON, Regex, alt, concat, opt, plus, star, sym
from ..cancellation import POLL_EVERY, current_deadline, raise_if_cancelled
from .model import Schema, TypeDef, TypeKind

_DECL_RE = re.compile(r"<!ELEMENT\s+([A-Za-z_:][A-Za-z0-9_.:\-]*)\s+(.*?)>", re.DOTALL)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)


class DtdError(ValueError):
    """Raised on malformed DTD input or non-DTD⁻ schemas at export time."""


def parse_dtd(text: str, wrap: bool = False) -> Schema:
    """Parse element declarations into a DTD⁻ schema.

    The first declared element becomes the root type.  With ``wrap=True``
    a synthetic root type ``DOCROOT = [name -> TID]`` is prepended, where
    ``name`` is the first declared element — matching the synthetic root
    object that :func:`repro.data.from_xml` adds around a document whose
    root element is that first declaration.
    """
    text = _COMMENT_RE.sub(" ", text)
    declarations = _DECL_RE.findall(text)
    if not declarations:
        raise DtdError("no <!ELEMENT ...> declarations found")
    names = [name for name, _content in declarations]
    duplicates = sorted(n for n, count in Counter(names).items() if count > 1)
    if duplicates:
        raise DtdError(f"duplicate element declarations: {duplicates}")
    tid_of = _assign_tids(names)
    cancel = current_deadline()
    types: List[TypeDef] = []
    for name, content in declarations:
        raise_if_cancelled(cancel)
        types.append(_declaration_to_type(name, content.strip(), tid_of))
    if wrap:
        from ..automata.syntax import sym

        first = names[0]
        wrapper = TypeDef(
            "DOCROOT", TypeKind.ORDERED, regex=sym((first, tid_of[first]))
        )
        types.insert(0, wrapper)
    return Schema(types)


def _assign_tids(names: List[str]) -> Dict[str, str]:
    """Map element names to unique upper-cased type ids."""
    tid_of: Dict[str, str] = {}
    used: Dict[str, int] = {}
    for name in names:
        base = name.upper()
        if base in used:
            used[base] += 1
            tid = f"{base}_{used[base]}"
        else:
            used[base] = 0
            tid = base
        tid_of[name] = tid
    return tid_of


def _declaration_to_type(name: str, content: str, tid_of: Dict[str, str]) -> TypeDef:
    tid = tid_of[name]
    if content == "#PCDATA" or content == "(#PCDATA)":
        return TypeDef(tid, TypeKind.ATOMIC, atomic="string")
    if content == "EMPTY":
        return TypeDef(tid, TypeKind.ORDERED, regex=EPSILON)
    if content == "ANY":
        anything = alt(*(sym((n, t)) for n, t in tid_of.items()))
        return TypeDef(tid, TypeKind.ORDERED, regex=star(anything))
    regex = _ContentParser(content, tid_of, name).parse()
    return TypeDef(tid, TypeKind.ORDERED, regex=regex)


class _ContentParser:
    """Recursive-descent parser for DTD content models.

    One model can hold most of a body-sized DTD (a choice among every
    element), so the parser polls the caller's deadline as it consumes
    tokens.
    """

    def __init__(self, text: str, tid_of: Dict[str, str], element: str):
        self.tokens = re.findall(r"[(),|*+?]|#?[A-Za-z_:][A-Za-z0-9_.:\-]*", text)
        self.pos = 0
        self.tid_of = tid_of
        self.element = element
        self.cancel = current_deadline()

    def error(self, message: str) -> DtdError:
        return DtdError(f"in content model of <!ELEMENT {self.element}>: {message}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        if self.pos % POLL_EVERY == 0:
            raise_if_cancelled(self.cancel)
        return token

    def parse(self) -> Regex:
        regex = self.parse_choice_or_seq()
        if self.pos != len(self.tokens):
            raise self.error(f"trailing tokens {self.tokens[self.pos:]}")
        return regex

    def parse_choice_or_seq(self) -> Regex:
        first = self.parse_unit()
        if self.peek() == ",":
            parts = [first]
            while self.peek() == ",":
                self.advance()
                parts.append(self.parse_unit())
            return concat(*parts)
        if self.peek() == "|":
            parts = [first]
            while self.peek() == "|":
                self.advance()
                parts.append(self.parse_unit())
            return alt(*parts)
        return first

    def parse_unit(self) -> Regex:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of content model")
        if token == "(":
            self.advance()
            inner = self.parse_choice_or_seq()
            if self.peek() != ")":
                raise self.error("missing ')'")
            self.advance()
            regex = inner
        elif re.fullmatch(r"[A-Za-z_:][A-Za-z0-9_.:\-]*", token):
            self.advance()
            if token not in self.tid_of:
                raise self.error(f"reference to undeclared element {token!r}")
            regex = sym((token, self.tid_of[token]))
        else:
            raise self.error(f"unexpected token {token!r}")
        while self.peek() in ("*", "+", "?"):
            operator = self.advance()
            if operator == "*":
                regex = star(regex)
            elif operator == "+":
                regex = plus(regex)
            else:
                regex = opt(regex)
        return regex


def schema_to_dtd(schema: Schema) -> str:
    """Render a DTD⁻ schema as element declarations.

    Raises:
        DtdError: if the schema is not in the DTD⁻ class, or its tagging
            does not give every type a unique label.
    """
    if not schema.is_dtd_minus():
        raise DtdError("only DTD- schemas (ordered, tagged, tree) export to DTDs")
    label_of: Dict[str, str] = {}
    for label, targets in schema.tag_relation().items():
        (target,) = targets
        label_of[target] = label
    lines: List[str] = []
    for type_def in schema:
        name = label_of.get(type_def.tid)
        if name is None:
            if type_def.tid == schema.root:
                name = type_def.tid
            else:
                # Unreferenced, unreachable type: skip it.
                continue
        if type_def.is_atomic:
            lines.append(f"<!ELEMENT {name} #PCDATA>")
            continue
        body = _regex_to_content(type_def.regex)
        lines.append(f"<!ELEMENT {name} {body}>")
    return "\n".join(lines)


def _regex_to_content(regex: Regex) -> str:
    from ..automata.syntax import Epsilon

    if isinstance(regex, Epsilon):
        return "EMPTY"
    text = regex_to_string(regex, lambda symbol: symbol[0])
    text = text.replace(".", ", ")
    if not text.startswith("("):
        text = f"({text})"
    return text
