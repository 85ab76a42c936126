"""Parser and printer for the query syntax (Table 1 plus SELECT/WHERE).

Grammar::

    Query   ::= SELECT [Var , ... , Var] WHERE PatDef ; ... ; PatDef
    PatDef  ::= nodeVar = value | nodeVar = $valueVar
              | nodeVar = { P } | nodeVar = [ P ]
    P       ::= L -> nodeVar , ... , L -> nodeVar
    L       ::= R | $labelVar

``R`` is a regular path expression over labels with the ``_`` wildcard.
An empty SELECT clause (``SELECT WHERE ...``) denotes a boolean query.

Example (the Abiteboul/Vianu query of Section 2)::

    SELECT X1
    WHERE Root = [paper -> X1];
          X1 = [author.name.(_*) -> X2, author.name.(_*) -> X3];
          X2 = "Vianu"; X3 = "Abiteboul"
"""

from __future__ import annotations

import functools
from typing import List, Optional

from ..automata.parser import parse_regex, regex_to_string
from ..automata.syntax import Regex, sym
from ..lexer import TokenStream
from .model import LabelVar, PatternArm, PatternDef, PatternKind, Query


def _path_atom(label: str, target: Optional[str]) -> Regex:
    if target is not None:
        raise SyntaxError("arrow atoms are not allowed in path expressions")
    return sym(label)


#: Parsed queries the memo keeps; the least recently used goes first.
PARSE_MEMO_ENTRIES = 4096
#: Longer texts are parsed every time, so no client can pin large bodies
#: in the memo.  A parsed query takes 13-70 bytes per character of its
#: text, so a full memo holds about 3 MB of typical 60-character queries
#: and at most about 70 MB.
PARSE_MEMO_MAX_CHARS = 256


def parse_query(text: str, validate: bool = True) -> Query:
    """Parse a selection query.

    Successful parses of texts up to :data:`PARSE_MEMO_MAX_CHARS`
    characters are memoized by ``(text, validate)`` in a bounded LRU, so
    a repeated text returns the same :class:`Query` without re-lexing;
    errors are not memoized.  The query is shared between callers, which
    treat it as immutable.
    """
    if len(text) <= PARSE_MEMO_MAX_CHARS:
        return _parse_memoized(text, validate)
    return _parse(text, validate)


def _parse(text: str, validate: bool) -> Query:
    stream = TokenStream(text)
    stream.expect("IDENT", "SELECT")
    select: List[str] = []
    while True:
        if stream.match("OP", "$"):
            select.append("$" + str(stream.expect("IDENT").value))
        elif stream.current.kind == "IDENT" and stream.current.value != "WHERE":
            select.append(str(stream.advance().value))
        else:
            break
        if stream.match("OP", ",") is None:
            break
    stream.expect("IDENT", "WHERE")
    patterns: List[PatternDef] = []
    while not stream.at_end():
        patterns.append(_parse_pattern_def(stream))
        if stream.match("OP", ";") is None:
            break
    if not stream.at_end():
        token = stream.current
        raise SyntaxError(
            f"unexpected {token.kind} {token.value!r} at line {token.line}, "
            f"column {token.column}"
        )
    return Query(select, patterns, validate=validate)


_parse_memoized = functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)(_parse)


def _parse_pattern_def(stream: TokenStream) -> PatternDef:
    var = str(stream.expect("IDENT").value)
    stream.expect("OP", "=")
    if stream.match("OP", "{"):
        arms = _parse_arms(stream, "}")
        return PatternDef(var, PatternKind.UNORDERED, arms=arms)
    if stream.match("OP", "["):
        arms, partial = _parse_ordered_arms(stream)
        return PatternDef(var, PatternKind.ORDERED, arms=arms, partial_order=partial)
    if stream.match("OP", "$"):
        name = str(stream.expect("IDENT").value)
        return PatternDef(var, PatternKind.VALUE_VAR, value_var=name)
    token = stream.current
    if token.kind in ("STRING", "NUMBER"):
        stream.advance()
        return PatternDef(var, PatternKind.VALUE, value=token.value)
    raise SyntaxError(
        f"expected pattern body for {var!r}, found {token.kind} "
        f"{token.value!r} at line {token.line}, column {token.column}"
    )


def _parse_ordered_arms(stream):
    """Arms of an ordered pattern, optionally followed by a partial order:
    ``[a -> X, b -> Y ; 1 < 0]`` constrains arm 1's first edge before arm
    0's; with the suffix present, only the listed pairs are ordered."""
    arms: List[PatternArm] = []
    partial = None
    if stream.match("OP", "]"):
        return arms, partial
    while True:
        if stream.match("OP", ";"):
            partial = _parse_order_constraints(stream)
            stream.expect("OP", "]")
            return arms, partial
        if stream.match("OP", "$"):
            name = str(stream.expect("IDENT").value)
            path = LabelVar(name)
        else:
            path = parse_regex(stream, _path_atom, allow_arrow=False, allow_wildcard=True)
        stream.expect("ARROW")
        target = str(stream.expect("IDENT").value)
        arms.append(PatternArm(path, target))
        if stream.match("OP", "]"):
            return arms, partial
        if stream.current.kind == "OP" and stream.current.value == ";":
            continue  # the loop head consumes ';' and parses constraints
        stream.expect("OP", ",")


def _parse_order_constraints(stream):
    pairs = []
    if stream.current.kind == "OP" and stream.current.value == "]":
        return tuple(pairs)  # '[...;]': explicitly unconstrained
    while True:
        left = stream.expect("NUMBER")
        stream.expect("OP", "<")
        right = stream.expect("NUMBER")
        pairs.append((int(left.value), int(right.value)))
        if stream.match("OP", ",") is None:
            return tuple(pairs)


def _parse_arms(stream: TokenStream, closing: str) -> List[PatternArm]:
    arms: List[PatternArm] = []
    if stream.match("OP", closing):
        return arms
    while True:
        if stream.match("OP", "$"):
            name = str(stream.expect("IDENT").value)
            path = LabelVar(name)
        else:
            path = parse_regex(stream, _path_atom, allow_arrow=False, allow_wildcard=True)
        stream.expect("ARROW")
        target = str(stream.expect("IDENT").value)
        arms.append(PatternArm(path, target))
        if stream.match("OP", closing):
            return arms
        stream.expect("OP", ",")


def query_to_string(query: Query, indent: bool = True) -> str:
    """Render a query (parse round-trips)."""
    select = ", ".join(query.select)
    separator = ";\n      " if indent else "; "
    body = separator.join(_render_pattern(p) for p in query.patterns)
    space = "\n" if indent else " "
    select_part = f"SELECT {select}" if select else "SELECT"
    return f"{select_part}{space}WHERE {body}"


def _render_pattern(pattern: PatternDef) -> str:
    if pattern.kind is PatternKind.VALUE:
        return f"{pattern.var} = {_render_value(pattern.value)}"
    if pattern.kind is PatternKind.VALUE_VAR:
        return f"{pattern.var} = ${pattern.value_var}"
    open_, close = ("[", "]") if pattern.is_ordered else ("{", "}")
    arms = ", ".join(_render_arm(arm) for arm in pattern.arms)
    if pattern.partial_order is not None:
        constraints = ", ".join(f"{i} < {j}" for i, j in pattern.partial_order)
        suffix = f" ; {constraints}" if constraints else " ;"
        return f"{pattern.var} = {open_}{arms}{suffix}{close}"
    return f"{pattern.var} = {open_}{arms}{close}"


def _render_arm(arm: PatternArm) -> str:
    if arm.is_label_var:
        return f"${arm.path.name} -> {arm.target}"
    return f"{regex_to_string(arm.path)} -> {arm.target}"


def _render_value(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)
