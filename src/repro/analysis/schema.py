"""Document schemas: element content models for static analysis.

:class:`ElementSchema` began as a bare ``tag -> children``
reachability map with two hand-coded instances (xmark / dblp).  The
type checker (``analysis/types.py``) needs more —
content-model *cardinality* (which child positions may repeat, i.e. the
schema's mutable regions for insert effects), text content, a known
root, and a closed-world flag that licenses emptiness proofs — and it
needs to run against *any* document class, so this module promotes the
class and adds a small generic DTD parser
(:meth:`ElementSchema.from_dtd`).

The supported DTD subset is the classic element-declaration language:

``<!ELEMENT tag EMPTY | ANY | (#PCDATA) | (#PCDATA|a|b)* | regexp>``

where ``regexp`` combines element names with ``,`` (sequence), ``|``
(choice), parentheses, and the occurrence markers ``?``, ``*``, ``+``.
``<!ATTLIST>``/``<!ENTITY>``/``<!NOTATION>`` declarations and comments
are skipped; anything else is a :class:`SchemaError` (the CLI maps it to
a structured non-zero exit).  The regexp is *flattened* to the three
facts the analyses consume per tag: the set of child element tags, the
subset of those that may occur more than once (a ``*``/``+`` position —
the only places where a schema-valid stream update may insert
siblings), and whether character data is allowed.
"""

from __future__ import annotations

import os
import re
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, \
    Tuple, Union


class SchemaError(ValueError):
    """A DTD source could not be read or parsed."""


class ElementSchema:
    """DTD-like refinement: which elements can occur under which.

    Args:
        children: ``tag -> iterable of child tags``.  Tags absent from
            the map are *unknown*: the analyses stay conservative under
            them.  The transitive descendant-reachability closure is
            precomputed once.
        repeatable: optional ``tag -> child tags that may occur more
            than once`` under that tag (the schema's *mutable regions*
            for insert effects).  When omitted, every child is assumed
            repeatable — the conservative default for hand-built maps.
        text: optional iterable of tags whose content model allows
            character data (``#PCDATA``).  ``None`` means unknown:
            every tag may contain text.
        root: the document root tag, when known (a DTD's first declared
            element by convention).
        closed: when true, the map declares *every* element the document
            class can contain, so a tag outside it provably never occurs
            — the premise of static-emptiness proofs.  Hand-built maps
            default to the open-world reading.
    """

    def __init__(self, children: Mapping[str, Iterable[str]],
                 repeatable: Optional[Mapping[str, Iterable[str]]] = None,
                 text: Optional[Iterable[str]] = None,
                 root: Optional[str] = None,
                 closed: bool = False) -> None:
        self._children: Dict[str, FrozenSet[str]] = {
            tag: frozenset(kids) for tag, kids in children.items()}
        self._repeatable: Dict[str, FrozenSet[str]] = (
            {tag: self._children[tag] for tag in self._children}
            if repeatable is None
            else {tag: frozenset(kids) for tag, kids in repeatable.items()})
        self._text: Optional[FrozenSet[str]] = (
            None if text is None else frozenset(text))
        self.root: Optional[str] = root
        self.closed: bool = closed
        self._descendants: Dict[str, FrozenSet[str]] = {}
        for tag in self._children:
            self._descendants[tag] = self._close(tag)

    def _close(self, tag: str) -> FrozenSet[str]:
        seen: set = set()
        frontier = list(self._children.get(tag, ()))
        while frontier:
            t = frontier.pop()
            if t in seen:
                continue
            seen.add(t)
            frontier.extend(self._children.get(t, ()))
        return frozenset(seen)

    # -- reachability --------------------------------------------------------

    def children(self, tag: str) -> Optional[FrozenSet[str]]:
        return self._children.get(tag)

    def descendants(self, tag: str) -> Optional[FrozenSet[str]]:
        return self._descendants.get(tag)

    @property
    def tags(self) -> FrozenSet[str]:
        """Every declared element tag."""
        return frozenset(self._children)

    def children_map(self) -> Dict[str, FrozenSet[str]]:
        """The raw ``tag -> children`` map (for round-trip fixtures)."""
        return dict(self._children)

    # -- content-model cardinality / text ------------------------------------

    def is_repeatable(self, parent: str, child: str) -> bool:
        """May ``child`` occur more than once under ``parent``?

        Unknown parents answer ``True`` (conservative: an insert there
        cannot be ruled out).
        """
        if parent not in self._children:
            return True
        return child in self._repeatable.get(parent, frozenset())

    def repeatable_under(self, parent: str) -> Optional[FrozenSet[str]]:
        if parent not in self._children:
            return None
        return self._repeatable.get(parent, frozenset())

    def rigid_under(self, parent: str) -> FrozenSet[str]:
        """Children of ``parent`` whose count the content model fixes."""
        kids = self._children.get(parent)
        if kids is None:
            return frozenset()
        return kids - self._repeatable.get(parent, frozenset())

    def rigid_parents(self, child: str) -> FrozenSet[str]:
        """Declared parents under which ``child`` may *not* repeat."""
        return frozenset(p for p, kids in self._children.items()
                         if child in kids and not self.is_repeatable(p, child))

    def allows_text(self, tag: str) -> bool:
        """May ``tag`` contain character data?  Unknown tags: yes."""
        if self._text is None or tag not in self._children:
            return True
        return tag in self._text

    # -- DTD parsing ---------------------------------------------------------

    @classmethod
    def from_dtd(cls, source: Union[str, "os.PathLike[str]"]
                 ) -> "ElementSchema":
        """Parse a DTD file (or inline DTD text) into a closed schema.

        ``source`` is treated as a path when it names an existing file
        or ends in ``.dtd``; otherwise it is parsed as DTD text.  The
        first declared element becomes the schema root.
        """
        text = _read_dtd_source(source)
        decls = _parse_dtd(text)
        children = {tag: kids for tag, (kids, _, _) in decls.items()}
        repeatable = {tag: rep for tag, (_, rep, _) in decls.items()}
        has_text = frozenset(tag for tag, (_, _, pcdata) in decls.items()
                             if pcdata)
        root = next(iter(decls)) if decls else None
        return cls(children, repeatable=repeatable, text=has_text,
                   root=root, closed=True)


def _read_dtd_source(source: Union[str, "os.PathLike[str]"]) -> str:
    path: Optional[str] = None
    if isinstance(source, str):
        if os.path.exists(source) or source.endswith(".dtd"):
            path = source
    else:
        path = os.fspath(source)
    if path is None:
        return str(source)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError("cannot read DTD {!r}: {}".format(path, exc))


_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
_DECL = re.compile(r"<!([A-Z]+)\s+(.*?)>", re.DOTALL)
_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_.:-]*")


def _parse_dtd(text: str
               ) -> "Dict[str, Tuple[Tuple[str, ...], FrozenSet[str], bool]]":
    """``tag -> (children, repeatable children, allows #PCDATA)``."""
    stripped = _COMMENT.sub(" ", text)
    decls: Dict[str, Tuple[Tuple[str, ...], FrozenSet[str], bool]] = {}
    pos = 0
    for match in _DECL.finditer(stripped):
        if stripped[pos:match.start()].strip():
            raise SchemaError("unexpected DTD content: {!r}".format(
                stripped[pos:match.start()].strip()[:60]))
        pos = match.end()
        keyword, body = match.group(1), match.group(2).strip()
        if keyword in ("ATTLIST", "ENTITY", "NOTATION"):
            continue
        if keyword != "ELEMENT":
            raise SchemaError(
                "unsupported declaration <!{} ...>".format(keyword))
        name_match = _NAME.match(body)
        if name_match is None:
            raise SchemaError(
                "malformed <!ELEMENT ...>: {!r}".format(body[:60]))
        tag = name_match.group(0)
        if tag in decls:
            raise SchemaError("duplicate <!ELEMENT {}>".format(tag))
        model = body[name_match.end():].strip()
        if not model:
            raise SchemaError("<!ELEMENT {}> has no content model".format(tag))
        decls[tag] = _parse_content_model(tag, model)
    if stripped[pos:].strip():
        raise SchemaError("unexpected DTD content: {!r}".format(
            stripped[pos:].strip()[:60]))
    if not decls:
        raise SchemaError("no <!ELEMENT ...> declarations found")
    return decls


def _parse_content_model(tag: str, model: str
                         ) -> Tuple[Tuple[str, ...], FrozenSet[str], bool]:
    if model == "EMPTY":
        return (), frozenset(), False
    if model == "ANY":
        raise SchemaError(
            "<!ELEMENT {} ANY> is unsupported: ANY defeats the closed-"
            "world reachability the analyses depend on".format(tag))
    tokens = _tokenize_model(tag, model)
    parser = _ModelParser(tag, tokens)
    children, repeated, pcdata = parser.parse()
    return tuple(children), frozenset(repeated), pcdata


_MODEL_TOKEN = re.compile(r"\s*(#PCDATA|[(),|?*+]|[A-Za-z_:][A-Za-z0-9_.:-]*)")


def _tokenize_model(tag: str, model: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(model):
        match = _MODEL_TOKEN.match(model, pos)
        if match is None:
            raise SchemaError("<!ELEMENT {}>: cannot tokenize {!r}".format(
                tag, model[pos:pos + 20]))
        token = match.group(1)
        if token:
            tokens.append(token)
        pos = match.end()
    return tokens


class _ModelParser:
    """Recursive-descent content-model parser, flattening as it goes.

    Returns, for the whole model, the ordered child-name list, the set
    of children that may occur more than once, and the #PCDATA flag.
    A child counts as repeatable when it (or any enclosing group) is
    starred (``*``/``+``) or when the model mentions it twice.
    """

    def __init__(self, tag: str, tokens: List[str]) -> None:
        self.tag = tag
        self.tokens = tokens
        self.pos = 0
        self.children: List[str] = []
        self.counts: Dict[str, int] = {}
        self.repeated: set = set()
        self.pcdata = False

    def _fail(self, why: str) -> "SchemaError":
        return SchemaError("<!ELEMENT {}>: {}".format(self.tag, why))

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise self._fail("unexpected end of content model")
        self.pos += 1
        return token

    def parse(self) -> Tuple[List[str], set, bool]:
        self._particle(repeat=False)
        if self._peek() is not None:
            raise self._fail("trailing tokens {!r}".format(
                self.tokens[self.pos:]))
        for name, count in self.counts.items():
            if count > 1:
                self.repeated.add(name)
        return self.children, self.repeated, self.pcdata

    def _particle(self, repeat: bool) -> None:
        token = self._next()
        if token == "(":
            self._group(repeat)
        elif token == "#PCDATA":
            self.pcdata = True
        elif _NAME.fullmatch(token):
            self._record(token, self._occurrence(repeat))
        else:
            raise self._fail("unexpected token {!r}".format(token))

    def _group(self, repeat: bool) -> None:
        # Members first; the group's own ?/*/+ follows the ")".
        members_start = len(self.children)
        self._particle(repeat)
        while self._peek() in (",", "|"):
            self._next()
            self._particle(repeat)
        if self._next() != ")":
            raise self._fail("expected ')'")
        if self._occurrence(repeat):
            for name in self.children[members_start:]:
                self.repeated.add(name)

    def _occurrence(self, repeat: bool) -> bool:
        """Consume a ?/*/+ marker; return 'may occur more than once'."""
        token = self._peek()
        if token in ("?", "*", "+"):
            self._next()
            return repeat or token in ("*", "+")
        return repeat

    def _record(self, name: str, repeated: bool) -> None:
        if name not in self.counts:
            self.children.append(name)
        self.counts[name] = self.counts.get(name, 0) + 1
        if repeated:
            self.repeated.add(name)


def known_schema(name: "Optional[Union[str, ElementSchema]]"
                 ) -> Optional[ElementSchema]:
    """Resolve a schema argument.

    Accepts ``None`` / an :class:`ElementSchema` (passed through), the
    workload names ``"xmark"`` / ``"dblp"``, or a path to a ``.dtd``
    file (parsed with :meth:`ElementSchema.from_dtd`).
    """
    if name is None or isinstance(name, ElementSchema):
        return name
    if name == "xmark":
        from ..data.xmark import document_schema
    elif name == "dblp":
        from ..data.dblp import document_schema
    elif name.endswith(".dtd") or os.path.sep in name:
        return ElementSchema.from_dtd(name)
    else:
        raise ValueError("unknown schema {!r} (expected 'xmark', 'dblp', "
                         "a .dtd path, or an ElementSchema)".format(name))
    return document_schema()
