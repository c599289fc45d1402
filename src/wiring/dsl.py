"""The ``.wd`` script language.

A script is an ordered sequence of declarations, resolved as they are
parsed (declaration before use, names unique per kind; ``rel`` and
``const`` share one name space, as do ``query`` and ``union``):

* ``type NAME = {v, ...};`` or ``type NAME = range LO..HI;``; a text value
  must read back from a CSV cell unchanged, so it is nonempty, has no comma,
  line break or surrounding space, and does not look like an integer
* ``star NAME(wire:TYPE, ...);``
* ``rel NAME : STAR from "file.csv";`` CSV-backed relation, loaded later
* ``const NAME : TYPE = literal;`` a one-tuple relation on wire ``value``
* ``diagram NAME(STAR, ...) -> STAR { cable c:TYPE; solder inner1.w -> c;
  solder out.w -> c; }`` with ``[S, ... => T]`` allowed as the codomain
* ``query NAME = SELECT a.x, ... FROM star alias, ... WHERE a.x = b.y AND
  a.z = 'lit';``
* ``union NAME = q1 | q2;`` disjunction of named results of one shape
* ``setup NAME = DIAGRAM(rel, ...);`` a recursion setup; the diagram's
  codomain must be ``[Z => Z]``

The query keywords ``select``, ``from``, ``where`` and ``and`` (in any case)
cannot name a wire, rel or const, which a query could then not refer to.
Comments run from ``#`` to end of line.  Wire and cable identifiers may
carry trailing primes (``A'``).  The lexer is one ``findall`` of a pattern
with one capture group: each match skips the whitespace and comments before
its token, a token is its text, and the end of the text is the empty
string.  The parser is a cursor over the tokens that reads a token's kind
from its text, a keyword in any case, and keeps token indices; only an
error finds its token's offset, by lexing again from where the parser's
tokens were lexed from: the start of the text, or of one declaration when
the text is read by parts.

:func:`parse_script` parses the whole text, or with ``reads``, a mapping
from names to keywords, only the declarations of each name made with one of
its keywords and, until no more is added, those that the chosen ones name.
A chosen declaration's own name chooses the declarations of that name in
its name space (``query`` and ``union``, ``rel`` and ``const``, else its
keyword alone), and every other identifier inside it (an alias, attribute,
wire or cable among them) chooses every declaration of that name, of any
kind.  A declaration looks its own name up only in its name space, and
every other name it looks up is an identifier of its own, so the chosen
declarations, parsed in text order, each give what they give in the whole
text, or their error there; an error in a declaration that is not chosen is
not raised.  ``wd check`` passes no names, and the other commands pass
those they read, each with the keywords they look it up by (see
:mod:`wiring.cli`).  A cheap pass, :func:`split_declarations`, finds where
each declaration starts and ends, with its keyword and name, by skipping
strings, comments and primes by the lexer's rules but without making
tokens; each chosen declaration's tokens go through a parser of their own,
in text order, all adding to one script, and a text it cannot split is
parsed whole.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import islice
from operator import getitem
from typing import Callable, Collection, Mapping, NamedTuple, TypeVar

from .closed import HomStar, internal_hom
from .csvio import survives_csv
from .errors import ScriptError, WiringError
from .query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    QueryError,
    const_relation,
    result_star,
)
from .relations import Relation
from .stars import Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

# Lexical rules stated once: strings, comments and identifiers for the lexer
# and the split pass, punctuation for the lexer and its one-character tokens.
_STRING = r"'[^'\n]*'|" + r'"[^"\n]*"'
_COMMENT = r"\#[^\n]*"
_WORD_CHAR = "[A-Za-z0-9_]"
_WORD = f"[A-Za-z_]{_WORD_CHAR}*"  # an identifier before its primes, as in ``A'``
_PUNCT = "(){}[],:;.=|"

# Each match is one token, the one group: the whitespace and comments before
# it are skipped inside the same match.  Some alternative always matches
# after the skip (the empty string at the end, and any other character
# alone), so the skip group is never backtracked into.
_TOKEN_RE = re.compile(
    rf"""
    (?:\s+|{_COMMENT})*
    ( -> | => | \.\. | -?[0-9]+ | {_WORD}'* | {_STRING} | [{re.escape(_PUNCT)}] | \Z | . )
    """,
    re.VERBOSE,
)
# a token of one character is one of these, or a character no token starts with
_ONE_CHARACTER_TOKENS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_" + _PUNCT
)
# the names that messages give the tokens of more than one character
_TOKEN_NAMES = {"->": "arrow", "=>": "darrow", "..": "range"}

_Item = TypeVar("_Item")

# reserved inside a query: never read as an alias, attribute or predicate,
# so no wire, rel or const may be declared under one of these names
_QUERY_KEYWORDS = frozenset({"select", "from", "where", "and"})

# A range type is stored value by value, in a tuple and a set, at about 80
# bytes a value; a wider range is refused before anything is allocated, so a
# typo in a bound gives an error instead of exhausting memory.
MAX_RANGE_VALUES = 1_000_000


# A token's kind, read from its first characters; the end of the text is "".
def _is_ident(tok: str) -> bool:
    return tok[:1].isidentifier()


def _is_int(tok: str) -> bool:
    return tok.lstrip("-")[:1].isdigit()


def _is_string(tok: str) -> bool:
    return tok[:1] in ("'", '"')


def _is_literal(tok: str) -> bool:
    return _is_int(tok) or _is_string(tok) or _is_ident(tok)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _token_position(text: str, start: int, index: int) -> tuple[int, int]:
    """The line and column of token ``index`` of ``text`` lexed from ``start``."""
    match = next(islice(_TOKEN_RE.finditer(text, start), index, None))
    return _position(text, match.start(1))


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[str]:
    """The tokens of ``text[start:end]``, ending with ``""`` at ``end``."""
    tokens = _TOKEN_RE.findall(text, start, len(text) if end is None else end)
    del tokens[tokens.index("") + 1 :]  # after trailing whitespace the end matches twice
    bad = [tok for tok in set(tokens) - _ONE_CHARACTER_TOKENS if len(tok) == 1]
    if bad:
        index = min(map(tokens.index, bad))
        raise ScriptError(
            f"unexpected character {tokens[index]!r}", *_token_position(text, start, index)
        )
    return tokens


# --------------------------------------------------------------------------
# declarations that are more than the object they declare

class RelDecl(NamedTuple):
    name: str
    path: str
    star: TypedStar


class DiagramDecl(NamedTuple):
    name: str
    typed: TypedWiringDiagram
    hom: HomStar | None


class UnionDecl(NamedTuple):
    name: str
    parts: tuple[str, ...]


class SetupDecl(NamedTuple):
    name: str
    diagram_name: str
    rel_names: tuple[str, ...]
    z: TypedStar


class Script:
    """A name-resolved script: one dict per kind from each name to its
    object, ``shapes``, the typed star of each query and union result, and
    ``decls``, the declared objects in order."""

    def __init__(self):
        self.decls: tuple = ()
        self.domains: dict[str, ValueDomain] = {}
        self.stars: dict[str, TypedStar] = {}
        self.relations: dict[str, RelDecl] = {}
        self.consts: dict[str, Relation] = {}
        self.diagrams: dict[str, DiagramDecl] = {}
        self.queries: dict[str, ConjunctiveQuery] = {}
        self.unions: dict[str, UnionDecl] = {}
        self.setups: dict[str, SetupDecl] = {}
        self.shapes: dict[str, TypedStar] = {}


class _Parser:
    def __init__(
        self, text: str, tokens: list[str], start: int = 0, script: Script | None = None
    ):
        """A parser of ``tokens``, lexed from offset ``start`` of ``text``,
        that adds what it declares to ``script``."""
        self.text = text
        self.tokens = tokens
        self.start = start
        self.pos = 0
        self.name_at = 0  # where the declaration being parsed has its name
        self.script = Script() if script is None else script

    # -- the cursor: every token is read by ``at``, ``expect`` or ``take``

    def fail(self, message: str, at: int | None = None) -> ScriptError:
        """The error ``message`` at token ``at``, by default the next token."""
        at = self.pos if at is None else at
        return ScriptError(message, *_token_position(self.text, self.start, at))

    def unexpected(self, want: str) -> ScriptError:
        return self.fail(f"expected {want}, found {self.tokens[self.pos] or 'end of file'!r}")

    def at(self, text: str) -> bool:
        """Whether the next token is ``text``, a keyword in any case or
        punctuation exactly, which is then read."""
        if self.tokens[self.pos].lower() != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        if not self.at(text):
            raise self.unexpected(repr(_TOKEN_NAMES.get(text, text)))

    def take(
        self, is_kind: Callable[[str], bool], want: str, reserved: Collection[str] = ()
    ) -> str:
        """The next token, which ``is_kind`` must accept and which, in any
        case, may not be one of ``reserved``."""
        tok = self.tokens[self.pos]
        if not is_kind(tok) or tok.lower() in reserved:
            raise self.unexpected(want)
        self.pos += 1
        return tok

    def literal(self) -> Value:
        tok = self.take(_is_literal, "a literal value")
        if _is_int(tok):
            return int(tok)
        return tok[1:-1] if _is_string(tok) else tok

    def items(
        self, item: Callable[[], _Item], sep: str = ",", close: str | None = None
    ) -> list[_Item]:
        """``item``s separated by ``sep``: with ``close``, any number of them
        up to ``close``, which is read; without, one or more, for as long as
        ``sep`` follows."""
        if close is None:
            found = [item()]
            while self.at(sep):
                found.append(item())
            return found
        found = []
        while not self.at(close):
            if found:
                self.expect(sep)
            found.append(item())
        return found

    # -- name resolution helpers

    def new_name(self, what: str, kind: str, *tables: dict, reserved: Collection[str] = ()) -> str:
        """The name being declared, which none of ``tables`` may hold."""
        name = self.take(_is_ident, what, reserved)
        if any(name in table for table in tables):
            raise self.fail(f"duplicate {kind} name {name!r}", self.pos - 1)
        return name

    def ref(self, what: str, kind: str, *tables: dict) -> str:
        """A name that one of ``tables`` declares."""
        name = self.take(_is_ident, what)
        if not any(name in table for table in tables):
            raise self.fail(f"unknown {kind} {name!r}", self.pos - 1)
        return name

    def type_ref(self) -> str:
        return self.ref("type name", "type", self.script.domains)

    def star_ref(self) -> str:
        return self.ref("star name", "star", self.script.stars)

    # -- declarations

    def parse(self) -> list:
        """The objects of the declarations up to the end of the tokens."""
        decls = []
        while tok := self.tokens[self.pos]:
            if not _is_ident(tok):
                raise self.fail("expected a declaration")
            handler = _HANDLERS.get(tok.lower())
            if handler is None:
                raise self.fail(f"unknown declaration {tok!r}")
            self.name_at = self.pos = self.pos + 1
            decls.append(handler(self))
        return decls

    def parse_type(self) -> ValueDomain:
        name = self.new_name("type name", "type", self.script.domains)
        self.expect("=")
        if self.at("range"):
            lo_at = self.pos
            lo = int(self.take(_is_int, "'int'"))
            self.expect("..")
            hi = int(self.take(_is_int, "'int'"))
            if hi < lo:
                raise self.fail(f"empty range {lo}..{hi}", lo_at)
            if hi - lo + 1 > MAX_RANGE_VALUES:
                raise self.fail(
                    f"range {lo}..{hi} has {hi - lo + 1} values, bound is {MAX_RANGE_VALUES}",
                    lo_at,
                )
            values = range(lo, hi + 1)
        else:
            seen: set[Value] = set()

            def value() -> Value:
                at = self.pos
                v = self.literal()
                if not survives_csv(v):
                    raise self.fail(
                        f"type {name!r}: value {v!r} would not read back from CSV unchanged",
                        at,
                    )
                if v in seen:
                    raise self.fail(f"type {name!r} repeats a value", at)
                seen.add(v)
                return v

            self.expect("{")
            values = self.items(value, close="}")
        self.expect(";")
        domain = ValueDomain(name, tuple(values))
        self.script.domains[name] = domain
        return domain

    def _wire(self) -> tuple[str, str]:
        wire = self._query_name("wire name")
        self.expect(":")
        return wire, self.type_ref()

    def parse_star(self) -> TypedStar:
        name = self.new_name("star name", "star", self.script.stars)
        self.expect("(")
        wires = self.items(self._wire, close=")")
        self.expect(";")
        try:
            tstar = TypedStar(
                Star(w for w, _t in wires),
                {w: self.script.domains[t] for w, t in wires},
            )
        except WiringError as exc:
            raise self.fail(str(exc), self.name_at) from exc
        self.script.stars[name] = tstar
        return tstar

    def _predicate_name(self, what: str) -> str:
        """A new rel or const name, which a query's FROM must be able to name."""
        return self.new_name(
            what, "rel/const", self.script.relations, self.script.consts, reserved=_QUERY_KEYWORDS
        )

    def parse_rel(self) -> RelDecl:
        name = self._predicate_name("relation name")
        self.expect(":")
        star_name = self.star_ref()
        self.expect("from")
        path = self.take(_is_string, "'string'")[1:-1]
        self.expect(";")
        decl = RelDecl(name, path, self.script.stars[star_name])
        self.script.relations[name] = decl
        return decl

    def parse_const(self) -> Relation:
        name = self._predicate_name("constant name")
        self.expect(":")
        type_name = self.type_ref()
        dom = self.script.domains[type_name]
        self.expect("=")
        value_at = self.pos
        value = self.literal()
        self.expect(";")
        if value not in dom:
            raise self.fail(f"constant {value!r} is outside type {type_name!r}", value_at)
        rel = const_relation(value, dom)
        self.script.consts[name] = rel
        return rel

    def _parse_codomain(self) -> tuple[TypedStar, HomStar | None]:
        if self.at("["):
            arg_names = self.items(self.star_ref)
            self.expect("=>")
            ret_name = self.star_ref()
            self.expect("]")
            stars = self.script.stars
            hom = internal_hom([stars[n] for n in arg_names], stars[ret_name])
            return hom.star, hom
        return self.script.stars[self.star_ref()], None

    def parse_diagram(self) -> DiagramDecl:
        name = self.new_name("diagram name", "diagram", self.script.diagrams)
        self.expect("(")
        inner_names = self.items(self.star_ref, close=")")
        self.expect("->")
        outer, hom = self._parse_codomain()
        self.expect("{")

        inner = tuple(self.script.stars[n] for n in inner_names)
        cable_types: dict[str, ValueDomain] = {}
        inner_map: dict = {}
        outer_map: dict = {}
        while not self.at("}"):
            if self.at("cable"):
                cable = self.take(_is_ident, "cable name")
                if cable in cable_types:
                    raise self.fail(f"duplicate cable {cable!r}", self.pos - 1)
                self.expect(":")
                cable_types[cable] = self.script.domains[self.type_ref()]
                self.expect(";")
            elif self.at("solder"):
                head_at = self.pos
                head = self.take(_is_ident, "solder endpoint")
                parts = [head]
                while self.at("."):
                    parts.append(self.take(_is_ident, "wire name"))
                if len(parts) < 2:
                    raise self.fail("solder endpoint needs a wire, like inner1.w or out.w")
                wire = ".".join(parts[1:])
                self.expect("->")
                cable = self.ref("cable name", "cable", cable_types)
                self.expect(";")
                if head == "out":
                    if wire not in outer.star:
                        raise self.fail(f"outer star has no wire {wire!r}", head_at)
                    endpoints, key = outer_map, wire
                else:
                    m = re.fullmatch(r"inner([0-9]+)", head)
                    if m is None:
                        raise self.fail(
                            f"endpoint must start with 'out' or 'inner<k>', got {head!r}",
                            head_at,
                        )
                    index = int(m.group(1)) - 1
                    if not 0 <= index < len(inner):
                        raise self.fail(
                            f"no inner star {head!r} (diagram has {len(inner)})", head_at
                        )
                    if wire not in inner[index].star:
                        raise self.fail(
                            f"inner star {index + 1} has no wire {wire!r}", head_at
                        )
                    endpoints, key = inner_map, (index, wire)
                if key in endpoints:
                    raise self.fail(
                        f"{head}.{wire} is already soldered to cable {endpoints[key]!r}",
                        head_at,
                    )
                endpoints[key] = cable
            else:
                raise self.fail("expected 'cable' or 'solder'")

        try:
            wd = WiringDiagram(
                inner=tuple(t.star for t in inner),
                outer=outer.star,
                cables=tuple(cable_types),
                inner_map=inner_map,
                outer_map=outer_map,
            )
            typed = TypedWiringDiagram(wd, cable_types)
        except WiringError as exc:
            raise self.fail(f"diagram {name!r}: {exc}", self.name_at) from exc
        # A wire's type is its cable's; the star declarations must agree.
        soldered = [
            (f"wire {w!r} of inner star {i}", inner[i].domain(w), c)
            for (i, w), c in inner_map.items()
        ]
        soldered += [(f"outer wire {w!r}", outer.domain(w), c) for w, c in outer_map.items()]
        for wire, declared, c in soldered:
            if declared != cable_types[c]:
                raise self.fail(
                    f"diagram {name!r}: {wire} has domain {declared.name!r} "
                    f"but its cable {c!r} has {cable_types[c].name!r}",
                    self.name_at,
                )
        decl = DiagramDecl(name, typed, hom)
        self.script.diagrams[name] = decl
        return decl

    def _query_name(self, what: str) -> str:
        """An identifier a query reads, which may not be a query keyword."""
        return self.take(_is_ident, what, _QUERY_KEYWORDS)

    def _attr_ref(self) -> AttrRef:
        alias = self._query_name("alias")
        self.expect(".")
        return AttrRef(alias, self._query_name("attribute"))

    def _table(self) -> tuple[str, str]:
        return self._query_name("predicate name"), self._query_name("alias")

    def _condition(self) -> Condition:
        left = self._attr_ref()
        self.expect("=")
        if _is_ident(self.tokens[self.pos]) and self.tokens[self.pos + 1] == ".":
            return Condition(left, right=self._attr_ref())
        return Condition(left, literal=self.literal())

    def parse_query(self) -> ConjunctiveQuery:
        name = self.new_name("query name", "query", self.script.queries, self.script.unions)
        self.expect("=")
        query = self.parse_select()
        self.expect(";")
        try:
            self.script.shapes[name] = result_star(query, self.script)
        except ScriptError as exc:
            raise self.fail(f"query {name!r}: {exc}", self.name_at) from exc
        self.script.queries[name] = query
        return query

    def parse_select(self) -> ConjunctiveQuery:
        self.expect("select")
        select = self.items(self._attr_ref)
        self.expect("from")
        tables = self.items(self._table)
        conditions = self.items(self._condition, sep="and") if self.at("where") else []
        return ConjunctiveQuery(tuple(select), tuple(tables), tuple(conditions))

    def parse_union(self) -> UnionDecl:
        name = self.new_name("union name", "union", self.script.unions, self.script.queries)
        self.expect("=")
        first_part = self.pos
        parts = tuple(self.items(lambda: self.take(_is_ident, "result name"), sep="|"))
        self.expect(";")
        if len(parts) < 2:
            raise self.fail("a union needs at least two results", self.name_at)
        for part in parts:
            if part not in self.script.shapes:
                raise self.fail(f"union {name!r} references unknown result {part!r}", self.name_at)
        first = self.script.shapes[parts[0]]
        for k, part in enumerate(parts):
            shape = self.script.shapes[part]
            if shape != first:
                raise self.fail(
                    f"union {name!r}: {part!r} gives {_columns(shape)} "
                    f"but {parts[0]!r} gives {_columns(first)}",
                    first_part + 2 * k,  # the parts and the bars between them
                )
        self.script.shapes[name] = first
        decl = UnionDecl(name, parts)
        self.script.unions[name] = decl
        return decl

    def parse_setup(self) -> SetupDecl:
        name = self.new_name("setup name", "setup", self.script.setups)
        self.expect("=")
        diagram_name = self.ref("diagram name", "diagram", self.script.diagrams)
        decl = self.script.diagrams[diagram_name]
        self.expect("(")
        relations, consts = self.script.relations, self.script.consts
        rel_names = self.items(
            lambda: self.ref("relation name", "relation", relations, consts), close=")"
        )
        self.expect(";")

        hom = decl.hom
        if hom is None or len(hom.args) != 1 or hom.args[0] != hom.ret:
            raise self.fail(f"setup {name!r}: diagram codomain must be [Z => Z]", self.name_at)
        if len(rel_names) != decl.typed.arity:
            raise self.fail(
                f"setup {name!r}: diagram has {decl.typed.arity} inner stars, "
                f"got {len(rel_names)} relations",
                self.name_at,
            )
        for i, rel_name in enumerate(rel_names):
            rel = relations[rel_name] if rel_name in relations else consts[rel_name]
            if rel.star != decl.typed.inner[i]:
                raise self.fail(
                    f"setup {name!r}: relation {rel_name!r} does not match "
                    f"inner star {i + 1}",
                    self.name_at,
                )
        setup = SetupDecl(name, diagram_name, tuple(rel_names), hom.ret)
        self.script.setups[name] = setup
        return setup


class _Places(_Parser):
    """A parser whose queries hold, for each name and literal, its token
    index."""

    def _query_name(self, what: str) -> int:
        super()._query_name(what)
        return self.pos - 1

    def literal(self) -> int:
        super().literal()
        return self.pos - 1


def _columns(star: TypedStar) -> str:
    return "(" + ", ".join(f"{w}:{star.domain(w).name}" for w in star.wires) + ")"


_HANDLERS = {
    "type": _Parser.parse_type,
    "star": _Parser.parse_star,
    "rel": _Parser.parse_rel,
    "const": _Parser.parse_const,
    "diagram": _Parser.parse_diagram,
    "query": _Parser.parse_query,
    "union": _Parser.parse_union,
    "setup": _Parser.parse_setup,
}
# the name space each keyword declares a name in
_NAME_SPACES = {**{keyword: keyword for keyword in _HANDLERS}, "const": "rel", "union": "query"}


# --------------------------------------------------------------------------
# choosing the declarations a caller reads

# One match per ``;``, ``{`` or ``}`` token, and a last one at the end of
# the text.  A match skips what the lexer reads as strings and comments, and
# a run of other characters at a time; a run that ends where an identifier
# meets a quote stops before that identifier, so the identifier takes the
# quote as a prime, as in ``A'``, and no string starts there.  Every
# character but the three is skipped by some alternative, so the skip is
# never backtracked into.
_RUN = r"""[^;{}'"\#]"""  # a character that no mark, string or comment starts with
_SPLIT_RE = re.compile(
    rf"""
    (?:
      {_RUN}+(?!{_WORD_CHAR}*')
    | {_RUN}*{_WORD}'+
    | {_RUN}+
    | {_STRING} | {_COMMENT} | ['"]
    )*
    ([;{{}}]|\Z)
    """,
    re.VERBOSE,
)


class Declaration(NamedTuple):
    keyword: str  # in lower case
    name: str  # the text of the token after the keyword
    start: int  # offset of the keyword
    end: int  # offset just past the declaration's last token


def split_declarations(text: str) -> list[Declaration] | None:
    """Where each declaration of ``text`` starts and ends, found without
    tokenizing it, or ``None`` when the text does not split into
    declarations.

    A declaration starts with one of the eight keywords and ends with its
    first ``;`` outside braces, or a ``diagram`` with the ``}`` that closes
    its body; braces do not nest.  A script that parses splits this way, so
    a text that does not split has an error outside any one declaration.
    """
    decls: list[Declaration] = []
    match, split = _TOKEN_RE.match, _SPLIT_RE.match
    head, pos = None, 0
    while True:
        m = split(text, pos)
        pos = m.end()
        if head is None:  # ``m`` starts a declaration
            head = match(text, m.start())
            keyword = head[1].lower()
            if not keyword:
                return decls
            if keyword not in _HANDLERS:
                return None
            braced = False
        mark = m[1]
        if mark == "{":
            if braced:
                return None
            braced = True
            continue
        if mark == "}":
            if not braced:
                return None
            braced = False
            if keyword != "diagram":
                continue
        elif mark != ";":  # the text ends inside the declaration
            return None
        elif braced:
            continue
        decls.append(Declaration(keyword, match(text, head.end())[1], head.start(1), pos))
        head = None


def parse_script(text: str, reads: Mapping[str, Collection[str]] | None = None) -> Script:
    """Parse and resolve a script, or with ``reads`` the declarations that
    the module docstring names; raise :class:`ScriptError` with position
    information on the first problem.  A second declaration of a chosen
    name raises the duplicate name error, and ``decls`` holds the chosen
    declarations' objects."""
    decls = None if reads is None else split_declarations(text)
    script = Script()
    if decls is None:
        script.decls = tuple(_Parser(text, tokenize(text), 0, script).parse())
        return script
    named: dict[str, list[int]] = {}
    for index, decl in enumerate(decls):
        named.setdefault(decl.name, []).append(index)
    pending = [i for name in reads for i in named.get(name, ()) if decls[i].keyword in reads[name]]
    seen: set[str] = set()  # an identifier enters once, so it adds its declarations once
    chosen: dict[int, list[str]] = {}
    failed: dict[int, ScriptError] = {}
    while pending:
        index = pending.pop()
        if index in chosen or index in failed:  # pending twice: read, and named in one read
            continue
        keyword, name, start, end = decls[index]
        try:
            chosen[index] = found = tokenize(text, start, end)
        except ScriptError as exc:
            failed[index] = exc
            continue
        space = _NAME_SPACES[keyword]
        pending += [i for i in named[name] if _NAME_SPACES[decls[i].keyword] == space]
        for tok in found[:1] + found[2:]:  # every token but the name
            if tok not in seen and _is_ident(tok):
                seen.add(tok)
                pending += named.get(tok, ())
    if failed:  # as in the whole text, a bad character comes before parse errors
        raise failed[min(failed)]
    script.decls = tuple(
        decl
        for index in sorted(chosen)
        for decl in _Parser(text, chosen[index], decls[index].start, script).parse()
    )
    return script


def parse_select_text(text: str) -> ConjunctiveQuery:
    """Parse a standalone SELECT expression, with an optional final ``;``,
    without resolving its names."""
    parser = _Parser(text, tokenize(text))
    query = parser.parse_select()
    parser.at(";")
    if parser.tokens[parser.pos]:
        raise parser.fail("unexpected trailing input after query")
    return query


def resolve_query_text(text: str, query: ConjunctiveQuery, script: Script) -> ConjunctiveQuery:
    """``query``, parsed from ``text`` by :func:`parse_select_text`, once it
    resolves against ``script``.  An error is placed at the name or literal
    at fault, found by parsing ``text`` again for token indices, or else at
    the ``SELECT``."""
    try:
        result_star(query, script)
    except QueryError as exc:
        parser = _Places(text, tokenize(text))
        at = reduce(getitem, exc.at, parser.parse_select()) if exc.at else 0
        raise parser.fail(str(exc), at) from exc
    return query
