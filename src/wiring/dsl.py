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
carry trailing primes (``A'``).  The lexer makes one regular-expression
match per token: each match skips the whitespace and comments before its
token, and the last match is the ``eof`` token at the end of the text.
Tokens carry their offset in the text; a line and column are computed only
when an error is raised.

:func:`parse_script` parses the whole text, or with ``reads`` only the
declarations of those names and, until no more is added, every declaration
whose name is an identifier inside one already chosen (an alias,
attribute, wire or cable among them).  Every name a declaration looks up
is an identifier of its own, so the chosen declarations, parsed in text
order, each give what they give in the whole text, or their error there;
an error in a declaration that is not chosen is not raised.  ``wd check``
passes no names, and the other commands pass those they read (see
:mod:`wiring.cli`).  A cheap pass, :func:`split_declarations`, finds where
each declaration starts and ends, with its keyword and name, by skipping
strings, comments and primes as the lexer does but without making tokens;
the chosen declarations' tokens, in text order, go through the one parse
loop, and a text it cannot split is parsed whole.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, TypeVar

from .closed import HomStar, internal_hom
from .csvio import survives_csv
from .errors import ScriptError, WiringError
from .query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    const_relation,
    result_star,
)
from .relations import Relation
from .stars import Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

# Each match is one token: the whitespace and comments before it are skipped
# inside the same match.  Some alternative always matches after the skip
# (``eof`` at the end, ``bad`` on any other character), so the skip group is
# never backtracked into.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<arrow>->)
    | (?P<darrow>=>)
    | (?P<range>\.\.)
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    | (?P<string>'[^'\n]*'|"[^"\n]*")
    | (?P<punct>[(){}\[\],:;.=|])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)
_LAST_KINDS = frozenset({"eof", "bad"})

_Item = TypeVar("_Item")

# reserved inside a query: never read as an alias, attribute or predicate,
# so no wire, rel or const may be declared under one of these names
_QUERY_KEYWORDS = frozenset({"select", "from", "where", "and"})

# A range type is stored value by value, in a tuple and a set, at about 80
# bytes a value; a wider range is refused before anything is allocated, so a
# typo in a bound gives an error instead of exhausting memory.
MAX_RANGE_VALUES = 1_000_000


class Token(NamedTuple):
    kind: str
    text: str
    offset: int  # index of the token's first character in the script text


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[Token]:
    """The tokens of ``text[start:end]``, ending with one ``eof`` token at
    ``end``; offsets count from the start of ``text``."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) through NamedTuple.__new__ costs more
    for m in _TOKEN_RE.finditer(text, start, len(text) if end is None else end):
        kind = m.lastgroup
        append(new(Token, (kind, m[kind], m.start(kind))))
        if kind in _LAST_KINDS:
            break
    last = tokens[-1]
    if last.kind == "bad":
        raise ScriptError(f"unexpected character {last.text!r}", *_position(text, last.offset))
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
    def __init__(self, text: str, script: Script, tokens: list[Token]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.script = script

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ScriptError:
        """The error ``message`` at ``tok``, by default at the next token."""
        offset = (self.peek() if tok is None else tok).offset
        return ScriptError(message, *_position(self.text, offset))

    def unexpected(self, want: str) -> ScriptError:
        return self.fail(f"expected {want}, found {self.peek().text or 'end of file'!r}")

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.unexpected(repr(text or kind))
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.unexpected(repr(word))
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.lower() == word

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def ident(self, what: str) -> Token:
        if self.peek().kind != "ident":
            raise self.unexpected(what)
        return self.next()

    def literal(self) -> Value:
        tok = self.peek()
        if tok.kind not in ("int", "string", "ident"):
            raise self.unexpected("a literal value")
        self.next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "string":
            return tok.text[1:-1]
        return tok.text

    def items(
        self, item: Callable[[], _Item], sep: str = ",", close: str | None = None
    ) -> list[_Item]:
        """``item``s separated by the punctuation ``sep``: with ``close``, any
        number of them up to ``close``, which is consumed; without, one or
        more, for as long as ``sep`` follows."""
        if close is None:
            found = [item()]
            while self.at_punct(sep):
                self.next()
                found.append(item())
            return found
        found = []
        while not self.at_punct(close):
            if found:
                self.expect("punct", sep)
            found.append(item())
        self.next()
        return found

    # -- name resolution helpers

    def new_name(self, what: str, kind: str, *tables: dict) -> Token:
        """The name being declared, which none of ``tables`` may hold."""
        tok = self.ident(what)
        if any(tok.text in table for table in tables):
            raise self.fail(f"duplicate {kind} name {tok.text!r}", tok)
        return tok

    def ref(self, what: str, kind: str, *tables: dict) -> str:
        """A name that one of ``tables`` declares."""
        tok = self.ident(what)
        if not any(tok.text in table for table in tables):
            raise self.fail(f"unknown {kind} {tok.text!r}", tok)
        return tok.text

    def type_ref(self) -> str:
        return self.ref("type name", "type", self.script.domains)

    def star_ref(self) -> str:
        return self.ref("star name", "star", self.script.stars)

    # -- declarations

    def parse(self) -> Script:
        decls = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail("expected a declaration")
            handler = _HANDLERS.get(tok.text.lower())
            if handler is None:
                raise self.fail(f"unknown declaration {tok.text!r}")
            self.next()
            decls.append(handler(self))
        self.script.decls = tuple(decls)
        return self.script

    def parse_type(self) -> ValueDomain:
        name = self.new_name("type name", "type", self.script.domains).text
        self.expect("punct", "=")
        if self.at_keyword("range"):
            self.next()
            lo_tok = self.expect("int")
            lo = int(lo_tok.text)
            self.expect("range")
            hi = int(self.expect("int").text)
            if hi < lo:
                raise self.fail(f"empty range {lo}..{hi}", lo_tok)
            if hi - lo + 1 > MAX_RANGE_VALUES:
                raise self.fail(
                    f"range {lo}..{hi} has {hi - lo + 1} values, bound is {MAX_RANGE_VALUES}",
                    lo_tok,
                )
            values = range(lo, hi + 1)
        else:
            seen: set[Value] = set()

            def value() -> Value:
                tok = self.peek()
                v = self.literal()
                if not survives_csv(v):
                    raise self.fail(
                        f"type {name!r}: value {v!r} would not read back from CSV unchanged",
                        tok,
                    )
                if v in seen:
                    raise self.fail(f"type {name!r} repeats a value", tok)
                seen.add(v)
                return v

            self.expect("punct", "{")
            values = self.items(value, close="}")
        self.expect("punct", ";")
        domain = ValueDomain(name, tuple(values))
        self.script.domains[name] = domain
        return domain

    def _wire(self) -> tuple[str, str]:
        wire = self._query_name("wire name")
        self.expect("punct", ":")
        return wire, self.type_ref()

    def parse_star(self) -> TypedStar:
        tok = self.new_name("star name", "star", self.script.stars)
        self.expect("punct", "(")
        wires = self.items(self._wire, close=")")
        self.expect("punct", ";")
        try:
            tstar = TypedStar(
                Star(w for w, _t in wires),
                {w: self.script.domains[t] for w, t in wires},
            )
        except WiringError as exc:
            raise self.fail(str(exc), tok) from exc
        self.script.stars[tok.text] = tstar
        return tstar

    def _predicate_name(self, what: str) -> str:
        """A new rel or const name, which a query's FROM must be able to name."""
        self._reject_query_keyword(what)
        return self.new_name(what, "rel/const", self.script.relations, self.script.consts).text

    def parse_rel(self) -> RelDecl:
        name = self._predicate_name("relation name")
        self.expect("punct", ":")
        star_name = self.star_ref()
        self.expect_keyword("from")
        path = self.expect("string").text[1:-1]
        self.expect("punct", ";")
        decl = RelDecl(name, path, self.script.stars[star_name])
        self.script.relations[name] = decl
        return decl

    def parse_const(self) -> Relation:
        name = self._predicate_name("constant name")
        self.expect("punct", ":")
        type_name = self.type_ref()
        dom = self.script.domains[type_name]
        self.expect("punct", "=")
        value_tok = self.peek()
        value = self.literal()
        self.expect("punct", ";")
        if value not in dom:
            raise self.fail(f"constant {value!r} is outside type {type_name!r}", value_tok)
        rel = const_relation(value, dom)
        self.script.consts[name] = rel
        return rel

    def _parse_codomain(self) -> tuple[TypedStar, HomStar | None]:
        if self.at_punct("["):
            self.next()
            arg_names = self.items(self.star_ref)
            self.expect("darrow")
            ret_name = self.star_ref()
            self.expect("punct", "]")
            stars = self.script.stars
            hom = internal_hom([stars[n] for n in arg_names], stars[ret_name])
            return hom.star, hom
        return self.script.stars[self.star_ref()], None

    def parse_diagram(self) -> DiagramDecl:
        tok = self.new_name("diagram name", "diagram", self.script.diagrams)
        name = tok.text
        self.expect("punct", "(")
        inner_names = self.items(self.star_ref, close=")")
        self.expect("arrow")
        outer, hom = self._parse_codomain()
        self.expect("punct", "{")

        inner = tuple(self.script.stars[n] for n in inner_names)
        cable_types: dict[str, ValueDomain] = {}
        inner_map: dict = {}
        outer_map: dict = {}
        while not self.at_punct("}"):
            if self.at_keyword("cable"):
                self.next()
                cable_tok = self.ident("cable name")
                cable = cable_tok.text
                if cable in cable_types:
                    raise self.fail(f"duplicate cable {cable!r}", cable_tok)
                self.expect("punct", ":")
                cable_types[cable] = self.script.domains[self.type_ref()]
                self.expect("punct", ";")
            elif self.at_keyword("solder"):
                self.next()
                head_tok = self.ident("solder endpoint")
                head = head_tok.text
                parts = [head]
                while self.at_punct("."):
                    self.next()
                    parts.append(self.ident("wire name").text)
                if len(parts) < 2:
                    raise self.fail("solder endpoint needs a wire, like inner1.w or out.w")
                wire = ".".join(parts[1:])
                self.expect("arrow")
                cable = self.ref("cable name", "cable", cable_types)
                self.expect("punct", ";")
                if head == "out":
                    if wire not in outer.star:
                        raise self.fail(f"outer star has no wire {wire!r}", head_tok)
                    endpoints, key = outer_map, wire
                else:
                    m = re.fullmatch(r"inner([0-9]+)", head)
                    if m is None:
                        raise self.fail(
                            f"endpoint must start with 'out' or 'inner<k>', got {head!r}",
                            head_tok,
                        )
                    index = int(m.group(1)) - 1
                    if not 0 <= index < len(inner):
                        raise self.fail(
                            f"no inner star {head!r} (diagram has {len(inner)})", head_tok
                        )
                    if wire not in inner[index].star:
                        raise self.fail(
                            f"inner star {index + 1} has no wire {wire!r}", head_tok
                        )
                    endpoints, key = inner_map, (index, wire)
                if key in endpoints:
                    raise self.fail(
                        f"{head}.{wire} is already soldered to cable {endpoints[key]!r}",
                        head_tok,
                    )
                endpoints[key] = cable
            else:
                raise self.fail("expected 'cable' or 'solder'")
        self.expect("punct", "}")

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
            raise self.fail(f"diagram {name!r}: {exc}", tok) from exc
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
                    tok,
                )
        decl = DiagramDecl(name, typed, hom)
        self.script.diagrams[name] = decl
        return decl

    def _reject_query_keyword(self, what: str) -> None:
        if self.peek().text.lower() in _QUERY_KEYWORDS:
            raise self.unexpected(what)

    def _query_name(self, what: str) -> str:
        """An identifier a query reads, which may not be a query keyword."""
        self._reject_query_keyword(what)
        return self.ident(what).text

    def _attr_ref(self) -> AttrRef:
        alias = self._query_name("alias")
        self.expect("punct", ".")
        return AttrRef(alias, self._query_name("attribute"))

    def _table(self) -> tuple[str, str]:
        return self._query_name("predicate name"), self._query_name("alias")

    def _condition(self) -> Condition:
        left = self._attr_ref()
        self.expect("punct", "=")
        if self.peek().kind == "ident" and self.tokens[self.pos + 1].text == ".":
            return Condition(left, right=self._attr_ref())
        return Condition(left, literal=self.literal())

    def parse_query(self) -> ConjunctiveQuery:
        tok = self.new_name("query name", "query", self.script.queries, self.script.unions)
        name = tok.text
        self.expect("punct", "=")
        query = self.parse_select()
        self.expect("punct", ";")
        try:
            self.script.shapes[name] = result_star(query, self.script)
        except ScriptError as exc:
            raise self.fail(f"query {name!r}: {exc}", tok) from exc
        self.script.queries[name] = query
        return query

    def parse_select(self) -> ConjunctiveQuery:
        self.expect_keyword("select")
        select = self.items(self._attr_ref)
        self.expect_keyword("from")
        tables = self.items(self._table)
        conditions: list[Condition] = []
        if self.at_keyword("where"):
            self.next()
            conditions.append(self._condition())
            while self.at_keyword("and"):
                self.next()
                conditions.append(self._condition())
        return ConjunctiveQuery(tuple(select), tuple(tables), tuple(conditions))

    def parse_union(self) -> UnionDecl:
        tok = self.new_name("union name", "union", self.script.unions, self.script.queries)
        name = tok.text
        self.expect("punct", "=")
        part_toks = self.items(lambda: self.ident("result name"), sep="|")
        parts = tuple(t.text for t in part_toks)
        self.expect("punct", ";")
        if len(parts) < 2:
            raise self.fail("a union needs at least two results", tok)
        for part in parts:
            if part not in self.script.shapes:
                raise self.fail(f"union {name!r} references unknown result {part!r}", tok)
        first = self.script.shapes[parts[0]]
        for part_tok in part_toks[1:]:
            shape = self.script.shapes[part_tok.text]
            if shape != first:
                raise self.fail(
                    f"union {name!r}: {part_tok.text!r} gives {_columns(shape)} "
                    f"but {parts[0]!r} gives {_columns(first)}",
                    part_tok,
                )
        self.script.shapes[name] = first
        decl = UnionDecl(name, parts)
        self.script.unions[name] = decl
        return decl

    def parse_setup(self) -> SetupDecl:
        tok = self.new_name("setup name", "setup", self.script.setups)
        name = tok.text
        self.expect("punct", "=")
        diagram_name = self.ref("diagram name", "diagram", self.script.diagrams)
        decl = self.script.diagrams[diagram_name]
        self.expect("punct", "(")
        relations, consts = self.script.relations, self.script.consts
        rel_names = self.items(
            lambda: self.ref("relation name", "relation", relations, consts), close=")"
        )
        self.expect("punct", ";")

        hom = decl.hom
        if hom is None or len(hom.args) != 1 or hom.args[0] != hom.ret:
            raise self.fail(f"setup {name!r}: diagram codomain must be [Z => Z]", tok)
        if len(rel_names) != decl.typed.arity:
            raise self.fail(
                f"setup {name!r}: diagram has {decl.typed.arity} inner stars, "
                f"got {len(rel_names)} relations",
                tok,
            )
        for i, rel_name in enumerate(rel_names):
            rel = relations[rel_name] if rel_name in relations else consts[rel_name]
            if rel.star != decl.typed.inner[i]:
                raise self.fail(
                    f"setup {name!r}: relation {rel_name!r} does not match "
                    f"inner star {i + 1}",
                    tok,
                )
        setup = SetupDecl(name, diagram_name, tuple(rel_names), hom.ret)
        self.script.setups[name] = setup
        return setup


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


# --------------------------------------------------------------------------
# choosing the declarations a caller reads

# One match per ``;``, ``{`` or ``}`` token, and a last one at the end of
# the text.  A match skips what the lexer reads as strings and comments, and
# a run of other characters at a time; a run that ends where an identifier
# meets a quote stops before that identifier, so the identifier takes the
# quote as a prime, as in ``A'``, and no string starts there.  Every
# character but the three is skipped by some alternative, so the skip is
# never backtracked into.
_SPLIT_RE = re.compile(
    r"""
    (?:
      [^;{}'"\#]+(?![A-Za-z0-9_]*')
    | [^;{}'"\#]*[A-Za-z_][A-Za-z0-9_]*'+
    | [^;{}'"\#]+
    | '[^'\n]*' | "[^"\n]*" | \#[^\n]* | ['"]
    )*
    ([;{}]|\Z)
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
            kind = head.lastgroup
            if kind == "eof":
                return decls
            keyword = head[kind].lower()
            if kind != "ident" or keyword not in _HANDLERS:
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
        name = match(text, head.end())
        decls.append(Declaration(keyword, name[name.lastgroup], head.start(kind), pos))
        head = None


def parse_script(text: str, reads: Iterable[str] | None = None) -> Script:
    """Parse and resolve a script, or with ``reads`` the declarations that
    the module docstring names; raise :class:`ScriptError` with position
    information on the first problem.  A second declaration of a chosen
    name raises the duplicate name error, and ``decls`` holds the chosen
    declarations' objects."""
    decls = None if reads is None else split_declarations(text)
    if decls is None:
        return _Parser(text, Script(), tokenize(text)).parse()
    named: dict[str, list[int]] = {}
    for index, decl in enumerate(decls):
        named.setdefault(decl.name, []).append(index)
    seen = set(reads)
    pending = [index for name in seen for index in named.get(name, ())]
    # a name enters ``seen`` once, so each declaration is taken up once
    chosen: dict[int, list[Token]] = {}
    failed: dict[int, ScriptError] = {}
    while pending:
        index = pending.pop()
        _keyword, _name, start, end = decls[index]
        try:
            chosen[index] = found = tokenize(text, start, end)
        except ScriptError as exc:
            failed[index] = exc
            continue
        for tok in found:
            if tok.kind == "ident" and tok.text not in seen:
                seen.add(tok.text)
                pending += named.get(tok.text, ())
    if failed:  # as in the whole text, a bad character comes before parse errors
        raise failed[min(failed)]
    tokens: list[Token] = []
    for index in sorted(chosen):
        tokens += chosen[index][:-1]
    tokens.append(Token("eof", "", len(text)))
    return _Parser(text, Script(), tokens).parse()


def parse_select_text(text: str) -> ConjunctiveQuery:
    """Parse a standalone SELECT expression, with an optional final ``;``,
    without resolving its names."""
    parser = _Parser(text, Script(), tokenize(text))
    query = parser.parse_select()
    if parser.at_punct(";"):
        parser.next()
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input after query")
    return query


def resolve_query_text(text: str, query: ConjunctiveQuery, script: Script) -> ConjunctiveQuery:
    """``query``, parsed from ``text`` by :func:`parse_select_text`, once it
    resolves against ``script``; an error is placed at its ``SELECT``."""
    try:
        result_star(query, script)
    except ScriptError as exc:
        select = _TOKEN_RE.match(text)
        raise ScriptError(str(exc), *_position(text, select.start(select.lastgroup))) from exc
    return query
