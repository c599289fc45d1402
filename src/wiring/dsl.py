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
carry trailing primes (``A'``).  Tokens carry their offset in the text; a
line and column are computed only when an error is raised.  The pretty
printer emits a canonical form that parses back to the same script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

from .closed import HomStar, internal_hom
from .csvio import survives_csv
from .errors import ScriptError, WiringError
from .query import AttrRef, Condition, ConjunctiveQuery, result_star, validate_query
from .relations import Relation
from .stars import Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<darrow>=>)
  | (?P<range>\.\.)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<string>'[^'\n]*'|"[^"\n]*")
  | (?P<punct>[(){}\[\],:;.=|])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_Item = TypeVar("_Item")

# reserved inside a query: never read as an alias, attribute or predicate,
# so no wire, rel or const may be declared under one of these names
_QUERY_KEYWORDS = frozenset({"select", "from", "where", "and"})


class Token(NamedTuple):
    kind: str
    text: str
    offset: int  # index of the token's first character in the script text


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ScriptError(
                f"unexpected character {m.group()!r}", *_position(text, m.start())
            )
        if kind != "ws" and kind != "comment":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


# --------------------------------------------------------------------------
# declaration records kept for pretty-printing

@dataclass(frozen=True)
class TypeDecl:
    name: str
    values: tuple[Value, ...]
    range_bounds: tuple[int, int] | None = None


@dataclass(frozen=True)
class StarDecl:
    name: str
    wires: tuple[tuple[str, str], ...]  # (wire, type name)


@dataclass(frozen=True)
class RelDecl:
    name: str
    star_name: str
    path: str
    star: TypedStar


@dataclass(frozen=True)
class ConstDecl:
    name: str
    type_name: str
    value: Value


@dataclass(frozen=True)
class DiagramDecl:
    name: str
    inner_names: tuple[str, ...]
    codomain: str | tuple[tuple[str, ...], str]  # star name, or ([args], ret)
    cable_decls: tuple[tuple[str, str], ...]  # (cable, type name)
    solder_decls: tuple[tuple[str, str], ...]  # (endpoint text, cable)
    typed: TypedWiringDiagram
    hom: HomStar | None


@dataclass(frozen=True)
class QueryDecl:
    name: str
    query: ConjunctiveQuery


@dataclass(frozen=True)
class UnionDecl:
    name: str
    parts: tuple[str, ...]


@dataclass(frozen=True)
class SetupDecl:
    name: str
    diagram_name: str
    rel_names: tuple[str, ...]
    z: TypedStar


@dataclass
class Script:
    """A parsed, name-resolved script."""

    decls: tuple = ()
    domains: dict[str, ValueDomain] = field(default_factory=dict)
    stars: dict[str, TypedStar] = field(default_factory=dict)
    relations: dict[str, RelDecl] = field(default_factory=dict)
    consts: dict[str, Relation] = field(default_factory=dict)
    diagrams: dict[str, DiagramDecl] = field(default_factory=dict)
    queries: dict[str, ConjunctiveQuery] = field(default_factory=dict)
    unions: dict[str, UnionDecl] = field(default_factory=dict)
    setups: dict[str, SetupDecl] = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.script = Script()
        # the typed star of each query and union result, by name
        self.shapes: dict[str, TypedStar] = {}

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
        tok = self.next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "string":
            return tok.text[1:-1]
        if tok.kind == "ident":
            return tok.text
        raise self.fail(f"expected a literal value, found {tok.text!r}", tok)

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
        handlers = {
            "type": self.parse_type,
            "star": self.parse_star,
            "rel": self.parse_rel,
            "const": self.parse_const,
            "diagram": self.parse_diagram,
            "query": self.parse_query,
            "union": self.parse_union,
            "setup": self.parse_setup,
        }
        decls = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail("expected a declaration")
            handler = handlers.get(tok.text.lower())
            if handler is None:
                raise self.fail(f"unknown declaration {tok.text!r}")
            self.next()
            decls.append(handler())
        self.script.decls = tuple(decls)
        return self.script

    def parse_type(self) -> TypeDecl:
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
            decl = TypeDecl(name, tuple(range(lo, hi + 1)), (lo, hi))
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
            decl = TypeDecl(name, tuple(values))
        self.expect("punct", ";")
        self.script.domains[name] = ValueDomain(name, decl.values)
        return decl

    def _wire(self) -> tuple[str, str]:
        wire = self._query_name("wire name")
        self.expect("punct", ":")
        return wire, self.type_ref()

    def parse_star(self) -> StarDecl:
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
        return StarDecl(tok.text, tuple(wires))

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
        decl = RelDecl(name, star_name, path, self.script.stars[star_name])
        self.script.relations[name] = decl
        return decl

    def parse_const(self) -> ConstDecl:
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
        star = TypedStar(Star(("value",)), {"value": dom})
        self.script.consts[name] = Relation(star, [(value,)])
        return ConstDecl(name, type_name, value)

    def _parse_codomain(self) -> tuple[str | tuple[tuple[str, ...], str], TypedStar, HomStar | None]:
        if self.at_punct("["):
            self.next()
            arg_names = self.items(self.star_ref)
            self.expect("darrow")
            ret_name = self.star_ref()
            self.expect("punct", "]")
            stars = self.script.stars
            hom = internal_hom([stars[n] for n in arg_names], stars[ret_name])
            return (tuple(arg_names), ret_name), hom.star, hom
        name = self.star_ref()
        return name, self.script.stars[name], None

    def parse_diagram(self) -> DiagramDecl:
        tok = self.new_name("diagram name", "diagram", self.script.diagrams)
        name = tok.text
        self.expect("punct", "(")
        inner_names = self.items(self.star_ref, close=")")
        self.expect("arrow")
        codomain, outer, hom = self._parse_codomain()
        self.expect("punct", "{")

        inner = tuple(self.script.stars[n] for n in inner_names)
        cable_decls: list[tuple[str, str]] = []
        solder_decls: list[tuple[str, str]] = []
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
                type_name = self.type_ref()
                cable_types[cable] = self.script.domains[type_name]
                self.expect("punct", ";")
                cable_decls.append((cable, type_name))
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
                endpoint = ".".join(parts)
                solder_decls.append((endpoint, cable))
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
                        f"{endpoint} is already soldered to cable {endpoints[key]!r}",
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
                cables=tuple(c for c, _t in cable_decls),
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
        decl = DiagramDecl(
            name,
            tuple(inner_names),
            codomain,
            tuple(cable_decls),
            tuple(solder_decls),
            typed,
            hom,
        )
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

    def parse_query(self) -> QueryDecl:
        tok = self.new_name("query name", "query", self.script.queries, self.script.unions)
        name = tok.text
        self.expect("punct", "=")
        query = self.parse_select()
        self.expect("punct", ";")
        try:
            self.shapes[name] = result_star(query, self.script)
        except ScriptError as exc:
            raise self.fail(f"query {name!r}: {exc}", tok) from exc
        self.script.queries[name] = query
        return QueryDecl(name, query)

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
            if part not in self.shapes:
                raise self.fail(f"union {name!r} references unknown result {part!r}", tok)
        first = self.shapes[parts[0]]
        for part_tok in part_toks[1:]:
            shape = self.shapes[part_tok.text]
            if shape != first:
                raise self.fail(
                    f"union {name!r}: {part_tok.text!r} gives {_columns(shape)} "
                    f"but {parts[0]!r} gives {_columns(first)}",
                    part_tok,
                )
        self.shapes[name] = first
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


def parse_script(text: str) -> Script:
    """Parse and resolve a script; raise :class:`ScriptError` with position
    information on the first problem."""
    return _Parser(text).parse()


def parse_query_text(text: str, script: Script) -> ConjunctiveQuery:
    """Parse a standalone SELECT expression against an existing script."""
    parser = _Parser(text)
    parser.script = script
    query = parser.parse_select()
    if parser.at_punct(";"):
        parser.next()
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input after query")
    validate_query(query, script)
    return query


# --------------------------------------------------------------------------
# pretty printer

def _format_value(v: Value) -> str:
    if isinstance(v, int):
        return str(v)
    # The lexer reads no value holding both quotes, so one of them fits.
    return f'"{v}"' if "'" in v else f"'{v}'"


def format_script(script: Script) -> str:
    """Canonical text that parses back to the same script."""
    lines: list[str] = []
    for decl in script.decls:
        if isinstance(decl, TypeDecl):
            if decl.range_bounds is not None:
                lo, hi = decl.range_bounds
                lines.append(f"type {decl.name} = range {lo}..{hi};")
            else:
                body = ", ".join(_format_value(v) for v in decl.values)
                lines.append(f"type {decl.name} = {{{body}}};")
        elif isinstance(decl, StarDecl):
            body = ", ".join(f"{w}:{t}" for w, t in decl.wires)
            lines.append(f"star {decl.name}({body});")
        elif isinstance(decl, RelDecl):
            lines.append(f'rel {decl.name} : {decl.star_name} from "{decl.path}";')
        elif isinstance(decl, ConstDecl):
            lines.append(
                f"const {decl.name} : {decl.type_name} = {_format_value(decl.value)};"
            )
        elif isinstance(decl, DiagramDecl):
            if isinstance(decl.codomain, tuple):
                args, ret = decl.codomain
                codomain = f"[{', '.join(args)} => {ret}]"
            else:
                codomain = decl.codomain
            header = f"diagram {decl.name}({', '.join(decl.inner_names)}) -> {codomain} {{"
            lines.append(header)
            for cable, type_name in decl.cable_decls:
                lines.append(f"  cable {cable} : {type_name};")
            for endpoint, cable in decl.solder_decls:
                lines.append(f"  solder {endpoint} -> {cable};")
            lines.append("}")
        elif isinstance(decl, QueryDecl):
            q = decl.query
            parts = [f"query {decl.name} = SELECT "]
            parts.append(", ".join(str(r) for r in q.select))
            parts.append(" FROM ")
            parts.append(", ".join(f"{pred} {alias}" for pred, alias in q.tables))
            if q.conditions:
                parts.append(" WHERE ")
                parts.append(" AND ".join(str(c) for c in q.conditions))
            parts.append(";")
            lines.append("".join(parts))
        elif isinstance(decl, UnionDecl):
            lines.append(f"union {decl.name} = {' | '.join(decl.parts)};")
        elif isinstance(decl, SetupDecl):
            lines.append(
                f"setup {decl.name} = {decl.diagram_name}({', '.join(decl.rel_names)});"
            )
        else:  # pragma: no cover
            raise TypeError(f"unknown declaration {decl!r}")
    return "\n".join(lines) + ("\n" if lines else "")
