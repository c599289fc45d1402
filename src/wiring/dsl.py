"""The ``.wd`` script language.

A script is an ordered sequence of declarations, resolved as they are
parsed (declaration before use, names unique per kind):

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

Comments run from ``#`` to end of line.  Wire and cable identifiers may
carry trailing primes (``A'``).  The pretty printer emits a canonical form
that parses back to the same script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .closed import HomStar, internal_hom
from .csvio import survives_csv
from .errors import ScriptError
from .query import AttrRef, Condition, ConjunctiveQuery, result_star, validate_query
from .relations import Relation
from .stars import Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

KEYWORDS_QUERY = ("select", "from", "where", "and")

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
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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

    def evaluable_names(self) -> list[str]:
        return list(self.queries) + list(self.unions)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
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
        tok = tok or self.peek()
        return ScriptError(message, tok.line, tok.column)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {tok.text or 'end of file'!r}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text.lower() != word:
            raise self.fail(f"expected {word!r}, found {tok.text or 'end of file'!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.lower() == word

    def ident(self, what: str = "name") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.text or 'end of file'!r}")
        return self.next().text

    def literal(self) -> Value:
        tok = self.peek()
        if tok.kind == "int":
            return int(self.next().text)
        if tok.kind == "string":
            return self.next().text[1:-1]
        if tok.kind == "ident":
            return self.next().text
        raise self.fail(f"expected a literal value, found {tok.text!r}")

    # -- name resolution helpers

    def fresh(self, table: dict, name: str, kind: str, tok: Token) -> None:
        if name in table:
            raise ScriptError(f"duplicate {kind} name {name!r}", tok.line, tok.column)

    def domain(self, name: str, tok: Token) -> ValueDomain:
        if name not in self.script.domains:
            raise ScriptError(f"unknown type {name!r}", tok.line, tok.column)
        return self.script.domains[name]

    def star(self, name: str, tok: Token) -> TypedStar:
        if name not in self.script.stars:
            raise ScriptError(f"unknown star {name!r}", tok.line, tok.column)
        return self.script.stars[name]

    # -- declarations

    def parse(self) -> Script:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail("expected a declaration")
            keyword = tok.text.lower()
            handler = {
                "type": self.parse_type,
                "star": self.parse_star,
                "rel": self.parse_rel,
                "const": self.parse_const,
                "diagram": self.parse_diagram,
                "query": self.parse_query,
                "union": self.parse_union,
                "setup": self.parse_setup,
            }.get(keyword)
            if handler is None:
                raise self.fail(f"unknown declaration {tok.text!r}")
            self.next()
            handler()
        return self.script

    def parse_type(self) -> None:
        tok = self.peek()
        name = self.ident("type name")
        self.fresh(self.script.domains, name, "type", tok)
        self.expect("punct", "=")
        if self.at_keyword("range"):
            self.next()
            lo = int(self.expect("int").text)
            self.expect("range")
            hi = int(self.expect("int").text)
            if hi < lo:
                raise self.fail(f"empty range {lo}..{hi}")
            decl = TypeDecl(name, tuple(range(lo, hi + 1)), (lo, hi))
        else:
            self.expect("punct", "{")
            values: list[Value] = []
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                if values:
                    self.expect("punct", ",")
                value_tok = self.peek()
                values.append(self.literal())
                if not survives_csv(values[-1]):
                    raise ScriptError(
                        f"type {name!r}: value {values[-1]!r} would not read back "
                        "from CSV unchanged",
                        value_tok.line,
                        value_tok.column,
                    )
            self.expect("punct", "}")
            if len(set(values)) != len(values):
                raise self.fail(f"type {name!r} repeats a value")
            decl = TypeDecl(name, tuple(values))
        self.expect("punct", ";")
        self.script.domains[name] = ValueDomain(name, decl.values)
        self.script.decls += (decl,)

    def parse_star(self) -> None:
        tok = self.peek()
        name = self.ident("star name")
        self.fresh(self.script.stars, name, "star", tok)
        self.expect("punct", "(")
        wires: list[tuple[str, str]] = []
        while not (self.peek().kind == "punct" and self.peek().text == ")"):
            if wires:
                self.expect("punct", ",")
            wire = self.ident("wire name")
            self.expect("punct", ":")
            type_tok = self.peek()
            type_name = self.ident("type name")
            self.domain(type_name, type_tok)
            wires.append((wire, type_name))
        self.expect("punct", ")")
        self.expect("punct", ";")
        try:
            tstar = TypedStar(
                Star(w for w, _t in wires),
                {w: self.script.domains[t] for w, t in wires},
            )
        except Exception as exc:
            raise ScriptError(str(exc), tok.line, tok.column) from exc
        self.script.stars[name] = tstar
        self.script.decls += (StarDecl(name, tuple(wires)),)

    def parse_rel(self) -> None:
        tok = self.peek()
        name = self.ident("relation name")
        self.fresh(self.script.relations, name, "rel", tok)
        self.expect("punct", ":")
        star_tok = self.peek()
        star_name = self.ident("star name")
        star = self.star(star_name, star_tok)
        self.expect_keyword("from")
        path_tok = self.expect("string")
        self.expect("punct", ";")
        decl = RelDecl(name, star_name, path_tok.text[1:-1], star)
        self.script.relations[name] = decl
        self.script.decls += (decl,)

    def parse_const(self) -> None:
        tok = self.peek()
        name = self.ident("constant name")
        self.fresh(self.script.consts, name, "const", tok)
        self.expect("punct", ":")
        type_tok = self.peek()
        type_name = self.ident("type name")
        dom = self.domain(type_name, type_tok)
        self.expect("punct", "=")
        value_tok = self.peek()
        value = self.literal()
        self.expect("punct", ";")
        if value not in dom:
            raise ScriptError(
                f"constant {value!r} is outside type {type_name!r}",
                value_tok.line,
                value_tok.column,
            )
        star = TypedStar(Star(("value",)), {"value": dom})
        self.script.consts[name] = Relation(star, [(value,)])
        self.script.decls += (ConstDecl(name, type_name, value),)

    def _parse_codomain(self) -> tuple[str | tuple[tuple[str, ...], str], TypedStar, HomStar | None]:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "[":
            self.next()
            arg_names: list[str] = []
            while True:
                star_tok = self.peek()
                arg_names.append(self.ident("star name"))
                self.star(arg_names[-1], star_tok)
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect("darrow")
            ret_tok = self.peek()
            ret_name = self.ident("star name")
            ret = self.star(ret_name, ret_tok)
            self.expect("punct", "]")
            hom = internal_hom([self.script.stars[n] for n in arg_names], ret)
            return (tuple(arg_names), ret_name), hom.star, hom
        name = self.ident("star name")
        return name, self.star(name, tok), None

    def parse_diagram(self) -> None:
        tok = self.peek()
        name = self.ident("diagram name")
        self.fresh(self.script.diagrams, name, "diagram", tok)
        self.expect("punct", "(")
        inner_names: list[str] = []
        while not (self.peek().kind == "punct" and self.peek().text == ")"):
            if inner_names:
                self.expect("punct", ",")
            star_tok = self.peek()
            inner_names.append(self.ident("star name"))
            self.star(inner_names[-1], star_tok)
        self.expect("punct", ")")
        self.expect("arrow")
        codomain, outer, hom = self._parse_codomain()
        self.expect("punct", "{")

        inner = tuple(self.script.stars[n] for n in inner_names)
        cable_decls: list[tuple[str, str]] = []
        solder_decls: list[tuple[str, str]] = []
        cable_types: dict[str, ValueDomain] = {}
        inner_map: dict = {}
        outer_map: dict = {}
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            if self.at_keyword("cable"):
                self.next()
                cable_tok = self.peek()
                cable = self.ident("cable name")
                if cable in cable_types:
                    raise ScriptError(
                        f"duplicate cable {cable!r}", cable_tok.line, cable_tok.column
                    )
                self.expect("punct", ":")
                type_tok = self.peek()
                type_name = self.ident("type name")
                cable_types[cable] = self.domain(type_name, type_tok)
                self.expect("punct", ";")
                cable_decls.append((cable, type_name))
            elif self.at_keyword("solder"):
                self.next()
                head_tok = self.peek()
                head = self.ident("solder endpoint")
                parts = [head]
                while self.peek().kind == "punct" and self.peek().text == ".":
                    self.next()
                    parts.append(self.ident("wire name"))
                if len(parts) < 2:
                    raise self.fail("solder endpoint needs a wire, like inner1.w or out.w")
                wire = ".".join(parts[1:])
                self.expect("arrow")
                cable_tok = self.peek()
                cable = self.ident("cable name")
                if cable not in cable_types:
                    raise ScriptError(
                        f"unknown cable {cable!r}", cable_tok.line, cable_tok.column
                    )
                self.expect("punct", ";")
                endpoint = ".".join(parts)
                solder_decls.append((endpoint, cable))
                if head == "out":
                    if wire not in outer.star:
                        raise ScriptError(
                            f"outer star has no wire {wire!r}",
                            head_tok.line,
                            head_tok.column,
                        )
                    endpoints, key = outer_map, wire
                else:
                    m = re.fullmatch(r"inner([0-9]+)", head)
                    if m is None:
                        raise ScriptError(
                            f"endpoint must start with 'out' or 'inner<k>', got {head!r}",
                            head_tok.line,
                            head_tok.column,
                        )
                    index = int(m.group(1)) - 1
                    if not 0 <= index < len(inner):
                        raise ScriptError(
                            f"no inner star {head!r} (diagram has {len(inner)})",
                            head_tok.line,
                            head_tok.column,
                        )
                    if wire not in inner[index].star:
                        raise ScriptError(
                            f"inner star {index + 1} has no wire {wire!r}",
                            head_tok.line,
                            head_tok.column,
                        )
                    endpoints, key = inner_map, (index, wire)
                if key in endpoints:
                    raise ScriptError(
                        f"{endpoint} is already soldered to cable {endpoints[key]!r}",
                        head_tok.line,
                        head_tok.column,
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
            typed = TypedWiringDiagram(wd, inner, outer, cable_types)
        except Exception as exc:
            raise ScriptError(f"diagram {name!r}: {exc}", tok.line, tok.column) from exc
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
        self.script.decls += (decl,)

    def _attr_ref(self) -> AttrRef:
        alias = self.ident("alias")
        self.expect("punct", ".")
        attr = self.ident("attribute")
        return AttrRef(alias, attr)

    def parse_query(self) -> None:
        tok = self.peek()
        name = self.ident("query name")
        self.fresh(self.script.queries, name, "query", tok)
        self.fresh(self.script.unions, name, "query", tok)
        self.expect("punct", "=")
        query = self.parse_select()
        self.expect("punct", ";")
        try:
            self.shapes[name] = result_star(query, self.script)
        except ScriptError as exc:
            raise ScriptError(f"query {name!r}: {exc}", tok.line, tok.column) from exc
        self.script.queries[name] = query
        self.script.decls += (QueryDecl(name, query),)

    def parse_select(self) -> ConjunctiveQuery:
        self.expect_keyword("select")
        select = [self._attr_ref()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            select.append(self._attr_ref())
        self.expect_keyword("from")
        tables: list[tuple[str, str]] = []
        while True:
            pred = self.ident("predicate name")
            alias = self.ident("alias")
            tables.append((pred, alias))
            if self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                continue
            break
        conditions: list[Condition] = []
        if self.at_keyword("where"):
            self.next()
            while True:
                left = self._attr_ref()
                self.expect("punct", "=")
                tok = self.peek()
                if tok.kind == "ident" and self.tokens[self.pos + 1].text == ".":
                    conditions.append(Condition(left, right=self._attr_ref()))
                else:
                    conditions.append(Condition(left, literal=self.literal()))
                if self.at_keyword("and"):
                    self.next()
                    continue
                break
        return ConjunctiveQuery(tuple(select), tuple(tables), tuple(conditions))

    def parse_union(self) -> None:
        tok = self.peek()
        name = self.ident("union name")
        self.fresh(self.script.unions, name, "union", tok)
        self.fresh(self.script.queries, name, "union", tok)
        self.expect("punct", "=")
        part_toks = [self.peek()]
        parts = [self.ident("result name")]
        while self.peek().kind == "punct" and self.peek().text == "|":
            self.next()
            part_toks.append(self.peek())
            parts.append(self.ident("result name"))
        self.expect("punct", ";")
        if len(parts) < 2:
            raise self.fail("a union needs at least two results")
        for part in parts:
            if part not in self.script.queries and part not in self.script.unions:
                raise ScriptError(
                    f"union {name!r} references unknown result {part!r}",
                    tok.line,
                    tok.column,
                )
        first = self.shapes[parts[0]]
        for part, part_tok in zip(parts[1:], part_toks[1:]):
            if self.shapes[part] != first:
                raise ScriptError(
                    f"union {name!r}: {part!r} gives {_columns(self.shapes[part])} "
                    f"but {parts[0]!r} gives {_columns(first)}",
                    part_tok.line,
                    part_tok.column,
                )
        self.shapes[name] = first
        decl = UnionDecl(name, tuple(parts))
        self.script.unions[name] = decl
        self.script.decls += (decl,)

    def parse_setup(self) -> None:
        tok = self.peek()
        name = self.ident("setup name")
        self.fresh(self.script.setups, name, "setup", tok)
        self.expect("punct", "=")
        diagram_tok = self.peek()
        diagram_name = self.ident("diagram name")
        if diagram_name not in self.script.diagrams:
            raise ScriptError(
                f"unknown diagram {diagram_name!r}", diagram_tok.line, diagram_tok.column
            )
        decl = self.script.diagrams[diagram_name]
        self.expect("punct", "(")
        rel_names: list[str] = []
        while not (self.peek().kind == "punct" and self.peek().text == ")"):
            if rel_names:
                self.expect("punct", ",")
            rel_tok = self.peek()
            rel_name = self.ident("relation name")
            if rel_name not in self.script.relations and rel_name not in self.script.consts:
                raise ScriptError(
                    f"unknown relation {rel_name!r}", rel_tok.line, rel_tok.column
                )
            rel_names.append(rel_name)
        self.expect("punct", ")")
        self.expect("punct", ";")

        hom = decl.hom
        if hom is None or len(hom.args) != 1 or hom.args[0] != hom.ret:
            raise ScriptError(
                f"setup {name!r}: diagram codomain must be [Z => Z]",
                tok.line,
                tok.column,
            )
        if len(rel_names) != decl.typed.arity:
            raise ScriptError(
                f"setup {name!r}: diagram has {decl.typed.arity} inner stars, "
                f"got {len(rel_names)} relations",
                tok.line,
                tok.column,
            )
        for i, rel_name in enumerate(rel_names):
            star = (
                self.script.relations[rel_name].star
                if rel_name in self.script.relations
                else self.script.consts[rel_name].star
            )
            if star != decl.typed.inner[i]:
                raise ScriptError(
                    f"setup {name!r}: relation {rel_name!r} does not match "
                    f"inner star {i + 1}",
                    tok.line,
                    tok.column,
                )
        setup = SetupDecl(name, diagram_name, tuple(rel_names), hom.ret)
        self.script.setups[name] = setup
        self.script.decls += (setup,)


def _columns(star: TypedStar) -> str:
    return "(" + ", ".join(f"{w}:{star.domain(w).name}" for w in star.wires) + ")"


def parse_script(text: str) -> Script:
    """Parse and resolve a script; raise :class:`ScriptError` with position
    information on the first problem."""
    return _Parser(tokenize(text)).parse()


def parse_query_text(text: str, script: Script) -> ConjunctiveQuery:
    """Parse a standalone SELECT expression against an existing script."""
    parser = _Parser(tokenize(text))
    parser.script = script
    query = parser.parse_select()
    if parser.peek().kind == "punct" and parser.peek().text == ";":
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
