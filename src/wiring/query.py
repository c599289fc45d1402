"""Compiling SELECT/FROM/WHERE queries to wiring diagrams.

A query's FROM aliases become inner stars, one per occurrence; every
attribute occurrence becomes a solder point, and the WHERE equalities
quotient the occurrences into cables (union-find).  Constants appearing in
the WHERE clause are materialized as single-tuple inner relations on fresh
one-wire stars soldered into their equality class.  The SELECT list becomes
the outer star.

Evaluating the compiled diagram against the predicate relations is exactly
the product-filter-project reading of the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ScriptError
from .relations import Relation, evaluate
from .stars import Star, WiringDiagram, _UnionFind
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

if TYPE_CHECKING:  # pragma: no cover
    from .dsl import Script

CONST_WIRE = "value"


@dataclass(frozen=True)
class AttrRef:
    alias: str
    attr: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True)
class Condition:
    """``left = right`` between attributes, or ``left = literal``."""

    left: AttrRef
    right: AttrRef | None = None
    literal: Value | None = None

    def __str__(self) -> str:
        if self.right is not None:
            return f"{self.left} = {self.right}"
        lit = f"'{self.literal}'" if isinstance(self.literal, str) else str(self.literal)
        return f"{self.left} = {lit}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    select: tuple[AttrRef, ...]
    tables: tuple[tuple[str, str], ...]  # (predicate name, alias)
    conditions: tuple[Condition, ...]


@dataclass(frozen=True)
class CompiledQuery:
    """A query lowered to a diagram plus the plan for its inner relations.

    ``inputs`` names the script relation or constant to plug into each of
    the first ``len(inputs)`` inner stars; ``literal_relations`` fill the
    remaining stars, one per distinct WHERE constant.
    """

    query: ConjunctiveQuery
    diagram: TypedWiringDiagram
    inputs: tuple[tuple[str, str], ...]  # (kind, name), kind in {"rel", "const"}
    literal_relations: tuple[Relation, ...]

    def input_relations(self, relations: Mapping[str, Relation]) -> list[Relation]:
        rels = [relations[name] for _kind, name in self.inputs]
        rels.extend(self.literal_relations)
        return rels


def _predicate_star(script: "Script", name: str) -> tuple[str, TypedStar]:
    if name in script.relations:
        return "rel", script.relations[name].star
    if name in script.consts:
        return "const", script.consts[name].star
    raise ScriptError(f"FROM references unknown predicate {name!r}")


def validate_query(query: ConjunctiveQuery, script: "Script") -> dict[str, TypedStar]:
    """Resolve aliases to typed stars; reject bad references and mixed domains."""
    by_alias: dict[str, TypedStar] = {}
    for pred, alias in query.tables:
        if alias in by_alias:
            raise ScriptError(f"duplicate FROM alias {alias!r}")
        _kind, star = _predicate_star(script, pred)
        by_alias[alias] = star

    def domain_of(ref: AttrRef) -> ValueDomain:
        if ref.alias not in by_alias:
            raise ScriptError(f"reference {ref} names unknown alias {ref.alias!r}")
        star = by_alias[ref.alias]
        if ref.attr not in star.star:
            raise ScriptError(f"alias {ref.alias!r} has no attribute {ref.attr!r}")
        return star.domain(ref.attr)

    for ref in query.select:
        domain_of(ref)
    for cond in query.conditions:
        left_dom = domain_of(cond.left)
        if cond.right is not None:
            if domain_of(cond.right) != left_dom:
                raise ScriptError(
                    f"cannot equate {cond.left} ({left_dom.name}) with "
                    f"{cond.right} ({domain_of(cond.right).name})"
                )
        else:
            if cond.literal not in left_dom:
                raise ScriptError(
                    f"constant {cond.literal!r} is outside domain {left_dom.name!r} "
                    f"of {cond.left}"
                )
    if not query.select:
        raise ScriptError("SELECT list must not be empty")
    return by_alias


def _result_star(
    select: Sequence[AttrRef], by_alias: Mapping[str, TypedStar]
) -> TypedStar:
    """One wire per SELECT column, named by its attribute (prefixed with the
    alias when two columns share an attribute name)."""
    counts: dict[str, int] = {}
    for ref in select:
        counts[ref.attr] = counts.get(ref.attr, 0) + 1
    names = [
        ref.attr if counts[ref.attr] == 1 else f"{ref.alias}_{ref.attr}"
        for ref in select
    ]
    if len(set(names)) != len(names):
        raise ScriptError("SELECT list repeats a column")
    return TypedStar(
        Star(names),
        {name: by_alias[ref.alias].domain(ref.attr) for name, ref in zip(names, select)},
    )


def result_star(query: ConjunctiveQuery, script: "Script") -> TypedStar:
    """The typed star the query's result relation lives on."""
    return _result_star(query.select, validate_query(query, script))


def compile_query(query: ConjunctiveQuery, script: "Script") -> CompiledQuery:
    """Lower the query to a typed wiring diagram."""
    by_alias = validate_query(query, script)
    aliases = [alias for _pred, alias in query.tables]

    uf = _UnionFind()
    for alias in aliases:
        for attr in by_alias[alias].wires:
            uf.add((alias, attr))
    literals: list[tuple[Value, ValueDomain]] = []
    for cond in query.conditions:
        left = (cond.left.alias, cond.left.attr)
        if cond.right is not None:
            uf.union(left, (cond.right.alias, cond.right.attr))
        else:
            dom = by_alias[cond.left.alias].domain(cond.left.attr)
            node = ("lit", cond.literal, dom.name)
            if (cond.literal, dom) not in literals:
                literals.append((cond.literal, dom))
            uf.add(node)
            uf.union(left, node)

    cable_ids: dict = {}
    cable_domains: dict = {}

    def cable_of(node, domain: ValueDomain):
        root = uf.find(node)
        if root not in cable_ids:
            cable_ids[root] = len(cable_ids)
            cable_domains[cable_ids[root]] = domain
        return cable_ids[root]

    inner_stars: list[TypedStar] = [by_alias[a] for a in aliases]
    inner_map: dict = {}
    for i, alias in enumerate(aliases):
        star = by_alias[alias]
        for attr in star.wires:
            inner_map[(i, attr)] = cable_of((alias, attr), star.domain(attr))
    literal_relations: list[Relation] = []
    for value, dom in literals:
        i = len(inner_stars)
        const_star = TypedStar(Star((CONST_WIRE,)), {CONST_WIRE: dom})
        inner_stars.append(const_star)
        inner_map[(i, CONST_WIRE)] = cable_of(("lit", value, dom.name), dom)
        literal_relations.append(Relation(const_star, [(value,)]))

    outer = _result_star(query.select, by_alias)
    outer_map = {
        name: cable_of((ref.alias, ref.attr), outer.domain(name))
        for name, ref in zip(outer.wires, query.select)
    }

    diagram = WiringDiagram(
        inner=tuple(t.star for t in inner_stars),
        outer=outer.star,
        cables=tuple(range(len(cable_ids))),
        inner_map=inner_map,
        outer_map=outer_map,
    )
    twd = TypedWiringDiagram(diagram, tuple(inner_stars), outer, cable_domains)
    inputs = tuple(
        (_predicate_star(script, pred)[0], pred) for pred, _alias in query.tables
    )
    return CompiledQuery(
        query=query,
        diagram=twd,
        inputs=inputs,
        literal_relations=tuple(literal_relations),
    )


def evaluate_query(
    compiled: CompiledQuery, relations: Mapping[str, Relation]
) -> Relation:
    """Run a compiled query against named predicate relations."""
    return evaluate(compiled.diagram, compiled.input_relations(relations))
