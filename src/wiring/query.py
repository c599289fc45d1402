"""Compiling SELECT/FROM/WHERE queries to wiring diagrams.

A query's FROM aliases become inner stars, one per occurrence; every
attribute occurrence becomes a solder point, and the WHERE equalities
quotient the occurrences into cables (:func:`wiring.stars.quotient`).
Constants appearing in the WHERE clause are materialized as single-tuple
inner relations (:func:`const_relation`) on fresh one-wire stars soldered
into their equality class.  The SELECT list becomes the outer star.

Evaluating the compiled diagram against the predicate relations is exactly
the product-filter-project reading of the query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import ScriptError
from .relations import Relation, evaluate
from .stars import Star, WiringDiagram, quotient
from .typed import TypedStar, TypedWiringDiagram, Value, ValueDomain

if TYPE_CHECKING:  # pragma: no cover
    from .dsl import Script

CONST_WIRE = "value"


def const_relation(value: Value, domain: ValueDomain) -> Relation:
    """The one-tuple relation holding ``value`` on the one-wire star ``CONST_WIRE``."""
    return Relation(TypedStar(Star((CONST_WIRE,)), {CONST_WIRE: domain}), [(value,)])


class AttrRef(NamedTuple):
    alias: str
    attr: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr}"


class Condition(NamedTuple):
    """``left = right`` between attributes, or ``left = literal``."""

    left: AttrRef
    right: AttrRef | None = None
    literal: Value | None = None


class ConjunctiveQuery(NamedTuple):
    select: tuple[AttrRef, ...]
    tables: tuple[tuple[str, str], ...]  # (predicate name, alias)
    conditions: tuple[Condition, ...]


class CompiledQuery(NamedTuple):
    """A query lowered to a diagram plus the plan for its inner relations.

    ``inputs`` names the script relation or constant to plug into each of
    the first ``len(inputs)`` inner stars; ``literal_relations`` fill the
    remaining stars, one per distinct WHERE constant.
    """

    query: ConjunctiveQuery
    diagram: TypedWiringDiagram
    inputs: tuple[str, ...]
    literal_relations: tuple[Relation, ...]

    def input_relations(self, relations: Mapping[str, Relation]) -> list[Relation]:
        rels = [relations[name] for name in self.inputs]
        rels.extend(self.literal_relations)
        return rels


class QueryError(ScriptError):
    """A query that does not resolve against a script.  ``at`` is the path
    to the name or literal at fault, ``query[at[0]][at[1]]...``, or empty
    when no one name is at fault."""

    def __init__(self, message: str, *at: int):
        super().__init__(message)
        self.at = at


def _predicate_star(script: "Script", name: str, *at: int) -> TypedStar:
    if name in script.relations:
        return script.relations[name].star
    if name in script.consts:
        return script.consts[name].star
    raise QueryError(f"FROM references unknown predicate {name!r}", *at)


def validate_query(query: ConjunctiveQuery, script: "Script") -> dict[str, TypedStar]:
    """Resolve aliases to typed stars; reject bad references and mixed domains."""
    by_alias: dict[str, TypedStar] = {}
    for k, (pred, alias) in enumerate(query.tables):
        if alias in by_alias:
            raise QueryError(f"duplicate FROM alias {alias!r}", 1, k, 1)
        by_alias[alias] = _predicate_star(script, pred, 1, k, 0)

    def domain_of(ref: AttrRef, *at: int) -> ValueDomain:
        if ref.alias not in by_alias:
            raise QueryError(f"reference {ref} names unknown alias {ref.alias!r}", *at, 0)
        star = by_alias[ref.alias]
        if ref.attr not in star.star:
            raise QueryError(f"alias {ref.alias!r} has no attribute {ref.attr!r}", *at, 1)
        return star.domain(ref.attr)

    for i, ref in enumerate(query.select):
        domain_of(ref, 0, i)
    for j, cond in enumerate(query.conditions):
        left_dom = domain_of(cond.left, 2, j, 0)
        if cond.right is not None:
            if domain_of(cond.right, 2, j, 1) != left_dom:
                raise QueryError(
                    f"cannot equate {cond.left} ({left_dom.name}) with "
                    f"{cond.right} ({domain_of(cond.right).name})",
                    2, j, 1, 1,
                )
        else:
            if cond.literal not in left_dom:
                raise QueryError(
                    f"constant {cond.literal!r} is outside domain {left_dom.name!r} "
                    f"of {cond.left}",
                    2, j, 2,
                )
    if not query.select:
        raise QueryError("SELECT list must not be empty")
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
    for i, name in enumerate(names):
        if names.index(name) < i:  # at the first column that repeats one before it
            raise QueryError("SELECT list repeats a column", 0, i, 1)
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

    nodes = [(alias, attr) for alias in aliases for attr in by_alias[alias].wires]
    literals: dict[tuple, Relation] = {}
    pairs = []
    for cond in query.conditions:
        left = (cond.left.alias, cond.left.attr)
        if cond.right is not None:
            pairs.append((left, (cond.right.alias, cond.right.attr)))
        else:
            dom = by_alias[cond.left.alias].domain(cond.left.attr)
            node = ("lit", cond.literal, dom.name)
            if node not in literals:
                literals[node] = const_relation(cond.literal, dom)
            pairs.append((left, node))
    class_of = quotient([*nodes, *literals], pairs)
    # Every literal is equated with an attribute, so the attributes meet every class.
    cable_domains = {class_of[a, w]: by_alias[a].domain(w) for a, w in nodes}

    inner_stars = [by_alias[a].star for a in aliases]
    inner_stars += [rel.star.star for rel in literals.values()]
    inner_map = {
        (i, w): class_of[a, w] for i, a in enumerate(aliases) for w in by_alias[a].wires
    }
    for i, node in enumerate(literals, start=len(aliases)):
        inner_map[(i, CONST_WIRE)] = class_of[node]
    outer = _result_star(query.select, by_alias)
    diagram = WiringDiagram(
        inner=tuple(inner_stars),
        outer=outer.star,
        cables=tuple(range(len(cable_domains))),
        inner_map=inner_map,
        outer_map={
            name: class_of[ref.alias, ref.attr] for name, ref in zip(outer.wires, query.select)
        },
    )
    return CompiledQuery(
        query=query,
        diagram=TypedWiringDiagram(diagram, cable_domains),
        inputs=tuple(pred for pred, _alias in query.tables),
        literal_relations=tuple(literals.values()),
    )


def evaluate_query(
    compiled: CompiledQuery, relations: Mapping[str, Relation]
) -> Relation:
    """Run a compiled query against named predicate relations."""
    return evaluate(compiled.diagram, compiled.input_relations(relations))
