"""Typed stars and typed wiring diagrams.

Every wire and cable carries a finite value domain, and the solder maps must
respect the typing: a wire's domain equals the domain of the cable it is
soldered to.  Domains are nominal: two domains with the same values but
different names are distinct types.

:func:`lift_uniform` types every wire of a plain diagram with one domain,
and ``.diagram`` strips the typing again: the diagram under a uniform lift
is the original one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InterfaceError, TypeMismatchError, ValidationError
from .stars import (
    Cable,
    Star,
    WiringDiagram,
    canonicalize_with_renaming,
    compose_with_classes,
    identity_diagram,
)

Value = str | int


@dataclass(frozen=True)
class ValueDomain:
    """A named finite set of atomic values (text or integers)."""

    name: str
    values: tuple[Value, ...]

    def __init__(self, name: str, values: Iterable[Value] = ()):
        values = tuple(values)
        members = frozenset(values)
        if len(members) != len(values):
            raise ValidationError(f"domain {name!r} has duplicate values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_members", members)

    @classmethod
    def int_range(cls, name: str, lo: int, hi: int) -> "ValueDomain":
        """Sugar for the integer domain ``{lo, ..., hi}``."""
        if hi < lo:
            raise ValidationError(f"empty range {lo}..{hi}")
        return cls(name, tuple(range(lo, hi + 1)))

    def __contains__(self, value) -> bool:
        return value in self._members

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"ValueDomain({self.name!r}, {len(self.values)} values)"


@dataclass(frozen=True, eq=False)
class TypedStar:
    """A star whose wires carry value domains."""

    star: Star
    types: dict[str, ValueDomain]

    def __init__(self, star: Star | Iterable[str], types: Mapping[str, ValueDomain]):
        if not isinstance(star, Star):
            star = Star(star)
        types = dict(types)
        for w in star.wires:
            if w not in types:
                raise ValidationError(f"wire {w!r} has no declared domain")
        for w in types:
            if w not in star:
                raise ValidationError(f"typing mentions unknown wire {w!r}")
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "types", types)

    @classmethod
    def uniform(cls, star: Star | Iterable[str], domain: ValueDomain) -> "TypedStar":
        if not isinstance(star, Star):
            star = Star(star)
        return cls(star, {w: domain for w in star.wires})

    @property
    def wires(self) -> tuple[str, ...]:
        return self.star.wires

    def domain(self, wire: str) -> ValueDomain:
        return self.types[wire]

    def __len__(self) -> int:
        return len(self.star)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypedStar):
            return NotImplemented
        return self.star == other.star and self.types == other.types

    def __hash__(self) -> int:
        return hash((self.star, tuple(sorted((w, d.name) for w, d in self.types.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{self.types[w].name}" for w in self.wires)
        return f"TypedStar({{{body}}})"


@dataclass(frozen=True, eq=False)
class TypedWiringDiagram:
    """A wiring diagram whose cables carry domains agreeing with every wire.

    Construction validates the commuting condition and reports the first
    wire whose domain disagrees with its cable's.
    """

    inner: tuple[TypedStar, ...]
    outer: TypedStar
    diagram: WiringDiagram
    cable_types: dict[Cable, ValueDomain]

    def __init__(
        self,
        diagram: WiringDiagram,
        inner: Sequence[TypedStar],
        outer: TypedStar,
        cable_types: Mapping[Cable, ValueDomain],
    ):
        inner = tuple(inner)
        cable_types = dict(cable_types)
        if len(inner) != diagram.arity:
            raise InterfaceError(
                f"expected {diagram.arity} inner typings, got {len(inner)}"
            )
        for i, tstar in enumerate(inner):
            if tstar.star != diagram.inner[i]:
                raise InterfaceError(f"typing of inner star {i} names different wires")
        if outer.star != diagram.outer:
            raise InterfaceError("outer typing names different wires")
        for c in diagram.cables:
            if c not in cable_types:
                raise TypeMismatchError(f"cable {c!r} has no declared domain")
        cables = set(diagram.cables)
        for c in cable_types:
            if c not in cables:
                raise TypeMismatchError(f"cable typing mentions unknown cable {c!r}")
        for (i, w), c in diagram.inner_map.items():
            if inner[i].domain(w) != cable_types[c]:
                raise TypeMismatchError(
                    f"wire {w!r} of inner star {i} has domain "
                    f"{inner[i].domain(w).name!r} but its cable {c!r} has "
                    f"{cable_types[c].name!r}"
                )
        for w, c in diagram.outer_map.items():
            if outer.domain(w) != cable_types[c]:
                raise TypeMismatchError(
                    f"outer wire {w!r} has domain {outer.domain(w).name!r} "
                    f"but its cable {c!r} has {cable_types[c].name!r}"
                )
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "cable_types", cable_types)

    @property
    def arity(self) -> int:
        return len(self.inner)

    def __repr__(self) -> str:
        inner = ", ".join(repr(s) for s in self.inner)
        return f"TypedWiringDiagram([{inner}] -> {self.outer!r})"


def lift_uniform(wd: WiringDiagram, domain: ValueDomain) -> TypedWiringDiagram:
    """Type every wire and cable of ``wd`` with ``domain``."""
    return TypedWiringDiagram(
        diagram=wd,
        inner=tuple(TypedStar.uniform(s, domain) for s in wd.inner),
        outer=TypedStar.uniform(wd.outer, domain),
        cable_types={c: domain for c in wd.cables},
    )


def typed_identity(tstar: TypedStar) -> TypedWiringDiagram:
    return TypedWiringDiagram(
        diagram=identity_diagram(tstar.star),
        inner=(tstar,),
        outer=tstar,
        cable_types={w: tstar.domain(w) for w in tstar.wires},
    )


def typed_compose(
    outer_twd: TypedWiringDiagram, inner_twds: Sequence[TypedWiringDiagram]
) -> TypedWiringDiagram:
    """Compose underlying diagrams; merged cables keep their common domain."""
    inner_twds = tuple(inner_twds)
    if len(inner_twds) != outer_twd.arity:
        raise InterfaceError(
            f"expected {outer_twd.arity} inner diagrams, got {len(inner_twds)}"
        )
    for i, twd in enumerate(inner_twds):
        if twd.outer != outer_twd.inner[i]:
            raise InterfaceError(f"typing mismatch at interface star {i}")

    composite, class_of = compose_with_classes(
        outer_twd.diagram, [t.diagram for t in inner_twds]
    )
    # Any source cable in a class determines its domain: cables are only
    # identified through shared interface wires, which both sides type alike.
    cable_types: dict[Cable, ValueDomain] = {}
    for i, twd in enumerate(inner_twds):
        for c, dom in twd.cable_types.items():
            cable_types.setdefault(class_of[("i", i, c)], dom)
    for c, dom in outer_twd.cable_types.items():
        cable_types.setdefault(class_of[("o", c)], dom)

    flat_inner: list[TypedStar] = []
    for twd in inner_twds:
        flat_inner.extend(twd.inner)
    return TypedWiringDiagram(
        diagram=composite,
        inner=tuple(flat_inner),
        outer=outer_twd.outer,
        cable_types=cable_types,
    )


def canonicalize_typed(twd: TypedWiringDiagram) -> TypedWiringDiagram:
    """Canonical cable naming for typed diagrams.

    Attached cables are ordered as in :func:`wiring.stars.canonicalize`;
    floating cables, invisible to the untyped key, are ordered by domain so
    that typed equality is well defined.
    """
    types = twd.cable_types
    diagram, renamed = canonicalize_with_renaming(
        twd.diagram, lambda c: (types[c].name, str(types[c].values))
    )
    return TypedWiringDiagram(
        diagram=diagram,
        inner=twd.inner,
        outer=twd.outer,
        cable_types={renamed[c]: d for c, d in types.items()},
    )


def typed_diagrams_equal(a: TypedWiringDiagram, b: TypedWiringDiagram) -> bool:
    """Canonical morphism equality, typings included."""
    if a.arity != b.arity or len(a.diagram.cables) != len(b.diagram.cables):
        return False
    if a.outer != b.outer or any(x != y for x, y in zip(a.inner, b.inner)):
        return False
    ca, cb = canonicalize_typed(a), canonicalize_typed(b)
    return (
        ca.diagram.inner_map == cb.diagram.inner_map
        and ca.diagram.outer_map == cb.diagram.outer_map
        and ca.cable_types == cb.cable_types
    )
