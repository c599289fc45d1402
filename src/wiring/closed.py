"""Currying for wiring diagrams: internal homs, evaluation, externalization.

The star of diagrams from ``(Y1, ..., Yn)`` to ``Z`` is the disjoint union
of all their wires, realized here by tagging: wire ``w`` of the i-th
argument star becomes ``arg<i>.w`` (1-based) and wire ``z`` of the result
star becomes ``ret.z``.  A diagram into such a hom star can be externalized
into a diagram that takes the ``Yi`` as extra inner stars, and back; the two
re-routings are mutually inverse.

:func:`apply_hom` is the relational reading of a hom star: a relation on
``[Y => Z]`` acts as a function from relations on the ``Yi`` to a relation
on ``Z``, computed by feeding everything through the evaluation diagram.
That diagram is no new construction: it is the externalization of the
identity on ``[Y => Z]``, ``ev = externalize(id, hom)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .errors import InterfaceError, ValidationError
from .relations import Relation, evaluate
from .stars import Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, typed_identity

TAG_SEPARATOR = "."


def _arg_tag(i: int, wire: str) -> str:
    return f"arg{i + 1}{TAG_SEPARATOR}{wire}"


def _ret_tag(wire: str) -> str:
    return f"ret{TAG_SEPARATOR}{wire}"


@dataclass(frozen=True)
class HomStar:
    """The typed star of diagrams from ``args`` to ``ret``, with its
    decomposition remembered; ``args`` and ``ret`` determine it."""

    args: tuple[TypedStar, ...]
    ret: TypedStar
    star: TypedStar = field(compare=False)

    def arg_wires(self, i: int) -> list[tuple[str, str]]:
        """Pairs (tagged hom wire, original wire) for the i-th argument star."""
        return [(_arg_tag(i, w), w) for w in self.args[i].wires]

    def ret_wires(self) -> list[tuple[str, str]]:
        return [(_ret_tag(w), w) for w in self.ret.wires]

    @cached_property
    def evaluation(self) -> TypedWiringDiagram:
        """The diagram ``([args => ret], Y1, ..., Yn) -> ret`` that plugs
        argument stars into this hom star: the externalization of the
        identity on the hom star, so its cables are the hom tags."""
        return externalize(typed_identity(self.star), self)


def internal_hom(args: Sequence[TypedStar], ret: TypedStar) -> HomStar:
    """Tagged disjoint union of the argument and result stars."""
    args = tuple(args)
    for tstar in (*args, ret):
        for w in tstar.wires:
            if TAG_SEPARATOR in w:
                raise ValidationError(
                    f"wire {w!r} contains the reserved separator {TAG_SEPARATOR!r}"
                )
    wires: list[str] = []
    types: dict[str, object] = {}
    for i, tstar in enumerate(args):
        for w in tstar.wires:
            tag = _arg_tag(i, w)
            wires.append(tag)
            types[tag] = tstar.domain(w)
    for w in ret.wires:
        tag = _ret_tag(w)
        wires.append(tag)
        types[tag] = ret.domain(w)
    return HomStar(args=args, ret=ret, star=TypedStar(Star(wires), types))


def evaluation_diagram(args: Sequence[TypedStar], ret: TypedStar) -> TypedWiringDiagram:
    """The evaluation diagram of the hom star ``[args => ret]``."""
    return internal_hom(args, ret).evaluation


def externalize(phi: TypedWiringDiagram, hom: HomStar) -> TypedWiringDiagram:
    """Turn ``phi : (X1..Xm) -> [Y => Z]`` into ``(X1..Xm, Y1..Yn) -> Z``.

    The argument copies of the hom star become solder points for the
    adjoined ``Yi``; the result copies become the new outer leg.  Cables are
    untouched.
    """
    if phi.outer != hom.star:
        raise InterfaceError("diagram's outer star is not the stated hom star")
    wd = phi.diagram
    inner_map = dict(wd.inner_map)
    m = phi.arity
    for i in range(len(hom.args)):
        for tag, w in hom.arg_wires(i):
            inner_map[(m + i, w)] = wd.outer_map[tag]
    outer_map = {w: wd.outer_map[tag] for tag, w in hom.ret_wires()}
    diagram = WiringDiagram(
        inner=(*wd.inner, *(t.star for t in hom.args)),
        outer=hom.ret.star,
        cables=wd.cables,
        inner_map=inner_map,
        outer_map=outer_map,
    )
    return TypedWiringDiagram(diagram, phi.cable_types)


def internalize(psi: TypedWiringDiagram, arg_count: int) -> TypedWiringDiagram:
    """Inverse re-routing: curry the last ``arg_count`` inner stars of
    ``psi : (X1..Xm, Y1..Yn) -> Z`` into the codomain ``[Y => Z]``.

    The split must be declared because a cospan does not record which inner
    stars are arguments.
    """
    if not 0 <= arg_count <= psi.arity:
        raise ValidationError(
            f"cannot split off {arg_count} argument stars from {psi.arity}"
        )
    m = psi.arity - arg_count
    hom = internal_hom(psi.inner[m:], psi.outer)
    wd = psi.diagram
    inner_map = {(i, w): c for (i, w), c in wd.inner_map.items() if i < m}
    outer_map: dict = {}
    for i in range(arg_count):
        for tag, w in hom.arg_wires(i):
            outer_map[tag] = wd.inner_map[(m + i, w)]
    for tag, w in hom.ret_wires():
        outer_map[tag] = wd.outer_map[w]
    diagram = WiringDiagram(
        inner=wd.inner[:m],
        outer=hom.star.star,
        cables=wd.cables,
        inner_map=inner_map,
        outer_map=outer_map,
    )
    return TypedWiringDiagram(diagram, psi.cable_types)


def apply_hom(hom: HomStar, rel: Relation, args: Sequence[Relation]) -> Relation:
    """Apply a relation on ``[Y => Z]`` to relations on the ``Yi``.

    Equivalent to keeping the result-copy readout of every hom tuple whose
    argument copies lie in the given relations.
    """
    args = tuple(args)
    if rel.star != hom.star:
        raise InterfaceError("relation does not live on the stated hom star")
    if len(args) != len(hom.args):
        raise InterfaceError(f"expected {len(hom.args)} argument relations")
    for i, r in enumerate(args):
        if r.star != hom.args[i]:
            raise InterfaceError(f"argument relation {i} does not match its star")
    return evaluate(hom.evaluation, [rel, *args])
