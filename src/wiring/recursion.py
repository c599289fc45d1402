"""Fixed-point recursion over finite domains.

A recursive setup is a relation on the hom star ``[Z => Z]``, usually
obtained by feeding chosen relations through a diagram whose codomain is
that hom star.  One step applies the setup relation to a candidate
relation on ``Z`` through the evaluation diagram: ``step`` is
:func:`wiring.closed.apply_hom`.  The step is monotone; its least fixed
point is therefore empty, and its greatest is the set of states reachable
from a cycle of the transition graph, found by pruning states of
in-degree 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .closed import HomStar, apply_hom, internal_hom
from .errors import InterfaceError, ValidationError
from .relations import Relation, evaluate
from .stars import WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, ValueDomain


@dataclass(frozen=True, eq=False)
class RecursiveSetup:
    """A relation on the hom star ``[z => z]``, which ``hom`` names."""

    z: TypedStar
    relation: Relation
    hom: HomStar = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "hom", internal_hom([self.z], self.z))
        if self.relation.star != self.hom.star:
            raise InterfaceError("setup relation does not live on [z => z]")


@dataclass(frozen=True)
class FixedPointResult:
    relation: Relation
    trace: tuple[Relation, ...]
    mode: str

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def build_setup(
    z: TypedStar, phi: TypedWiringDiagram, rels: Sequence[Relation]
) -> RecursiveSetup:
    """Feed ``rels`` through ``phi : (X1..Xn) -> [z => z]`` into a setup."""
    if phi.outer != internal_hom([z], z).star:
        raise InterfaceError("diagram's codomain is not the recursive star [z => z]")
    return RecursiveSetup(z, evaluate(phi, rels))


def setup_from_relation(z: TypedStar, relation: Relation) -> RecursiveSetup:
    """Wrap an already-computed relation on ``[z => z]`` as a setup."""
    return RecursiveSetup(z, relation)


def step(setup: RecursiveSetup, rel: Relation) -> Relation:
    """One application of the setup to a candidate relation on ``z``."""
    return apply_hom(setup.hom, setup.relation, [rel])


def is_fixed_point(setup: RecursiveSetup, rel: Relation) -> bool:
    return step(setup, rel) == rel


def fixed_point(setup: RecursiveSetup, mode: str = "greatest") -> FixedPointResult:
    """The extreme fixed point of the step function, with its chain.

    ``mode="least"`` returns the empty relation at once, since the step of
    the empty relation is empty; its trace is ``(empty, empty)``.

    ``mode="greatest"`` indexes the setup relation by its argument-copy
    readout, starts from the targets of that transition relation, which
    are the step of the complete relation, and counts each target's
    in-degree from targets only.  Each round drops the states whose
    in-degree is 0 and lowers the in-degree of their successors, so the
    states left after ``r`` rounds are the step applied ``r + 1`` times to
    the complete relation; ``trace[r]`` is that set.  When no state has
    in-degree 0 the rest is the greatest fixed point: every state on it is
    reachable from a cycle.  The trace ends with that entry repeated, so
    ``iterations`` counts the pruning rounds plus one.
    """
    if mode not in ("least", "greatest"):
        raise ValidationError(f"unknown mode {mode!r}, expected 'least' or 'greatest'")
    if mode == "least":
        empty = Relation.empty(setup.z)
        return FixedPointResult(relation=empty, trace=(empty, empty), mode=mode)
    n = len(setup.z.wires)
    transition: dict[tuple, list[tuple]] = {}
    for t in setup.relation.aligned_tuples(setup.hom.star.wires):
        transition.setdefault(t[:n], []).append(t[n:])
    live = {t for targets in transition.values() for t in targets}
    indegree = Counter(t for s in live for t in transition.get(s, ()))
    dropped = {s for s in live if not indegree[s]}
    trace = [Relation._trusted(setup.z, frozenset(live))]
    while dropped:
        live.difference_update(dropped)
        trace.append(Relation._trusted(setup.z, frozenset(live)))
        successors = [t for s in dropped for t in transition.get(s, ())]
        indegree.subtract(successors)
        dropped = {t for t in successors if not indegree[t]}
    trace.append(trace[-1])
    return FixedPointResult(relation=trace[-1], trace=tuple(trace), mode=mode)


@dataclass(frozen=True)
class FactorialFixture:
    """The classic recursive example: decrement, multiply, branch on zero."""

    domain: ValueDomain
    z: TypedStar
    phi: TypedWiringDiagram
    decrement: Relation
    multiplication: Relation
    conditional: Relation
    setup: RecursiveSetup


def factorial_fixture(limit: int) -> FactorialFixture:
    """The recursive setup whose greatest fixed point is the factorial graph
    truncated to values at most ``limit``.

    Three relations over ``{0..limit}`` feed a diagram into ``[F => F]``
    with ``F = {A, B}``:

    * decrement: ``A' = A - 1``, clamped to ``0`` at ``A = 0``;
    * multiplication: ``C = A * B'``, keeping only products within range;
    * conditional: ``B = 1`` when ``A = 0``, otherwise ``B = C``.

    The argument copy of ``F`` reads the primed cables (the inner call),
    the result copy reads ``A`` and ``B``.
    """
    if limit < 1:
        raise ValidationError("limit must be at least 1")
    dom = ValueDomain.int_range("N", 0, limit)
    values = dom.values

    x1 = TypedStar.uniform(["A", "A'"], dom)
    x2 = TypedStar.uniform(["A", "B'", "C"], dom)
    x3 = TypedStar.uniform(["A", "C", "B"], dom)
    z = TypedStar.uniform(["A", "B"], dom)
    hom = internal_hom([z], z)

    decrement = Relation(x1, ((a, a - 1 if a > 0 else 0) for a in values))
    multiplication = Relation(
        x2,
        ((a, b, a * b) for a in values for b in values if a * b <= limit),
    )
    conditional = Relation(
        x3,
        ((a, c, 1 if a == 0 else c) for a in values for c in values),
    )

    cables = ("A", "A'", "B", "B'", "C")
    diagram_inner_map = {
        (0, "A"): "A",
        (0, "A'"): "A'",
        (1, "A"): "A",
        (1, "B'"): "B'",
        (1, "C"): "C",
        (2, "A"): "A",
        (2, "C"): "C",
        (2, "B"): "B",
    }
    outer_map = {
        "ret.A": "A",
        "ret.B": "B",
        "arg1.A": "A'",
        "arg1.B": "B'",
    }
    phi = TypedWiringDiagram(
        diagram=WiringDiagram(
            inner=(x1.star, x2.star, x3.star),
            outer=hom.star.star,
            cables=cables,
            inner_map=diagram_inner_map,
            outer_map=outer_map,
        ),
        cable_types={c: dom for c in cables},
    )
    setup = build_setup(z, phi, [decrement, multiplication, conditional])
    return FactorialFixture(
        domain=dom,
        z=z,
        phi=phi,
        decrement=decrement,
        multiplication=multiplication,
        conditional=conditional,
        setup=setup,
    )
