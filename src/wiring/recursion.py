"""Fixed-point recursion over finite domains.

A recursive setup is a relation on the hom star ``[Z => Z]``, usually
obtained by feeding chosen relations through a diagram whose codomain is
that hom star.  One step applies the setup relation to a candidate
relation on ``Z`` through the evaluation diagram: ``step`` is
:func:`wiring.closed.apply_hom`.  The step is monotone; its least fixed
point is therefore empty, and its greatest is the set of states reachable
from a cycle of the transition graph, the setup relation read from its
argument copy to its result.  Pruning finds it: it starts from the
transition targets, the step of the complete relation, and each round
drops the states of in-degree 0, so ``r`` rounds leave the step applied
``r + 1`` times to the complete relation, until no state has in-degree 0.
A result keeps the fixed point and the states each pruning round dropped,
which are disjoint, so it is linear in the first iterate; the chain of
iterates is rebuilt from them only when asked for.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .closed import apply_hom, internal_hom
from .errors import InterfaceError, ValidationError
from .relations import Relation, evaluate
from .stars import Frozen
from .typed import TypedStar, TypedWiringDiagram


class RecursiveSetup(Frozen):
    """A relation on the hom star ``[z => z]``, which ``hom`` names."""

    def __init__(self, z: TypedStar, relation: Relation):
        hom = internal_hom([z], z)
        if relation.star != hom.star:
            raise InterfaceError("setup relation does not live on [z => z]")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "hom", hom)

    def __repr__(self) -> str:
        return f"RecursiveSetup(z={self.z!r}, relation={self.relation!r})"


class FixedPointResult(NamedTuple):
    """A fixed point, the states each pruning round dropped, and the mode.

    ``pruned[r]`` is the frozenset of states that round ``r`` dropped; the
    sets are disjoint from each other and from ``relation``.  ``trace``,
    the chain of iterates, is rebuilt from them on each request.
    """

    relation: Relation
    pruned: tuple[frozenset[tuple], ...]
    mode: str

    @property
    def iterations(self) -> int:
        """The pruning rounds plus one, which is ``len(trace) - 1``."""
        return len(self.pruned) + 1

    @property
    def trace(self) -> tuple[Relation, ...]:
        """The iterates: ``trace[r]`` is the fixed point plus the states
        dropped in round ``r`` or later, and the last entry is the fixed
        point again, the same object as the one before it."""
        chain = [self.relation]
        states = self.relation.tuples
        for dropped in reversed(self.pruned):
            states = states | dropped
            chain.append(Relation._trusted(star=self.relation.star, tuples=states))
        chain.reverse()
        chain.append(self.relation)
        return tuple(chain)


def build_setup(
    z: TypedStar, phi: TypedWiringDiagram, rels: Sequence[Relation]
) -> RecursiveSetup:
    """Feed ``rels`` through ``phi : (X1..Xn) -> [z => z]`` into a setup."""
    if phi.outer != internal_hom([z], z).star:
        raise InterfaceError("diagram's codomain is not the recursive star [z => z]")
    return RecursiveSetup(z, evaluate(phi, rels))


def step(setup: RecursiveSetup, rel: Relation) -> Relation:
    """One application of the setup to a candidate relation on ``z``."""
    return apply_hom(setup.hom, setup.relation, [rel])


def fixed_point(setup: RecursiveSetup, mode: str = "greatest") -> FixedPointResult:
    """The extreme fixed point of the step function, with the states each
    round of its chain dropped.

    ``mode="least"`` returns the empty relation and prunes nothing.
    ``mode="greatest"`` prunes as the module docstring says, so that
    ``trace[r]`` is the step applied ``r + 1`` times to the complete
    relation.
    """
    if mode not in ("least", "greatest"):
        raise ValidationError(f"unknown mode {mode!r}, expected 'least' or 'greatest'")
    if mode == "least":
        return FixedPointResult(relation=Relation.empty(setup.z), pruned=(), mode=mode)
    n = len(setup.z.wires)
    transition: dict[tuple, list[tuple]] = {}
    for t in setup.relation.aligned_tuples(setup.hom.star.wires):
        transition.setdefault(t[:n], []).append(t[n:])
    live = {t for targets in transition.values() for t in targets}
    indegree = Counter(t for s in live for t in transition.get(s, ()))
    dropped = frozenset([s for s in live if not indegree[s]])
    pruned = []
    while dropped:
        live.difference_update(dropped)
        pruned.append(dropped)
        successors = [t for s in dropped for t in transition.get(s, ())]
        indegree.subtract(successors)
        dropped = frozenset([t for t in successors if not indegree[t]])
    relation = Relation._trusted(star=setup.z, tuples=frozenset(live))
    return FixedPointResult(relation=relation, pruned=tuple(pruned), mode=mode)
