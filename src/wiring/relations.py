"""Relations on typed stars and their evaluation through wiring diagrams.

A relation on a typed star is a finite set of well-typed assignments of its
wires.  Feeding relations through a typed wiring diagram produces the
relation on the outer star consisting of every outer readout ``c . g`` of a
cable assignment ``c`` whose restriction ``c . f_i`` lies in the i-th input
relation.

:func:`evaluate` computes this as a conjunctive query.  :func:`plan_join`
fixes the join order from the input sizes: the smallest relation first,
then always the smallest relation that shares a cable with those already
joined, so a cross product happens only between disconnected parts of the
diagram.  Partial results are tuples with one slot per cable still needed;
each step indexes whichever side is smaller, the partial tuples or the
relation's tuples, on the shared cables.  Outer cables that no inner wire
touches are filled in last with every value of their domain, and the size
of that expansion is checked against ``ENUMERATION_LIMIT`` first.

:func:`evaluate_naive` transcribes the definition literally, enumerating
every cable assignment, and serves as the oracle the fast path must agree
with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import EnumerationLimitError, InterfaceError, ValidationError
from .stars import Cable
from .typed import TypedStar, TypedWiringDiagram, Value

ENUMERATION_LIMIT = 10_000_000  # tuples an evaluation may enumerate


@dataclass(frozen=True, eq=False)
class Relation:
    """A finite set of assignments of a typed star's wires.

    Tuples are stored aligned with ``star.wires``; the empty star carries
    exactly two relations, the empty one and ``{()}``, so relations on it
    are boolean valued.
    """

    star: TypedStar
    tuples: frozenset[tuple[Value, ...]]

    def __init__(self, star: TypedStar, tuples: Iterable[tuple[Value, ...]] = ()):
        tuples = frozenset(tuple(t) for t in tuples)
        width = len(star.wires)
        for t in tuples:
            if len(t) != width:
                raise ValidationError(
                    f"tuple {t!r} has {len(t)} entries, star has {width} wires"
                )
            for w, v in zip(star.wires, t):
                if v not in star.domain(w):
                    raise ValidationError(
                        f"value {v!r} is outside domain {star.domain(w).name!r} "
                        f"of wire {w!r}"
                    )
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "tuples", tuples)

    @classmethod
    def from_maps(cls, star: TypedStar, maps: Iterable[Mapping[str, Value]]) -> "Relation":
        return cls(star, (tuple(m[w] for w in star.wires) for m in maps))

    @classmethod
    def empty(cls, star: TypedStar) -> "Relation":
        return cls(star, ())

    @classmethod
    def complete(cls, star: TypedStar) -> "Relation":
        """Every well-typed assignment of the star's wires."""
        return cls(star, product(*(star.domain(w).values for w in star.wires)))

    @classmethod
    def _trusted(cls, star: TypedStar, tuples: frozenset[tuple[Value, ...]]) -> "Relation":
        """A relation on tuples known to fit ``star`` in the order of its
        wires, without the checks of ``__init__``: for tuples taken from
        validated relations or from the cable domains of a validated typed
        diagram."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "star", star)
        object.__setattr__(rel, "tuples", tuples)
        return rel

    def assignments(self) -> list[dict[str, Value]]:
        return [dict(zip(self.star.wires, t)) for t in self.tuples]

    def aligned_tuples(self, wire_order: Sequence[str]) -> frozenset[tuple[Value, ...]]:
        """The tuple set re-expressed in the given wire order."""
        if tuple(wire_order) == self.star.wires:
            return self.tuples
        idx = [self.star.wires.index(w) for w in wire_order]
        return frozenset(tuple(t[i] for i in idx) for t in self.tuples)

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, t) -> bool:
        return tuple(t) in self.tuples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.star != other.star:
            return False
        return self.tuples == other.aligned_tuples(self.star.wires)

    def __hash__(self) -> int:
        order = tuple(sorted(self.star.wires))
        return hash((self.star, self.aligned_tuples(order)))

    def __le__(self, other: "Relation") -> bool:
        if self.star != other.star:
            raise InterfaceError("cannot compare relations on different stars")
        return self.tuples <= other.aligned_tuples(self.star.wires)

    def __repr__(self) -> str:
        return f"Relation({self.star!r}, {len(self.tuples)} tuples)"


def union(a: Relation, b: Relation) -> Relation:
    """Set union of two relations on the same typed star."""
    if a.star != b.star:
        raise InterfaceError("union requires relations on the same typed star")
    return Relation._trusted(a.star, a.tuples | b.aligned_tuples(a.star.wires))


def _check_inputs(twd: TypedWiringDiagram, rels: Sequence[Relation]) -> None:
    if len(rels) != twd.arity:
        raise InterfaceError(f"expected {twd.arity} relations, got {len(rels)}")
    for i, rel in enumerate(rels):
        if rel.star != twd.inner[i]:
            raise InterfaceError(f"relation {i} does not match inner star {i}")


class JoinStep(NamedTuple):
    """One join of the partial tuples with the tuples of inner star ``star``.

    A relation tuple joins a partial tuple when its entries at
    ``key_positions`` equal the partial's at ``key_slots``; it is used at
    all only if its entries at each of ``equal_pairs`` agree (one cable
    soldered to two wires of the star).  The joined partial is
    ``partial + row`` read at ``keep``: the cables a later star or the
    output still needs.  Its slot ``k`` holds cable ``cables[k]``.
    """

    star: int
    key_slots: tuple[int, ...]
    key_positions: tuple[int, ...]
    equal_pairs: tuple[tuple[int, int], ...]
    keep: tuple[int, ...]
    cables: tuple[Cable, ...]


class JoinPlan(NamedTuple):
    """How :func:`evaluate` joins the inputs of one typed diagram.

    The steps run in order, starting from the one empty partial tuple.
    ``free`` lists the outer cables that no inner wire touches; the output
    tuple is ``partial + combo`` read at ``output``, where ``combo`` is one
    assignment of the free cables.
    """

    steps: tuple[JoinStep, ...]
    free: tuple[Cable, ...]
    output: tuple[int, ...]


def plan_join(twd: TypedWiringDiagram, sizes: Sequence[int]) -> JoinPlan:
    """The join plan for inputs of the given sizes.

    The first step takes the smallest relation.  Each next step takes the
    smallest relation that shares a cable with the steps before it, and
    falls back to the smallest remaining one only when none does: then the
    diagram is disconnected and the step is a cross product.  Ties go to
    the lower star index.
    """
    wd = twd.diagram
    star_cables = [
        tuple([wd.inner_map[i, w] for w in star.wires])
        for i, star in enumerate(twd.inner)
    ]
    out_cables = tuple([wd.outer_map[y] for y in twd.outer.wires])

    order: list[int] = []
    remaining = sorted(range(twd.arity), key=sizes.__getitem__)
    bound: set[Cable] = set()
    while remaining:
        linked = (i for i in remaining if not bound.isdisjoint(star_cables[i]))
        nxt = next(linked, remaining[0])
        remaining.remove(nxt)
        order.append(nxt)
        bound.update(star_cables[nxt])

    # The cables a later star or the output still needs, after each step.
    needed = set(out_cables)
    needed_after = []
    for i in reversed(order):
        needed_after.append(needed)
        needed = needed.union(star_cables[i])
    needed_after.reverse()

    steps = []
    slots: tuple[Cable, ...] = ()
    for i, later in zip(order, needed_after):
        cables = star_cables[i]
        first: dict[Cable, int] = {}
        pairs = []
        for j, c in enumerate(cables):
            if c in first:
                pairs.append((first[c], j))
            else:
                first[c] = j
        key_slots, key_positions, keep = [], [], []
        for k, c in enumerate(slots):
            if c in first:
                key_slots.append(k)
                key_positions.append(first.pop(c))
            if c in later:
                keep.append(k)
        keep += [len(slots) + j for c, j in first.items() if c in later]
        row = slots + cables
        slots = tuple([row[k] for k in keep])
        steps.append(
            JoinStep(
                star=i,
                key_slots=tuple(key_slots),
                key_positions=tuple(key_positions),
                equal_pairs=tuple(pairs),
                keep=tuple(keep),
                cables=slots,
            )
        )

    free = tuple(dict.fromkeys([c for c in out_cables if c not in bound]))
    position = {c: k for k, c in enumerate(slots + free)}
    return JoinPlan(
        steps=tuple(steps),
        free=free,
        output=tuple([position[c] for c in out_cables]),
    )


def evaluate(twd: TypedWiringDiagram, rels: Sequence[Relation]) -> Relation:
    """Feed ``rels`` through ``twd`` and collect the outer relation.

    Runs the :func:`plan_join` plan over positional tuples: smallest
    relation first, then always the smallest one sharing a cable with
    those joined.  Each step drops the relation's tuples that give one
    cable two values, indexes the smaller side, partial tuples or rows, on
    the shared cables, and probes the index with the larger.  The partial
    tuples are then extended over the free cables, after checking that
    the expansion stays within ``ENUMERATION_LIMIT`` tuples; above it,
    :class:`EnumerationLimitError` is raised.  Agrees with
    :func:`evaluate_naive` everywhere.
    """
    rels = tuple(rels)
    _check_inputs(twd, rels)
    if any(len(dom) == 0 for dom in twd.cable_types.values()):
        return Relation.empty(twd.outer)

    plan = plan_join(twd, [len(rel) for rel in rels])
    partials: set[tuple] = {()}
    for step in plan.steps:
        rows = rels[step.star].aligned_tuples(twd.inner[step.star].wires)
        partials = _join_step(partials, rows, step)
        if not partials:
            return Relation.empty(twd.outer)

    pick = _getter(plan.output)
    if not plan.free:
        return Relation._trusted(twd.outer, frozenset(map(pick, partials)))
    domains = [twd.cable_types[c].values for c in plan.free]
    size = len(partials) * math.prod(len(values) for values in domains)
    if size > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"expanding {len(partials)} partial tuples over {len(plan.free)} free "
            f"cables gives {size} tuples, bound is {ENUMERATION_LIMIT}"
        )
    combos = list(product(*domains))
    return Relation._trusted(
        twd.outer, frozenset(pick(p + combo) for p in partials for combo in combos)
    )


def _join_step(
    partials: set[tuple], tuples: frozenset[tuple], step: JoinStep
) -> set[tuple]:
    rows: Collection[tuple] = tuples
    if step.equal_pairs:
        left = _getter(tuple([a for a, _b in step.equal_pairs]))
        right = _getter(tuple([b for _a, b in step.equal_pairs]))
        rows = [t for t in tuples if left(t) == right(t)]
    partial_key = _getter(step.key_slots)
    row_key = _getter(step.key_positions)
    pick = _getter(step.keep)
    joined: set[tuple] = set()
    if len(partials) <= len(rows):
        index = _group(partials, partial_key)
        for t in rows:
            for p in index.get(row_key(t), ()):
                joined.add(pick(p + t))
    else:
        index = _group(rows, row_key)
        for p in partials:
            for t in index.get(partial_key(p), ()):
                joined.add(pick(p + t))
    return joined


def _group(items: Iterable[tuple], key: Callable[[tuple], tuple]) -> dict[tuple, list]:
    index: dict[tuple, list] = {}
    for item in items:
        index.setdefault(key(item), []).append(item)
    return index


def _getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The tuple of the entries at ``positions``."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        (k,) = positions
        return lambda t: (t[k],)
    return lambda t: ()


def evaluate_naive(
    twd: TypedWiringDiagram,
    rels: Sequence[Relation],
    max_product: int = ENUMERATION_LIMIT,
) -> Relation:
    """Literal transcription of the definition, used as an oracle.

    Enumerates every assignment of every cable; refuses when the assignment
    space exceeds ``max_product``.
    """
    rels = tuple(rels)
    _check_inputs(twd, rels)
    wd = twd.diagram

    space = math.prod(len(twd.cable_types[c]) for c in wd.cables)
    if space > max_product:
        raise EnumerationLimitError(
            f"cable assignment space has {space} elements, bound is {max_product}"
        )

    cable_order = list(wd.cables)
    wire_cables = [
        [cable_order.index(wd.inner_map[(i, w)]) for w in rels[i].star.wires]
        for i in range(twd.arity)
    ]
    out_idx = [cable_order.index(wd.outer_map[y]) for y in twd.outer.wires]
    tuple_sets = [rel.tuples for rel in rels]

    results: set[tuple] = set()
    for c in product(*(twd.cable_types[cb].values for cb in cable_order)):
        if all(
            tuple(c[k] for k in wire_cables[i]) in tuple_sets[i]
            for i in range(twd.arity)
        ):
            results.add(tuple(c[k] for k in out_idx))
    return Relation(twd.outer, results)
