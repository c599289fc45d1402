"""Relations on typed stars and their evaluation through wiring diagrams.

A relation on a typed star is a finite set of well-typed assignments of its
wires.  Feeding relations through a typed wiring diagram produces the
relation on the outer star consisting of every outer readout ``c . g`` of a
cable assignment ``c`` whose restriction ``c . f_i`` lies in the i-th input
relation.

:func:`evaluate` computes this as a conjunctive query, by one of two
executors, and chooses between them in one place:

- the generic join runs a repeat join, below, and a cyclic diagram;
- the binary steps run an acyclic first join, and any join for which both
  of the generic join's bounds, below, are over the limit.

When GYO ear removal empties the hypergraph whose edges are the stars'
cable sets, the diagram is acyclic.  The binary steps join the smallest
relation first, then always the smallest relation that shares a cable with
those already joined, ties going to the lower star index, so a cross
product happens only between disconnected parts of the diagram.  Partial
results are tuples with one slot per cable still needed, and each step
(:func:`_join_step`) drops the relation's tuples that give one cable two
values before it joins them to the partials on the shared cables.

On a cyclic diagram every binary plan can build intermediate results far
larger than the answer: a triangle query joins all 2-paths before it
closes a single cycle.  The generic join (Ngo, Porat, Re and Rudra,
"Worst-case optimal join algorithms", PODS 2012; Veldhuizen, "Leapfrog
Triejoin", ICDT 2014) binds one cable at a time: first the cable that
touches the most stars, then always one that shares a star with a bound
cable, ties going to the cable whose smallest relation is smallest, then
to the one met first in star order.  Each input is a hash trie
(:meth:`Relation._trie_at`) with one level per cable it touches, in that
order, and a cable's values are the intersection of the nodes that the
tries touching it have reached (:func:`_join_loop`).  The work stays
within the largest output that inputs of the given sizes can have for the
full join (the AGM bound); it does not merge partial assignments that
differ only on cables the rest of the join no longer reads, so such a
cable still multiplies the work by its values.  A relation keeps its tries,
one per key, so evaluating the same relations again, or one relation twice
in a self-join, does not rebuild them; used under k level orders, it keeps
k tries.

A join of two or more inputs records on each input the diagram it ran
through, as the input's last join.  When every input's last join ran
through the same diagram object, the join is a repeat join, and the
generic join answers it from the tries it built before, as a database
answers a repeated query from the indexes it keeps; the binary steps
rebuild their indexes on every call (Freitag et al., "Adopting worst-case
optimal joins in relational database systems", VLDB 2020).  A first join
would build tries only to read them once, and a diagram of fewer than two
inputs passes its one input on as it is.  Only a caller that evaluates
the same diagram on the same :class:`Relation` objects again in one
process gains; the ``wd`` commands load their relations anew for each
query, and so make first joins only.

Each joined tuple is built once, by a loop generated with ``eval`` once per
shape and cached (:func:`_step_loop`, :func:`_join_loop`), so that
diagrams differing only in cable names share one loop; no name, value or
text from a script or a CSV file reaches :func:`_generated`.  A first step
that keeps its relation's wires in order, with no cable on two of them,
hands the relation's tuples on as they are, and the output does so when
the outer wires read the slots in order and no cable is free.  Outer
cables that no inner wire touches are filled in last with every value of
their domain.

Every enumeration in :func:`evaluate` is bounded by ``ENUMERATION_LIMIT``
before it starts.  The generic join first checks two bounds.  Each bounds
the assignments of every prefix of the cable order, and so the work of
each cable's loop, which takes one pass over the smallest node it meets
per assignment of the cables before it:

- The fan-out product.  A cable's values under any prefix are at most the
  smallest fan-out, the size of the largest node at its level, among the
  tries that touch it.  It is the tighter bound on stars, whose inputs'
  sizes multiply but whose fan-outs stay small.
- The AGM bound (Atserias, Grohe and Marx, FOCS 2008) of one fractional
  edge cover: the product of the inputs' sizes, each to the power one
  half, or one for an input that alone touches some cable.  The generic
  join's work stays within this product for every fractional cover (Ngo,
  Re and Rudra, "Skew strikes back", SIGMOD Record 2013).  It is the
  tighter bound on skewed cyclic joins, where a hub's fan-outs multiply.

Where the binary steps run, their exact counts answer or refuse: a step
after the first counts its pairs (:func:`_join_step`), and the free-cable
expansion its tuples, before building anything.  Both bounds are upper
bounds, so a join they refuse to the generic join, and whose binary steps
are over the limit, might still have fit the generic join.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress, islice, product
from operator import and_, itemgetter
from weakref import ref
from typing import (
    Any,
    Callable,
    Collection,
    Hashable,
    Iterable,
    KeysView,
    NamedTuple,
    Sequence,
)

from .errors import EnumerationLimitError, InterfaceError, ValidationError
from .stars import Cable, Frozen, check_interface
from .typed import TypedStar, TypedWiringDiagram, Value

ENUMERATION_LIMIT = 10_000_000  # tuples an evaluation may enumerate


class Relation(Frozen):
    """A finite set of assignments of a typed star's wires.

    Tuples are stored aligned with ``star.wires``; the empty star carries
    exactly two relations, the empty one and ``{()}``, so relations on it
    are boolean valued.

    The constructor refuses a tuple of the wrong width or with a value
    outside its wire's domain, and names the first such tuple in the order
    given (:func:`_first_misfit`), whatever the process's hash seed.  A
    relation is immutable (:class:`~wiring.stars.Frozen`), so the hash
    tries and the join record it keeps outside its fields cannot go stale;
    one built by :meth:`~wiring.stars.Frozen._trusted`, a copy or a pickle
    starts without them.
    """

    star: TypedStar
    tuples: frozenset[tuple[Value, ...]]

    def __init__(self, star: TypedStar, tuples: Iterable[tuple[Value, ...]] = ()):
        rows = list(map(tuple, tuples))
        misfit = _first_misfit(star, rows, lambda j: map(itemgetter(j), rows))
        if misfit is not None:
            k, w = misfit
            t = rows[k]
            if w is None:
                raise ValidationError(
                    f"tuple {t!r} has {len(t)} entries, star has {len(star.wires)} wires"
                )
            raise ValidationError(
                f"value {t[star.wires.index(w)]!r} is outside domain "
                f"{star.domain(w).name!r} of wire {w!r}"
            )
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "tuples", frozenset(rows))

    @classmethod
    def empty(cls, star: TypedStar) -> "Relation":
        return cls._trusted(star=star, tuples=frozenset())

    @classmethod
    def complete(cls, star: TypedStar) -> "Relation":
        """Every well-typed assignment of the star's wires."""
        domains = [star.domain(w).values for w in star.wires]
        return cls._trusted(star=star, tuples=frozenset(product(*domains)))

    def _trie_at(
        self, positions: tuple[int, ...], pairs: tuple[tuple[int, int], ...]
    ) -> tuple[KeysView | set | tuple, tuple[int, ...]] | None:
        """The hash trie (:func:`_trie`) of the tuples whose entries agree
        at each of the position ``pairs``, with one level per position in
        ``positions``, and its fan-out: the size of its largest node at
        each level.  The trie is ``()`` when ``positions`` is empty, and
        the pair is ``None`` when no tuple agrees.  Both are positions in
        ``star.wires``.

        Built on the first request for a key and kept outside the
        relation's fields, so equality, hashing and ``repr`` never see it.
        """
        tries = self.__dict__.setdefault("_tries", {})
        key = (positions, pairs)
        if key not in tries:
            rows = _agreeing(self.tuples, pairs)
            if not rows:
                tries[key] = None
            elif not positions:
                tries[key] = ((), ())
            else:
                tries[key] = _trie(rows, positions)
        return tries[key]

    def __getstate__(self) -> dict:
        # Copies and pickles start without the tries, which do not pickle,
        # and without the record of earlier joins.
        return {"star": self.star, "tuples": self.tuples}

    def aligned_tuples(self, wire_order: Sequence[str]) -> frozenset[tuple[Value, ...]]:
        """The tuple set re-expressed in the given wire order."""
        if tuple(wire_order) == self.star.wires:
            return self.tuples
        idx = tuple([self.star.wires.index(w) for w in wire_order])
        return frozenset(map(_getter(idx), self.tuples))

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


def _first_misfit(
    star: TypedStar,
    rows: Sequence,
    column: Callable[[int], Iterable[Value]],
    width: Callable[[Any], int] = len,
    cover: Collection[Value] | None = None,
) -> tuple[int, str | None] | None:
    """The index of the first of ``rows`` that does not fit ``star``, and
    the wire of its first value outside that wire's domain in the order of
    ``star.wires``, or ``None`` for the wire when the row's ``width`` is
    wrong; ``None`` when every row fits.  ``column(j)`` gives the values of
    wire ``star.wires[j]`` in row order; only rows before the first of the
    wrong width are read.  A wire whose domain holds all of ``cover``, a
    superset of every column and shorter than one, fits unread.

    One width test over the rows and one subset test per wire; only when
    one fails are the rows walked one by one, so the first misfit in the
    order given is named whatever the hash seed, at no extra pass over
    rows that fit."""
    size = len(star.wires)
    n = len(rows)
    if not set(map(width, rows)) <= {size}:
        n = next(k for k, row in enumerate(rows) if width(row) != size)
    for j, w in enumerate(star.wires):
        domain = star.domain(w)
        if cover is not None and len(cover) < n and domain.contains_all(cover):
            continue
        if not domain.contains_all(islice(column(j), n)):
            for k, row in enumerate(islice(zip(*map(column, range(size))), n)):
                for w, v in zip(star.wires, row):
                    if v not in star.domain(w):
                        return k, w
    return None if n == len(rows) else (n, None)


def union(a: Relation, b: Relation) -> Relation:
    """Set union of two relations on the same typed star."""
    if a.star != b.star:
        raise InterfaceError("union requires relations on the same typed star")
    return Relation._trusted(star=a.star, tuples=a.tuples | b.aligned_tuples(a.star.wires))


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


def _is_acyclic(star_cables: Sequence[tuple[Cable, ...]]) -> bool:
    """Whether GYO ear removal empties the hypergraph whose edges are the
    stars' cable sets.  An edge is an ear when the cables it shares with
    the other edges all lie in one of them; of two edges, either is one."""
    edges = list(map(frozenset, star_cables))
    while len(edges) > 2:
        for k, edge in enumerate(edges):
            others = edges[:k] + edges[k + 1 :]
            shared = edge & frozenset().union(*others)
            if any(shared <= other for other in others):
                del edges[k]
                break
        else:
            return False
    return True


def _binary_steps(
    star_cables: Sequence[tuple[Cable, ...]],
    out_cables: tuple[Cable, ...],
    sizes: Sequence[int],
) -> tuple[tuple[JoinStep, ...], tuple[Cable, ...]]:
    """The binary join steps, and the cables of the last partial tuple."""
    order: list[int] = []
    remaining = sorted(range(len(star_cables)), key=sizes.__getitem__)
    bound: set[Cable] = set()
    while remaining:
        for nxt in remaining:
            if not bound.isdisjoint(star_cables[nxt]):
                break
        else:
            nxt = remaining[0]
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
        first, pairs = _first_positions(cables)
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
                i, tuple(key_slots), tuple(key_positions), tuple(pairs), tuple(keep), slots
            )
        )
    return tuple(steps), slots


def _cable_order(
    star_cables: Sequence[tuple[Cable, ...]], sizes: Sequence[int]
) -> tuple[Cable, ...]:
    """The generic join's cable order; see the module docstring."""
    touching: dict[Cable, set[int]] = {}
    for i, cables in enumerate(star_cables):
        for c in cables:
            touching.setdefault(c, set()).add(i)
    remaining = sorted(
        touching,
        key=lambda c: (-len(touching[c]), min([sizes[i] for i in touching[c]])),
    )
    order: list[Cable] = []
    linked: set[Cable] = set()
    while remaining:
        nxt = next((c for c in remaining if c in linked), remaining[0])
        remaining.remove(nxt)
        order.append(nxt)
        for i in touching[nxt]:
            linked.update(star_cables[i])
    return tuple(order)


def evaluate(twd: TypedWiringDiagram, rels: Sequence[Relation]) -> Relation:
    """Feed ``rels`` through ``twd`` and collect the outer relation, by
    the executor the module docstring chooses.

    Raises :class:`EnumerationLimitError`, before it enumerates, when a
    binary step after the first, or the expansion over the free cables,
    would enumerate more than ``ENUMERATION_LIMIT`` pairs or tuples.
    """
    rels = tuple(rels)
    check_interface("relation", twd.inner, rels)
    if any(len(dom) == 0 for dom in twd.cable_types.values()):
        return Relation.empty(twd.outer)

    # each input's cables in the order of its tuples' entries
    wd = twd.diagram
    star_cables = [
        tuple([wd.inner_map[i, w] for w in rel.star.wires]) for i, rel in enumerate(rels)
    ]
    out_cables = tuple(map(wd.outer_map.__getitem__, wd.outer.wires))
    sizes = [len(rel) for rel in rels]
    partials = None
    if (len(rels) > 1 and _joined_before(twd, rels)) or not _is_acyclic(star_cables):
        order = _cable_order(star_cables, sizes)
        partials = _generic_join(rels, star_cables, order, out_cables)
        slots = tuple([c for c in order if c in out_cables])
    if partials is None:  # an acyclic first join, or over both bounds
        steps, slots = _binary_steps(star_cables, out_cables, sizes)
        partials, width = {()}, 0
        for step in steps:
            rows = rels[step.star].tuples
            if width or step.equal_pairs or step.keep != tuple(range(len(star_cables[step.star]))):
                partials = _join_step(partials, width, rows, step)
            else:  # the partials are {()}, and the step keeps each row whole
                partials = rows
            if not partials:
                break
            width = len(step.cables)
    if not partials:
        return Relation.empty(twd.outer)

    # The output tuple is ``partial + combo`` read at ``output``, where
    # ``combo`` assigns the outer cables that no inner wire touches.
    bound = set().union(*star_cables)
    free = tuple(dict.fromkeys([c for c in out_cables if c not in bound]))
    position = {c: k for k, c in enumerate(slots + free)}
    output = tuple(map(position.__getitem__, out_cables))
    if not free:
        if output == tuple(range(len(output))):
            return Relation._trusted(star=twd.outer, tuples=frozenset(partials))
        return Relation._trusted(star=twd.outer, tuples=frozenset(map(_getter(output), partials)))
    domains = [twd.cable_types[c].values for c in free]
    size = len(partials) * math.prod(len(values) for values in domains)
    if size > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"expanding {len(partials)} partial tuples over {len(free)} free "
            f"cables gives {size} tuples, bound is {ENUMERATION_LIMIT}"
        )
    # The output reads every slot of a partial tuple and every free cable.
    expand = _step_loop(output, len(set(output)) - len(free))
    tuples = expand({(): partials}, product(*domains), _getter(()))
    return Relation._trusted(star=twd.outer, tuples=frozenset(tuples))


def _joined_before(twd: TypedWiringDiagram, rels: Sequence[Relation]) -> bool:
    """Whether every input's last join ran through ``twd``; records
    ``twd`` on each as its last join, by a weak reference."""
    before = True
    for rel in rels:
        last = rel.__dict__.get("_last_join")
        if last is None or last() is not twd:
            rel.__dict__["_last_join"] = ref(twd)
            before = False
    return before


def _join_step(
    partials: Collection[tuple], width: int, tuples: frozenset[tuple], step: JoinStep
) -> set[tuple]:
    """The partial tuples, ``width`` slots each, after joining ``tuples``
    as ``step`` says, by the step loop over an index of the partials on the
    key cables, all under ``()`` on a keyless step; the relation's tuples
    are filtered against it in C before Python visits one.

    After the first step (``width`` > 0), when the product of the two sides
    is over ``ENUMERATION_LIMIT``, the pairs it would enumerate, the partials
    each matching tuple meets, are counted against that limit first."""
    rows = _agreeing(tuples, step.equal_pairs)
    # One itemgetter per side: the entry itself on one key cable, a tuple on
    # more, so a one-cable step builds no 1-tuple key per row.
    partial_key, row_key = [
        itemgetter(*key) if key else _getter(()) for key in (step.key_slots, step.key_positions)
    ]
    index = _group(partials, partial_key)
    hits = compress(rows, map(index.__contains__, map(row_key, rows)))
    if width and len(partials) * len(rows) > ENUMERATION_LIMIT:
        hits = list(hits)
        size = sum(map(len, map(index.__getitem__, map(row_key, hits))))
        if size > ENUMERATION_LIMIT:
            if step.key_slots:
                pairs = f"joining {len(partials)} partial tuples with {len(hits)} matching"
            else:
                pairs = f"the cross product of {len(partials)} partial tuples and {len(hits)}"
            raise EnumerationLimitError(
                f"{pairs} tuples enumerates {size} pairs, bound is {ENUMERATION_LIMIT}"
            )
    return _step_loop(step.keep, width)(index, hits, row_key)


def _generated(ints: Sequence, write: Callable[[], str]) -> Callable[..., set[tuple]]:
    """The lambda whose source ``write()`` returns, evaluated without
    builtins.  The source is fixed text and ``ints``; unless each of them
    is an ``int``, this raises :class:`TypeError` before ``write`` runs."""
    if not all(type(k) is int for k in ints):
        raise TypeError(f"loop positions must be ints, got {tuple(ints)!r}")
    return eval(write(), {"__builtins__": {}})


@lru_cache(maxsize=256)
def _step_loop(keep: tuple[int, ...], width: int) -> Callable[..., set[tuple]]:
    """A binary step's loop, called with an index of the partial tuples,
    the relation's tuples and their key, that builds each joined tuple
    once, as ``(p + t)`` read at ``keep`` for partials of ``width`` slots."""

    def write() -> str:
        slots = "".join(f"p[{k}], " if k < width else f"t[{k - width}], " for k in keep)
        return f"lambda index, rows, key: {{({slots}) for t in rows for p in index[key(t)]}}"

    return _generated((*keep, width), write)


# The seeded law suites draw a new shape for almost every generic join,
# 1,048 in 1,106 calls over the seed-41 laws spec, where they make no
# repeat joins, so a larger cache would buy few hits for about 2 kB a
# loop; the benchmark's queries share a handful.
@lru_cache(maxsize=64)
def _join_loop(
    levels: tuple[tuple[int, ...], ...], outputs: tuple[int, ...]
) -> Callable[..., set[tuple]]:
    """The generic join as one set comprehension over the roots of tries
    whose levels lie at the cable ranks ``levels``, one tuple per trie.
    Its answers hold the cables at the ranks ``outputs``, in rank order.
    It is called with :func:`_meet` and then the roots."""

    def write() -> str:
        node = {t: f"n{t}_{own[0]}" for t, own in enumerate(levels)}
        roots = ", ".join(["meet", *node.values()])
        last = max(map(max, levels), default=-1)
        loops = []
        for k in range(last + 1):
            touching = [t for t, own in enumerate(levels) if k in own]
            nodes = [node[t] for t in touching]
            meet = " & ".join(nodes) if len(nodes) < 3 else f"meet({', '.join(nodes)})"
            if k == last and k not in outputs:
                # a comprehension opens with a loop: one over the meet itself
                loops.append(f"if {meet}" if loops else f"for v{k} in [{meet}] if v{k}")
                break
            loops.append(f"for v{k} in {meet}")
            for t in touching:
                own = levels[t]
                if k != own[-1]:
                    below = f"n{t}_{own[own.index(k) + 1]}"
                    loops.append(f"for {below} in [{node[t]}.mapping[v{k}]]")
                    node[t] = below
        answer = "".join([f"v{k}, " for k in outputs])
        return f"lambda {roots}: {{({answer}) {' '.join(loops)}}}"

    return _generated([k for own in (*levels, outputs) for k in own], write)


def _generic_join(
    rels: Sequence[Relation],
    star_cables: Sequence[tuple[Cable, ...]],
    order: tuple[Cable, ...],
    out_cables: tuple[Cable, ...],
) -> Collection[tuple] | None:
    """The ``out_cables``, in ``order``, of every assignment of the cables
    in ``order`` that every input admits, its cables in ``star_cables``;
    ``None``, before anything is enumerated, when both bounds of the
    module docstring are over ``ENUMERATION_LIMIT``."""
    rank = {c: k for k, c in enumerate(order)}
    levels: list[tuple[int, ...]] = []
    tries: list[KeysView | set] = []
    sizes: list[int] = []
    widths: dict[int, int] = {}  # the smallest fan-out at each rank
    for rel, cables in zip(rels, star_cables):
        first, pairs = _first_positions(cables)
        own = tuple(sorted([rank[c] for c in first]))
        found = rel._trie_at(tuple([first[order[k]] for k in own]), tuple(pairs))
        if found is None:
            return ()
        trie, fanout = found
        if own:
            levels.append(own)
            tries.append(trie)
            sizes.append(len(rel))
            for k, width in zip(own, fanout):
                widths[k] = min(widths.get(k, width), width)
    limit = ENUMERATION_LIMIT
    if math.prod(widths.values()) > limit and _cover_bound(levels, sizes) > limit:
        return None
    outputs = sorted({rank[c] for c in out_cables if c in rank})
    return _join_loop(tuple(levels), tuple(outputs))(_meet, *tries)


def _cover_bound(levels: Sequence[tuple[int, ...]], sizes: Sequence[int]) -> float:
    """The cover bound of the module docstring, for inputs of the given
    ``sizes`` whose tries lie at the cable ranks ``levels``."""
    touching = Counter([k for own in levels for k in own])
    return math.prod(
        [
            size if any(touching[k] == 1 for k in own) else math.sqrt(size)
            for own, size in zip(levels, sizes)
        ]
    )


def _meet(*nodes: KeysView | set) -> set:
    """The intersection of three or more trie nodes, smallest first, so
    that it costs at most a pass over the smallest per node."""
    return reduce(and_, sorted(nodes, key=len))


def _trie(
    rows: Iterable[tuple], positions: Sequence[int]
) -> tuple[KeysView | set, tuple[int, ...]]:
    """The rows' entries at ``positions`` as a hash trie, and its fan-out:
    the size of its largest node at each level.

    A node is the set of values at its level: a ``set`` at the last level,
    above it the keys view of a dict whose ``mapping`` takes each value to
    the node of the rows that have it.  Nodes of either kind intersect
    with ``&``, which iterates the smaller side."""
    head, *rest = positions
    if not rest:
        node = {t[head] for t in rows}
        return node, (len(node),)
    if len(rest) > 1:
        children: dict[Value, KeysView | set] = {}
        fanouts = []
        for v, group in _group(rows, itemgetter(head)).items():
            children[v], fanout = _trie(group, rest)
            fanouts.append(fanout)
        return children.keys(), (len(children), *map(max, zip(*fanouts)))
    (last,) = rest
    root: dict[Value, set] = {}
    for t in rows:
        values = root.get(t[head])
        if values is None:
            root[t[head]] = {t[last]}
        else:
            values.add(t[last])
    return root.keys(), (len(root), max(map(len, root.values())))


def _first_positions(
    cables: Sequence[Cable],
) -> tuple[dict[Cable, int], list[tuple[int, int]]]:
    """Each cable's first position in ``cables``, and the position pairs
    that repeat a cable (one cable soldered to two wires of a star)."""
    first: dict[Cable, int] = {}
    pairs = []
    for j, c in enumerate(cables):
        if c in first:
            pairs.append((first[c], j))
        else:
            first[c] = j
    return first, pairs


def _agreeing(
    rows: Collection[tuple], pairs: Sequence[tuple[int, int]]
) -> Collection[tuple]:
    """The rows whose entries agree at each of the position ``pairs``."""
    if not pairs:
        return rows
    left = _getter(tuple([a for a, _b in pairs]))
    right = _getter(tuple([b for _a, b in pairs]))
    return [t for t in rows if left(t) == right(t)]


def _group(items: Iterable[tuple], key: Callable[[tuple], Hashable]) -> dict[Hashable, list]:
    index: dict[Hashable, list] = {}
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

