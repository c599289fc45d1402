"""Stars, cables, and cospan composition.

A star is a finite set of named wires.  A wiring diagram from inner stars
``X1, ..., Xn`` to an outer star ``Y`` is a cospan: a finite set of cables
``C`` together with total solder maps ``f : X1 + ... + Xn -> C`` and
``g : Y -> C``.  Two diagrams are the same morphism when they differ only
by a renaming of cables, so semantic equality always goes through
:func:`canonicalize`.  Its canonical form numbers the cables from 1: the
attached ones by their sorted lists of soldered wires, which is the order
of their least wires, inner ``(i, w)`` before outer ``w``, then the
floating ones, which only their count tells apart.

Composition substitutes a diagram into each inner star of another and is
computed as a quotient of the union of the cable sets (a pushout): for
each wire ``y`` of an intermediary star, the cable the inner diagram
solders ``y`` to is identified with the cable the outer diagram solders
it to.  Intermediary stars vanish, and floating cables survive.  An inner
diagram's cable is identified only with the outer cables that its
interface wires meet, so the union-find runs over the outer diagram's
cables alone and does not go through :func:`quotient`, the general cable
quotient with which query compilation and the partition algebra divide
cables.

Stars, diagrams and the package's other immutable classes are plain
classes derived from :class:`Frozen`, which enforces their immutability.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .errors import InterfaceError, ValidationError

Cable = Hashable
InnerWire = tuple[int, str]


class Frozen:
    """Base of the immutable classes: ``__init__`` sets each attribute once
    through ``object.__setattr__``; assigning or deleting one afterwards
    raises ``AttributeError``.  Instances keep a ``__dict__``, which
    ``cached_property`` writes to directly."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, **fields: Any):
        """An instance with ``fields`` as its fields, without the checks of
        ``__init__``: for values built from validated ones, well formed by
        construction."""
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj


class Star(Frozen):
    """A finite set of distinct wire names; the order is presentational only."""

    wires: tuple[str, ...]
    wire_set: frozenset[str]

    def __init__(self, wires: Iterable[str] = ()):
        wires = tuple(wires)
        try:
            "".join(wires)  # the cheapest test that every wire is a string
            wire_set = frozenset(wires)
        except TypeError:
            wire_set = frozenset()
        if len(wire_set) != len(wires) or "" in wire_set:
            seen = set()
            for w in wires:
                if not isinstance(w, str) or not w:
                    raise ValidationError(f"wire names must be nonempty strings, got {w!r}")
                if w in seen:
                    raise ValidationError(f"duplicate wire name {w!r}")
                seen.add(w)
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "wire_set", wire_set)

    def __contains__(self, wire: str) -> bool:
        return wire in self.wire_set

    def __len__(self) -> int:
        return len(self.wires)

    def __iter__(self):
        return iter(self.wires)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Star):
            return NotImplemented
        return self.wire_set == other.wire_set

    def __hash__(self) -> int:
        return hash(self.wire_set)

    def __repr__(self) -> str:
        return f"Star({{{', '.join(self.wires)}}})"


class WiringDiagram(Frozen):
    """A cospan from the disjoint union of ``inner`` stars to ``outer``.

    ``inner_map`` sends every inner wire, keyed ``(star_index, wire)``, to a
    cable; ``outer_map`` sends every outer wire to a cable.  Cables carried
    by no wire ("floating" cables) are legal.  Cable identities are opaque:
    use :func:`diagrams_equal` to compare diagrams as morphisms.
    """

    inner: tuple[Star, ...]
    outer: Star
    cables: tuple[Cable, ...]
    inner_map: dict[InnerWire, Cable]
    outer_map: dict[str, Cable]

    def __init__(
        self,
        inner: Sequence[Star],
        outer: Star,
        cables: Iterable[Cable],
        inner_map: Mapping[InnerWire, Cable],
        outer_map: Mapping[str, Cable],
    ):
        inner = tuple(inner)
        cables = tuple(cables)
        cable_set = set(cables)
        if len(cable_set) != len(cables):
            raise ValidationError("duplicate cable identifier")
        inner_map = dict(inner_map)
        outer_map = dict(outer_map)
        expected = {(i, w) for i, star in enumerate(inner) for w in star.wires}
        if not (
            inner_map.keys() == expected
            and outer_map.keys() == outer.wire_set
            and cable_set.issuperset(inner_map.values())
            and cable_set.issuperset(outer_map.values())
        ):
            # name the first misfit: each map in its order, stars in theirs
            for key in inner_map:
                if key not in expected:
                    raise ValidationError(f"solder entry for unknown inner wire {key!r}")
            for i, star in enumerate(inner):
                for w in star.wires:
                    if (i, w) not in inner_map:
                        raise ValidationError(f"inner wire {w!r} of star {i} is not soldered")
            for key, cable in inner_map.items():
                if cable not in cable_set:
                    raise ValidationError(
                        f"inner wire {key!r} soldered to unknown cable {cable!r}"
                    )
            for w in outer_map:
                if w not in outer:
                    raise ValidationError(f"solder entry for unknown outer wire {w!r}")
            for w in outer.wires:
                if w not in outer_map:
                    raise ValidationError(f"outer wire {w!r} is not soldered")
            for w, cable in outer_map.items():
                if cable not in cable_set:
                    raise ValidationError(
                        f"outer wire {w!r} soldered to unknown cable {cable!r}"
                    )

        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "cables", cables)
        object.__setattr__(self, "inner_map", inner_map)
        object.__setattr__(self, "outer_map", outer_map)

    @property
    def arity(self) -> int:
        return len(self.inner)

    def attached_cables(self) -> set[Cable]:
        return set(self.inner_map.values()) | set(self.outer_map.values())

    def floating_cables(self) -> tuple[Cable, ...]:
        attached = self.attached_cables()
        return tuple(c for c in self.cables if c not in attached)

    def __repr__(self) -> str:
        inner = ", ".join(repr(s) for s in self.inner)
        return (
            f"WiringDiagram([{inner}] -> {self.outer!r}, "
            f"cables={len(self.cables)})"
        )


def identity_diagram(star: Star) -> WiringDiagram:
    """The identity morphism on ``star``: one cable per wire, all maps identity."""
    return WiringDiagram(
        inner=(star,),
        outer=star,
        cables=tuple(star.wires),
        inner_map={(0, w): w for w in star.wires},
        outer_map={w: w for w in star.wires},
    )


def check_interface(noun: str, stars: Sequence[Star], values: Sequence) -> None:
    """Refuse the ``values`` fed to inner ``stars`` unless one lies on each."""
    if len(values) != len(stars):
        raise InterfaceError(f"expected {len(stars)} {noun}s, got {len(values)}")
    for i, (star, value) in enumerate(zip(stars, values)):
        if value.star != star:
            raise InterfaceError(f"{noun} {i} does not match inner star {i}")


def quotient(
    nodes: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
) -> dict[Hashable, int]:
    """Number the classes of the equivalence on ``nodes`` that ``pairs`` generate.

    Classes are numbered 0, 1, ... in the order of each class's first node.
    Both nodes of every pair must be among ``nodes``.  Union-find with path
    compression.
    """
    parent = {x: x for x in nodes}
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[rb] = ra
    class_ids: dict = {}
    return {x: class_ids.setdefault(_find(parent, x), len(class_ids)) for x in parent}


def _find(parent: dict, x: Hashable) -> Hashable:
    """The root of ``x`` in the union-find forest ``parent``, whose roots
    are their own parents; compresses the path from ``x``."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def compose_with_classes(
    outer_wd: WiringDiagram, inner_wds: Sequence[WiringDiagram]
) -> tuple[WiringDiagram, tuple[dict[Cable, int], ...]]:
    """As :func:`compose`, also returning the cable quotient.

    The second component holds one dict per source diagram, those of
    ``inner_wds`` in order and then that of ``outer_wd``; each maps every
    cable of its diagram to its cable in the composite.
    """
    inner_wds = tuple(inner_wds)
    if len(inner_wds) != outer_wd.arity:
        raise InterfaceError(
            f"expected {outer_wd.arity} inner diagrams, got {len(inner_wds)}"
        )
    for i, wd in enumerate(inner_wds):
        if wd.outer != outer_wd.inner[i]:
            raise InterfaceError(
                f"inner diagram {i} has outer star {sorted(wd.outer.wire_set)}, "
                f"expected {sorted(outer_wd.inner[i].wire_set)}"
            )

    # An inner cable is identified only with the outer cables its interface
    # wires meet, so the union-find runs over the outer cables alone:
    # ``links[i]`` sends each such cable of ``inner_wds[i]`` to one of them,
    # and the others are joined to that one.
    parent = {c: c for c in outer_wd.cables}
    links: list[dict[Cable, Cable]] = []
    for i, wd in enumerate(inner_wds):
        link: dict[Cable, Cable] = {}
        for y, c in wd.outer_map.items():
            o = outer_wd.inner_map[i, y]
            if c not in link:
                link[c] = o
            elif (ra := _find(parent, link[c])) != (rb := _find(parent, o)):
                parent[rb] = ra
        links.append(link)

    # Number the classes in the order of each one's first source cable: the
    # inner diagrams' cables in order, then the outer ones.  ``roots``
    # numbers the classes that hold an outer cable.
    roots: dict[Cable, int] = {}
    classes: list[dict[Cable, int]] = []
    count = 0
    for wd, link in zip(inner_wds, links):
        of: dict[Cable, int] = {}
        for c in wd.cables:
            of[c] = k = roots.setdefault(_find(parent, link[c]), count) if c in link else count
            count += k == count  # k opened a class
        classes.append(of)
    outer_of: dict[Cable, int] = {}
    for c in outer_wd.cables:
        outer_of[c] = k = roots.setdefault(_find(parent, c), count)
        count += k == count  # k opened a class
    classes.append(outer_of)

    new_inner: list[Star] = []
    new_inner_map: dict[InnerWire, Cable] = {}
    for wd, of in zip(inner_wds, classes):
        offset = len(new_inner)
        new_inner.extend(wd.inner)
        for (j, w), c in wd.inner_map.items():
            new_inner_map[offset + j, w] = of[c]
    # every wire of the inner diagrams' inner stars and of the outer star
    # is soldered to one of the classes 0, 1, ..., count - 1
    composite = WiringDiagram._trusted(
        inner=tuple(new_inner),
        outer=outer_wd.outer,
        cables=tuple(range(count)),
        inner_map=new_inner_map,
        outer_map={y: outer_of[outer_wd.outer_map[y]] for y in outer_wd.outer.wires},
    )
    return composite, tuple(classes)


def compose(outer_wd: WiringDiagram, inner_wds: Sequence[WiringDiagram]) -> WiringDiagram:
    """Substitute ``inner_wds[i]`` into the i-th inner star of ``outer_wd``."""
    composite, _ = compose_with_classes(outer_wd, inner_wds)
    return composite


def canonicalize_with_renaming(
    wd: WiringDiagram, floating_key: Callable[[Cable], Any] | None = None
) -> tuple[WiringDiagram, dict[Cable, int]]:
    """As :func:`canonicalize`, also returning the cable renaming.

    ``floating_key``, when given, orders the floating cables; otherwise they
    keep their order in ``wd.cables``.
    """
    # Two attached cables have disjoint wire sets, so their sorted wire
    # lists already differ at their least wires.
    inner_map, outer_map = wd.inner_map, wd.outer_map
    attached = dict.fromkeys(map(inner_map.__getitem__, sorted(inner_map)))
    attached.update(dict.fromkeys(map(outer_map.__getitem__, sorted(outer_map))))
    floating = [c for c in wd.cables if c not in attached]
    if floating_key is not None:
        floating.sort(key=floating_key)
    renamed = {c: k for k, c in enumerate([*attached, *floating], start=1)}
    # the same stars and solder maps as ``wd``, with its cables renamed
    canonical = WiringDiagram._trusted(
        inner=wd.inner,
        outer=wd.outer,
        cables=tuple(range(1, len(wd.cables) + 1)),
        inner_map={k: renamed[c] for k, c in inner_map.items()},
        outer_map={w: renamed[c] for w, c in outer_map.items()},
    )
    return canonical, renamed


def canonicalize(wd: WiringDiagram) -> WiringDiagram:
    """``wd``'s canonical form: equal morphisms coincide on the nose."""
    canonical, _ = canonicalize_with_renaming(wd)
    return canonical


def diagrams_equal(a: WiringDiagram, b: WiringDiagram) -> bool:
    """True when ``a`` and ``b`` are the same morphism (equal canonical forms)."""
    if a.arity != b.arity or len(a.cables) != len(b.cables):
        return False
    if a.outer != b.outer or any(x != y for x, y in zip(a.inner, b.inner)):
        return False
    ca, cb = canonicalize(a), canonicalize(b)
    return ca.inner_map == cb.inner_map and ca.outer_map == cb.outer_map


def reindex_inner(wd: WiringDiagram, perm: Sequence[int]) -> WiringDiagram:
    """Permute the inner stars: position ``k`` of the result holds inner star
    ``perm[k]`` of the input.  Reindexing by a permutation and then by its
    inverse is the identity."""
    perm = tuple(perm)
    if sorted(perm) != list(range(wd.arity)):
        raise ValidationError(f"{perm!r} is not a permutation of 0..{wd.arity - 1}")
    inner = tuple(wd.inner[p] for p in perm)
    position = {p: k for k, p in enumerate(perm)}
    inner_map = {(position[i], w): c for (i, w), c in wd.inner_map.items()}
    return WiringDiagram(inner, wd.outer, wd.cables, inner_map, dict(wd.outer_map))
