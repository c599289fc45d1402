"""Wiring local partitions of stars into a global one.

A partition of a star's wires is wired through a diagram by merging, for
each block of each inner partition, the cables those wires are soldered to;
two outer wires end up in the same block exactly when their cables land in
the same class of that cable quotient (:func:`wiring.stars.quotient`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ValidationError
from .stars import Frozen, Star, WiringDiagram, check_interface, quotient


class Partition(Frozen):
    """Disjoint nonempty blocks covering a star's wires.

    Stored canonically: blocks of sorted wires, sorted by first wire.
    """

    star: Star
    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, star: Star, blocks: Iterable[Iterable[str]]):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted((b for b in blocks if b), key=lambda b: b[0]))
        wires = [w for block in blocks for w in block]
        if len(wires) != len(star.wires) or star.wire_set != frozenset(wires):
            seen: set[str] = set()
            for block in blocks:
                for k, w in enumerate(block):
                    if w not in star:
                        raise ValidationError(f"block wire {w!r} is not in the star")
                    if w in seen:
                        # a block is sorted, so a wire it repeats follows itself
                        where = "twice in one block" if k and block[k - 1] == w else "in two blocks"
                        raise ValidationError(f"wire {w!r} appears {where}")
                    seen.add(w)
            missing = sorted(star.wire_set - seen)
            raise ValidationError(f"wires {missing} are not covered by any block")
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.star, self.blocks) == (other.star, other.blocks)

    def __hash__(self) -> int:
        return hash((self.star, self.blocks))

    def __repr__(self) -> str:
        body = " | ".join(",".join(b) for b in self.blocks)
        return f"Partition({body})"


def evaluate(wd: WiringDiagram, parts: Sequence[Partition]) -> Partition:
    """Merge cables along inner blocks; group outer wires by cable class."""
    parts = tuple(parts)
    check_interface("partition", wd.inner, parts)
    class_of = quotient(
        wd.cables,
        (
            (wd.inner_map[i, block[0]], wd.inner_map[i, w])
            for i, part in enumerate(parts)
            for block in part.blocks
            for w in block[1:]
        ),
    )
    groups: dict[int, list[str]] = {}
    for y in wd.outer.wires:
        groups.setdefault(class_of[wd.outer_map[y]], []).append(y)
    return Partition(wd.outer, groups.values())
