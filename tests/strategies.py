"""Hypothesis strategies for small wiring-diagram instances."""

from __future__ import annotations

from hypothesis import strategies as st

from wiring.partitions import Partition
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram
from wiring.typed import ValueDomain

WIRE_NAMES = tuple("abcdef")

stars = st.builds(
    Star,
    st.lists(st.sampled_from(WIRE_NAMES), unique=True, max_size=4),
)


@st.composite
def diagrams(draw, inner=None, outer=None, max_stars=3, max_cables=4):
    if inner is None:
        inner = tuple(
            draw(stars) for _ in range(draw(st.integers(0, max_stars)))
        )
    if outer is None:
        outer = draw(stars)
    wired = sum(len(s) for s in inner) + len(outer)
    n_cables = draw(st.integers(1 if wired else 0, max_cables))
    cables = tuple(range(n_cables))
    pick = st.sampled_from(cables) if cables else st.nothing()
    inner_map = {
        (i, w): draw(pick) for i, s in enumerate(inner) for w in s.wires
    }
    outer_map = {w: draw(pick) for w in outer.wires}
    return WiringDiagram(inner, outer, cables, inner_map, outer_map)


@st.composite
def partitions(draw, star: Star):
    blocks: list[list[str]] = []
    for w in star.wires:
        if blocks and draw(st.booleans()):
            blocks[draw(st.integers(0, len(blocks) - 1))].append(w)
        else:
            blocks.append([w])
    return Partition(star, blocks)


@st.composite
def typed_and_relations(draw, max_values=3):
    """A uniformly-typed diagram and one relation per inner star."""
    domain = ValueDomain("D", tuple(range(draw(st.integers(1, max_values)))))
    wd = draw(diagrams())
    from wiring.typed import lift_uniform

    twd = lift_uniform(wd, domain)
    rels = []
    for tstar in twd.inner:
        space = list(
            __import__("itertools").product(
                *(tstar.domain(w).values for w in tstar.wires)
            )
        )
        subset = draw(st.lists(st.sampled_from(space), unique=True)) if space else []
        rels.append(Relation(tstar, subset))
    return twd, rels
