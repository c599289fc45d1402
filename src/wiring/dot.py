"""Rendering wiring diagrams as Graphviz DOT text.

Inner stars become clusters of wire boxes, cables become round nodes,
outer wires sit at the top level, and every soldering is an undirected
edge.  Diagrams are canonicalized first, so two representations of the
same morphism render byte-identically.
"""

from __future__ import annotations

import re

from .stars import WiringDiagram, canonicalize
from .typed import TypedWiringDiagram, canonicalize_typed


# DOT reads these as plain IDs; its keywords, in any case, it does not
_PLAIN_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    """``name`` as a DOT ID: as it is when DOT reads it as a plain one,
    else quoted, with each ``"`` escaped."""
    if _PLAIN_ID.fullmatch(name) and name.lower() not in _KEYWORDS:
        return name
    return '"' + name.replace('"', '\\"') + '"'


def emit_dot(diagram: WiringDiagram | TypedWiringDiagram, name: str = "wiring") -> str:
    if isinstance(diagram, TypedWiringDiagram):
        typed = canonicalize_typed(diagram)
        wd = typed.diagram
        cable_label = lambda c: f"{c}: {typed.cable_types[c].name}"
    else:
        wd = canonicalize(diagram)
        cable_label = str

    lines = [f"graph {_dot_id(name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [fontsize=10, height=0.25];')
    for i, star in enumerate(wd.inner):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="X{i + 1}";')
        for w in star.wires:
            lines.append(f'    "s{i}.{w}" [label="{w}", shape=box];')
        lines.append("  }")
    for c in wd.cables:
        lines.append(f'  "c{c}" [label="{cable_label(c)}", shape=circle];')
    for w in wd.outer.wires:
        lines.append(f'  "out.{w}" [label="{w}", shape=box, style=bold];')
    for i, star in enumerate(wd.inner):
        for w in star.wires:
            lines.append(f'  "s{i}.{w}" -- "c{wd.inner_map[(i, w)]}";')
    for w in wd.outer.wires:
        lines.append(f'  "out.{w}" -- "c{wd.outer_map[w]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
