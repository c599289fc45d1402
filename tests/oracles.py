"""Independent oracles the implementation is checked against.

Everything here recomputes results by a different route than the package:
literal enumeration, nested loops, or closed forms.  ``evaluate_naive``
is relation evaluation by its definition.  The factorial recursion
at any limit is built here too, from the shipped ``factorial.wd`` and the
rule ``scripts/gen_factorial_fixture.py`` writes its CSV files from.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
import re
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import wiring.relations as relations_mod
from wiring.errors import EnumerationLimitError
from wiring.partitions import Partition
from wiring.query import ConjunctiveQuery
from wiring.recursion import RecursiveSetup, build_setup, step
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram, check_interface
from wiring.typed import TypedStar, TypedWiringDiagram


def eval_singly(
    wd: WiringDiagram, values: Sequence, rels: Sequence[frozenset]
) -> set[tuple]:
    """Relation evaluation with one untyped value set on every cable.

    Brute force over all cable assignments; input tuple sets are aligned to
    each inner star's wire order.
    """
    cables = list(wd.cables)
    out = set()
    for assignment in product(values, repeat=len(cables)):
        c = dict(zip(cables, assignment))
        if all(
            tuple(c[wd.inner_map[(i, w)]] for w in star.wires) in rels[i]
            for i, star in enumerate(wd.inner)
        ):
            out.add(tuple(c[wd.outer_map[y]] for y in wd.outer.wires))
    return out


def evaluate_naive(twd: TypedWiringDiagram, rels: Sequence[Relation]) -> Relation:
    """Literal transcription of relation evaluation, the oracle
    ``relations.evaluate`` must agree with.

    Enumerates every assignment of every cable; refuses when the assignment
    space exceeds ``relations.ENUMERATION_LIMIT``, read at each call.
    """
    rels = tuple(rels)
    check_interface("relation", twd.inner, rels)
    wd = twd.diagram

    limit = relations_mod.ENUMERATION_LIMIT
    space = math.prod(len(twd.cable_types[c]) for c in wd.cables)
    if space > limit:
        raise EnumerationLimitError(
            f"cable assignment space has {space} elements, bound is {limit}"
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


def sql_oracle(
    query: ConjunctiveQuery, tables: Mapping[str, list[dict]]
) -> set[tuple]:
    """Nested-loop SQL semantics: product, filter, project, dedupe.

    ``tables`` maps predicate names to rows-as-dicts.
    """
    scopes: list[dict[str, dict]] = [{}]
    for pred, alias in query.tables:
        scopes = [
            {**scope, alias: row} for scope in scopes for row in tables[pred]
        ]
    survivors = []
    for scope in scopes:
        ok = True
        for cond in query.conditions:
            left = scope[cond.left.alias][cond.left.attr]
            right = (
                scope[cond.right.alias][cond.right.attr]
                if cond.right is not None
                else cond.literal
            )
            if left != right:
                ok = False
                break
        if ok:
            survivors.append(scope)
    return {
        tuple(scope[ref.alias][ref.attr] for ref in query.select)
        for scope in survivors
    }


def factorial_graph(limit: int) -> set[tuple[int, int]]:
    """All pairs (n, n!) with the factorial still within the limit."""
    out = set()
    n, f = 0, 1
    while f <= limit:
        out.add((n, f))
        n += 1
        f *= n
    return out


_spec = importlib.util.spec_from_file_location(
    "gen_factorial_fixture",
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "gen_factorial_fixture.py",
)
gen_factorial_fixture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_factorial_fixture)
factorial_rows = gen_factorial_fixture.factorial_rows
lift_factorial = gen_factorial_fixture.lift_factorial


def factorial_setup(limit: int) -> RecursiveSetup:
    """The setup ``fact`` of ``factorial.wd`` over ``N = 0..limit``, whose
    greatest fixed point is ``factorial_graph(limit)``."""
    return build_setup(*lift_factorial(limit))


def kleene_fixed_point(setup: RecursiveSetup, mode: str) -> Relation:
    """Iterate ``step`` literally from the empty relation (least) or the
    complete one (greatest) until two consecutive iterates coincide."""
    current = Relation.empty(setup.z) if mode == "least" else Relation.complete(setup.z)
    while True:
        following = step(setup, current)
        if following == current:
            return current
        current = following


def discrete(star: Star) -> Partition:
    """The partition of ``star`` into singletons."""
    return Partition(star, [[w] for w in star.wires])


def indiscrete(star: Star) -> Partition:
    """The partition of ``star`` into one block (none on the empty star)."""
    return Partition(star, [star.wires] if len(star) else [])


def refines(fine: Partition, coarse: Partition) -> bool:
    """True when every block of ``fine`` sits inside a block of ``coarse``."""
    assert fine.star == coarse.star
    return all(
        any(set(block) <= set(big) for big in coarse.blocks) for block in fine.blocks
    )


def connectivity_oracle(wd: WiringDiagram, parts: Sequence[Partition]) -> Partition:
    """Group outer wires by reachability in the wire-cable graph.

    Nodes are wires and cables; every wire touches its cable, and wires
    sharing an inner block are linked.  Independent of the union-find path.
    """
    adjacency: dict = {("c", c): set() for c in wd.cables}

    def link(a, b):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    for (i, w), c in wd.inner_map.items():
        link(("w", i, w), ("c", c))
    for y, c in wd.outer_map.items():
        link(("y", y), ("c", c))
    for i, part in enumerate(parts):
        for block in part.blocks:
            for w in block[1:]:
                link(("w", i, block[0]), ("w", i, w))

    component: dict = {}
    for start in adjacency:
        if start in component:
            continue
        stack = [start]
        component[start] = start
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in component:
                    component[nxt] = start
                    stack.append(nxt)

    groups: dict = {}
    for y in wd.outer.wires:
        groups.setdefault(component[("y", y)], []).append(y)
    return Partition(wd.outer, groups.values())


def is_connected(wd: WiringDiagram) -> bool:
    """Exactly one connected component in the star-cable incidence graph.

    Inner stars and cables are the nodes; every soldered inner wire is an
    edge.  The empty diagram has no components, hence is not connected.
    """
    nodes: set = {("c", c) for c in wd.cables} | {("s", i) for i in range(wd.arity)}
    if not nodes:
        return False
    adjacency: dict = {n: set() for n in nodes}
    for (i, _w), c in wd.inner_map.items():
        adjacency[("s", i)].add(("c", c))
        adjacency[("c", c)].add(("s", i))
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == nodes


def relation_misfit(star: TypedStar, tuples: Iterable[Sequence]) -> str | None:
    """The message ``Relation(star, tuples)`` must raise, or None when it
    must accept: tuple by tuple, in the order they are given, with a
    linear scan of each domain's values."""
    width = len(star.wires)
    for t in map(tuple, tuples):
        if len(t) != width:
            return f"tuple {t!r} has {len(t)} entries, star has {width} wires"
        for w, v in zip(star.wires, t):
            domain = star.domain(w)
            if not any(v == member for member in domain.values):
                return f"value {v!r} is outside domain {domain.name!r} of wire {w!r}"
    return None


def star_misfit(wires: Iterable) -> str | None:
    """The message ``Star(wires)`` must raise, or None when it must accept:
    wire by wire, in order, each against the wires before it."""
    wires = list(wires)
    for k, w in enumerate(wires):
        if not isinstance(w, str) or w == "":
            return f"wire names must be nonempty strings, got {w!r}"
        if w in wires[:k]:
            return f"duplicate wire name {w!r}"
    return None


def diagram_misfit(
    inner: Sequence[Star],
    outer: Star,
    cables: Iterable,
    inner_map: Mapping,
    outer_map: Mapping,
) -> str | None:
    """The message ``WiringDiagram(inner, outer, cables, inner_map,
    outer_map)`` must raise, or None when it must accept: a repeated cable
    first; then the inner solder entries in map order, the inner wires in
    star order and the inner entries' cables in map order; then the same
    three for the outer star; each by a linear scan of a list."""
    cables = list(cables)
    if any(c in cables[:k] for k, c in enumerate(cables)):
        return "duplicate cable identifier"
    wires = [(i, w) for i, star in enumerate(inner) for w in star.wires]
    for key in inner_map:
        if key not in wires:
            return f"solder entry for unknown inner wire {key!r}"
    for i, w in wires:
        if (i, w) not in list(inner_map):
            return f"inner wire {w!r} of star {i} is not soldered"
    for key, cable in inner_map.items():
        if cable not in cables:
            return f"inner wire {key!r} soldered to unknown cable {cable!r}"
    for w in outer_map:
        if w not in outer.wires:
            return f"solder entry for unknown outer wire {w!r}"
    for w in outer.wires:
        if w not in list(outer_map):
            return f"outer wire {w!r} is not soldered"
    for w, cable in outer_map.items():
        if cable not in cables:
            return f"outer wire {w!r} soldered to unknown cable {cable!r}"
    return None


def partition_misfit(star: Star, blocks: Iterable[Iterable[str]]) -> str | None:
    """The message ``Partition(star, blocks)`` must raise, or None when it
    must accept: the nonempty blocks each sorted, and then in the order of
    their first wires, are read wire by wire, each wire against the ones
    before it in its block and in the blocks before."""
    blocks = sorted([sorted(b) for b in map(list, blocks) if b], key=lambda b: b[0])
    seen = []
    for block in blocks:
        for k, w in enumerate(block):
            if w not in star.wires:
                return f"block wire {w!r} is not in the star"
            if w in block[:k]:
                return f"wire {w!r} appears twice in one block"
            if w in seen:
                return f"wire {w!r} appears in two blocks"
            seen.append(w)
    missing = [w for w in sorted(star.wires) if w not in seen]
    if missing:
        return f"wires {missing} are not covered by any block"
    return None


def canonicalize_by_wire_lists(
    wd: WiringDiagram, floating_key: Callable | None = None
) -> tuple[WiringDiagram, dict]:
    """The canonical form of ``wd`` and its cable renaming, by the literal
    definition: each attached cable is keyed by the sorted list of the
    wires soldered to it, inner wires ``(0, i, w)`` before outer wires
    ``(1, 0, w)``; the attached cables are numbered from 1 in the order of
    their keys, and the floating ones after them, in the order of
    ``wd.cables`` or, when given, of ``floating_key``."""
    points: dict = {}
    for (i, w), c in wd.inner_map.items():
        points.setdefault(c, []).append((0, i, w))
    for w, c in wd.outer_map.items():
        points.setdefault(c, []).append((1, 0, w))
    keys = {c: tuple(sorted(ps)) for c, ps in points.items()}
    attached = sorted(keys, key=keys.__getitem__)
    floating = [c for c in wd.cables if c not in keys]
    if floating_key is not None:
        floating.sort(key=floating_key)
    renamed = {c: k for k, c in enumerate(attached + floating, start=1)}
    canonical = WiringDiagram(
        wd.inner,
        wd.outer,
        tuple(range(1, len(wd.cables) + 1)),
        {k: renamed[c] for k, c in wd.inner_map.items()},
        {w: renamed[c] for w, c in wd.outer_map.items()},
    )
    return canonical, renamed


def csv_relation_oracle(text: str, star: TypedStar) -> frozenset | str:
    """The tuples ``load_csv_relation`` must return for a file holding
    ``text``, or the message it must raise with the file's path left off
    its front: cell by cell, a line and then a data row at a time in file
    order, lines ending as text mode reads them, each row's cells in the
    order of ``star.wires``, and each value against a linear scan of its
    domain."""
    if text.startswith("\ufeff"):
        text = text[1:]
    numbered = [
        (number, line)
        for number, line in enumerate(re.split("\r\n|\r|\n", text), start=1)
        if line.strip() != ""
    ]
    if not numbered:
        return ": missing header row"
    header_line, header_text = numbered[0]
    header = [name.strip() for name in header_text.split(",")]
    for k, name in enumerate(header):
        if name in header[:k]:
            return f":{header_line}: header repeats a column"
    missing = sorted(w for w in star.wires if w not in header)
    extra = sorted(name for name in header if name not in star.wires)
    details = []
    if missing:
        details.append(f"missing columns {missing}")
    if extra:
        details.append(f"unexpected columns {extra}")
    if details:
        return f":{header_line}: " + "; ".join(details)
    tuples = set()
    for row_number, (line_number, line) in enumerate(numbered[1:], start=1):
        row_at = f":{line_number}: row {row_number}"
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{row_at} has {len(cells)} cells, expected {len(header)}"
        row = []
        for w in star.wires:
            token = cells[header.index(w)].strip()
            v = int(token) if re.fullmatch(r"-?[0-9]+", token) else token
            domain = star.domain(w)
            if not any(v == member for member in domain.values):
                return (
                    f"{row_at}, column {w!r}: value {v!r} is "
                    f"outside domain {domain.name!r}"
                )
            row.append(v)
        tuples.add(tuple(row))
    return frozenset(tuples)


def csv_oracle(path, text: str, star: TypedStar) -> frozenset | str:
    """:func:`csv_relation_oracle`, with its message placed at ``path``."""
    expected = csv_relation_oracle(text, star)
    return expected if isinstance(expected, frozenset) else f"{path}{expected}"


_LITERAL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<darrow>=>)
  | (?P<range>\.\.)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<string>'[^'\n]*'|"[^"\n]*")
  | (?P<punct>[(){}\[\],:;.=|])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokens_oracle(text: str) -> list[tuple[str, str, int]] | str:
    """The ``(kind, text, offset)`` of each token ``dsl.tokenize`` must
    return for ``text``, ending with ``eof``, or the message it must raise:
    one match per whitespace run, comment or token, the first two dropped."""
    tokens = []
    for m in _LITERAL_TOKEN_RE.finditer(text):
        kind, offset = m.lastgroup, m.start()
        if kind == "bad":
            line = text.count("\n", 0, offset) + 1
            column = offset - (text.rfind("\n", 0, offset) + 1) + 1
            return f"{line}:{column}: unexpected character {m.group()!r}"
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), offset))
    tokens.append(("eof", "", len(text)))
    return tokens


DECLARATION_KEYWORDS = ("type", "star", "rel", "const", "diagram", "query", "union", "setup")


def declarations_oracle(text: str) -> list[tuple[str, str, int, int]] | None:
    """The ``(keyword, name, start, end)`` of each declaration that
    ``dsl.split_declarations`` must find in ``text``, or ``None`` when it must
    find that the text does not split: the literal tokens, bad characters
    among them, cut after each ``;`` outside braces and after the ``}`` that
    closes a diagram's braces.  A declaration starts with a keyword, its name
    is the token after it, and braces do not nest."""
    tokens = [
        (m.lastgroup, m.group(), m.start(), m.end())
        for m in _LITERAL_TOKEN_RE.finditer(text)
        if m.lastgroup not in ("ws", "comment")
    ]
    decls, i = [], 0
    while i < len(tokens):
        kind, keyword, start, _end = tokens[i]
        keyword = keyword.lower()
        if kind != "ident" or keyword not in DECLARATION_KEYWORDS:
            return None
        braced = False
        for j in range(i + 1, len(tokens)):
            kind, tok, _start, end = tokens[j]
            if kind != "punct":
                continue
            if tok == "{":
                if braced:
                    return None
                braced = True
            elif tok == "}":
                if not braced:
                    return None
                braced = False
                if keyword == "diagram":
                    break
            elif tok == ";" and not braced:
                break
        else:
            return None
        decls.append((keyword, tokens[i + 1][1], start, end))
        i = j + 1
    return decls
