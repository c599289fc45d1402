"""Seeded random generators and executable law checks.

The suites here exercise the identity, associativity, and equivariance laws
of diagram composition, the naturality of the relation and partition
algebras, and the concrete witness computations behind the triviality
results for algebra morphisms out of the relational algebra.  All of these
encode theorems: a failure indicates an implementation bug, and each
failure is greedily shrunk to a minimal case that still fails.

Nested cases are :class:`Stack` values of any depth (a diagram with a stack
substituted into each inner star), drawn level by level by
:func:`gen_stack`; one enumerator, :func:`_stack_variants`, shrinks them at
every depth.

Checks call :mod:`wiring.stars` and :mod:`wiring.relations` through their
modules, so tests can corrupt an operation to confirm the harness notices.
"""

from __future__ import annotations

import random
import string
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from . import partitions as partitions_mod
from . import relations as relations_mod
from . import stars as stars_mod
from . import typed as typed_mod
from .errors import ValidationError, WiringError
from .partitions import Partition
from .relations import Relation
from .stars import Frozen, Star, WiringDiagram
from .typed import TypedStar, TypedWiringDiagram, ValueDomain

# the bounds of the random instance generators
MAX_STARS = 4  # inner stars of a diagram
MAX_WIRES = 5  # wires of a star
MAX_CABLES = 6  # cables of a diagram
MAX_DOMAIN = 3  # values of a domain
DOMAIN_COUNT = 3  # domains drawn by gen_domains
RELATION_DENSITY = 0.4  # chance that gen_relation keeps a tuple of a small space
# the domains run_all checks the witness computations over
PROP_WITNESS_DOMAINS = (ValueDomain("A2", (0, 1)), ValueDomain("A3", (0, 1, 2)))


class GeneratorConfig(Frozen):
    """The seed and case count of the law suites; same seed, same sequence."""

    def __init__(self, seed: int = 0, cases: int = 100):
        if cases < 0:
            raise ValidationError("cases must be nonnegative")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "cases", cases)

    # ``__dict__`` holds exactly the fields, in the order ``__init__`` sets them
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in vars(self).items())
        return f"GeneratorConfig({body})"

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class LawFailure(NamedTuple):
    law: str
    case_index: int
    description: str


class SuiteReport(NamedTuple):
    name: str
    cases: int
    failures: tuple[LawFailure, ...] = ()
    skipped: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        line = f"{self.name}: {self.cases} cases, {len(self.failures)} failures"
        if self.skipped:
            line += f", {len(self.skipped)} skipped"
        parts = [line]
        for f in self.failures:
            parts.append(f"  FAIL case {f.case_index}: {f.description}")
        for s in self.skipped:
            parts.append(f"  skip: {s}")
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# generators

def gen_star(rng: random.Random) -> Star:
    k = rng.randint(0, MAX_WIRES)
    return Star(rng.sample(string.ascii_lowercase, k))


def gen_diagram(rng: random.Random, outer: Star | None = None) -> WiringDiagram:
    inner = [gen_star(rng) for _ in range(rng.randint(0, MAX_STARS))]
    if outer is None:
        outer = gen_star(rng)
    total_wires = sum(len(s) for s in inner) + len(outer)
    cables = tuple(range(rng.randint(1 if total_wires else 0, MAX_CABLES)))
    inner_map = {
        (i, w): rng.choice(cables) for i, s in enumerate(inner) for w in s.wires
    }
    outer_map = {w: rng.choice(cables) for w in outer.wires}
    return WiringDiagram(tuple(inner), outer, cables, inner_map, outer_map)


def gen_domains(rng: random.Random) -> list[ValueDomain]:
    return [
        ValueDomain(f"D{i}", tuple(range(rng.randint(1, MAX_DOMAIN))))
        for i in range(DOMAIN_COUNT)
    ]


def gen_typed(
    rng: random.Random, domains: Sequence[ValueDomain] | None = None
) -> TypedWiringDiagram:
    """Type a random diagram by assigning each cable a random domain."""
    wd = gen_diagram(rng)
    if domains is None:
        domains = gen_domains(rng)
    return TypedWiringDiagram(wd, {c: rng.choice(list(domains)) for c in wd.cables})


def gen_relation(rng: random.Random, tstar: TypedStar) -> Relation:
    space = 1
    for w in tstar.wires:
        space *= len(tstar.domain(w))
    if space <= 512:
        tuples = [
            t
            for t in product(*(tstar.domain(w).values for w in tstar.wires))
            if rng.random() < RELATION_DENSITY
        ]
    else:
        tuples = [
            tuple(rng.choice(tstar.domain(w).values) for w in tstar.wires)
            for _ in range(32)
        ]
    return Relation(tstar, tuples)


def gen_partition(rng: random.Random, star: Star) -> Partition:
    blocks: list[list[str]] = []
    for w in star.wires:
        if blocks and rng.random() < 0.5:
            rng.choice(blocks).append(w)
        else:
            blocks.append([w])
    return Partition(star, blocks)


class Stack(NamedTuple):
    """A diagram with a stack substituted into each of its inner stars.

    ``fillers`` is empty at the bottom level; otherwise ``fillers[i]`` has
    ``diagram.inner[i]`` as its outer star.
    """

    diagram: WiringDiagram
    fillers: tuple["Stack", ...] = ()

    def compose(self) -> WiringDiagram:
        """Substitute the fillers' top diagrams into ``diagram``."""
        return stars_mod.compose(self.diagram, [f.diagram for f in self.fillers])


def gen_stack(rng: random.Random, depth: int) -> Stack:
    """A stack ``depth`` levels deep, drawn level by level from the top."""
    levels = [[gen_diagram(rng)]]
    for _ in range(depth - 1):
        levels.append(
            [gen_diagram(rng, outer=y) for wd in levels[-1] for y in wd.inner]
        )
    below = [Stack(wd) for wd in levels.pop()]
    for level in reversed(levels):
        rest = iter(below)
        below = [Stack(wd, tuple(next(rest) for _ in wd.inner)) for wd in level]
    return below[0]


# ---------------------------------------------------------------------------
# shrinking

def _drop_inner_star(wd: WiringDiagram, drop: int) -> WiringDiagram:
    inner = tuple(s for i, s in enumerate(wd.inner) if i != drop)
    inner_map = {
        (i - (i > drop), w): c for (i, w), c in wd.inner_map.items() if i != drop
    }
    return WiringDiagram(inner, wd.outer, wd.cables, inner_map, wd.outer_map)


def _drop_floating(wd: WiringDiagram, cable) -> WiringDiagram:
    cables = tuple(c for c in wd.cables if c != cable)
    return WiringDiagram(wd.inner, wd.outer, cables, wd.inner_map, wd.outer_map)


def _drop_outer_wire(wd: WiringDiagram, wire: str) -> WiringDiagram:
    outer = Star(w for w in wd.outer.wires if w != wire)
    outer_map = {w: c for w, c in wd.outer_map.items() if w != wire}
    return WiringDiagram(wd.inner, outer, wd.cables, wd.inner_map, outer_map)


def _replace(stack: Stack, path: tuple[int, ...], node: Stack) -> Stack:
    """``stack`` with the filler reached by following ``path`` set to ``node``."""
    if not path:
        return node
    i = path[0]
    fillers = stack.fillers
    child = _replace(fillers[i], path[1:], node)
    return Stack(stack.diagram, fillers[:i] + (child,) + fillers[i + 1 :])


def _stack_variants(stack: Stack) -> Iterator[Stack]:
    """One-step-smaller stacks, level by level from the top.

    At every node: drop an inner star together with its filler, then drop a
    floating cable.  Outer wires are dropped at the top only, since below it
    they are fixed by the inner star they fill.  The first
    ``stack.diagram.arity`` variants drop the top inner stars in order.
    """
    level = [((), stack)]
    while level:
        for path, node in level:
            wd, fillers = node.diagram, node.fillers
            for i in range(wd.arity):
                smaller = Stack(_drop_inner_star(wd, i), fillers[:i] + fillers[i + 1 :])
                yield _replace(stack, path, smaller)
            for c in wd.floating_cables():
                yield _replace(stack, path, Stack(_drop_floating(wd, c), fillers))
            if not path:
                for w in wd.outer.wires:
                    yield Stack(_drop_outer_wire(wd, w), fillers)
        level = [
            (path + (i,), filler)
            for path, node in level
            for i, filler in enumerate(node.fillers)
        ]


def shrink(case, variants: Callable, still_fails: Callable) -> object:
    """Greedy descent: take any variant that still fails, until none does."""
    current = case
    progress = True
    while progress:
        progress = False
        for candidate in variants(current):
            try:
                failing = still_fails(candidate)
            except WiringError:
                continue
            if failing:
                current = candidate
                progress = True
                break
    return current


# ---------------------------------------------------------------------------
# law suites

def check_operad_laws(cfg: GeneratorConfig) -> list[SuiteReport]:
    """Identity, associativity, and equivariance on seeded random stacks."""
    rng = cfg.rng()
    identity_failures: list[LawFailure] = []
    assoc_failures: list[LawFailure] = []
    equiv_failures: list[LawFailure] = []

    def identity_fails(stack: Stack) -> bool:
        wd = stack.diagram
        left = stars_mod.compose(stars_mod.identity_diagram(wd.outer), [wd])
        right = stars_mod.compose(wd, [stars_mod.identity_diagram(s) for s in wd.inner])
        return not (
            stars_mod.diagrams_equal(left, wd) and stars_mod.diagrams_equal(right, wd)
        )

    def assoc_fails(stack: Stack) -> bool:
        bottoms = [b.diagram for mid in stack.fillers for b in mid.fillers]
        left = stars_mod.compose(stack.compose(), bottoms)
        right = stars_mod.compose(stack.diagram, [mid.compose() for mid in stack.fillers])
        return not stars_mod.diagrams_equal(left, right)

    def equivariance_fails(case: tuple[Stack, tuple[int, ...]]) -> bool:
        stack, perm = case
        if sorted(perm) != list(range(stack.diagram.arity)):
            raise WiringError("stale permutation")
        fillers = [f.diagram for f in stack.fillers]
        plain = stack.compose()
        permuted = stars_mod.compose(
            stars_mod.reindex_inner(stack.diagram, perm),
            [fillers[p] for p in perm],
        )
        block_sizes = [f.arity for f in fillers]
        starts = [sum(block_sizes[:i]) for i in range(len(block_sizes))]
        flat_perm = [starts[p] + j for p in perm for j in range(block_sizes[p])]
        return not stars_mod.diagrams_equal(
            permuted, stars_mod.reindex_inner(plain, flat_perm)
        )

    def equivariance_variants(case: tuple[Stack, tuple[int, ...]]):
        # the first variants drop the top inner stars in order
        stack, perm = case
        for k, smaller in enumerate(_stack_variants(stack)):
            if k < stack.diagram.arity:
                yield smaller, tuple(p - (p > k) for p in perm if p != k)
            else:
                yield smaller, perm

    for case_index in range(cfg.cases):
        stack1 = gen_stack(rng, 1)
        if identity_fails(stack1):
            small = shrink(stack1, _stack_variants, identity_fails)
            identity_failures.append(LawFailure("identity", case_index, repr(small)))

        stack3 = gen_stack(rng, 3)
        if assoc_fails(stack3):
            small = shrink(stack3, _stack_variants, assoc_fails)
            assoc_failures.append(LawFailure("associativity", case_index, repr(small)))

        stack2 = gen_stack(rng, 2)
        perm = list(range(stack2.diagram.arity))
        rng.shuffle(perm)
        case = (stack2, tuple(perm))
        if equivariance_fails(case):
            small = shrink(case, equivariance_variants, equivariance_fails)
            equiv_failures.append(LawFailure("equivariance", case_index, repr(small)))

    return [
        SuiteReport("operad-identity", cfg.cases, tuple(identity_failures)),
        SuiteReport("operad-associativity", cfg.cases, tuple(assoc_failures)),
        SuiteReport("operad-equivariance", cfg.cases, tuple(equiv_failures)),
    ]


def check_pushout_oracle(cfg: GeneratorConfig) -> SuiteReport:
    """Composition agrees with brute-force quotient enumeration."""
    rng = cfg.rng()
    failures: list[LawFailure] = []

    def pushout_fails(stack: Stack) -> bool:
        fast = stack.compose()
        slow = compose_by_closure(stack.diagram, [f.diagram for f in stack.fillers])
        return not stars_mod.diagrams_equal(fast, slow)

    for case_index in range(cfg.cases):
        stack = gen_stack(rng, 2)
        if pushout_fails(stack):
            small = shrink(stack, _stack_variants, pushout_fails)
            failures.append(LawFailure("pushout-oracle", case_index, repr(small)))
    return SuiteReport("pushout-oracle", cfg.cases, tuple(failures))


def compose_by_closure(
    outer_wd: WiringDiagram, inner_wds: Sequence[WiringDiagram]
) -> WiringDiagram:
    """Independent composition oracle: explicit equivalence-class closure.

    Builds the identification relation on the disjoint union of all cables
    and saturates it by repeated scanning instead of union-find.
    """
    inner_wds = tuple(inner_wds)
    nodes = [("i", i, c) for i, wd in enumerate(inner_wds) for c in wd.cables]
    nodes += [("o", c) for c in outer_wd.cables]
    pairs = [
        (("i", i, wd.outer_map[y]), ("o", outer_wd.inner_map[(i, y)]))
        for i, wd in enumerate(inner_wds)
        for y in wd.outer.wires
    ]
    labels = {node: k for k, node in enumerate(nodes)}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            la, lb = labels[a], labels[b]
            if la != lb:
                low, high = min(la, lb), max(la, lb)
                for node, l in labels.items():
                    if l == high:
                        labels[node] = low
                changed = True
    class_ids: dict[int, int] = {}
    for node in nodes:
        class_ids.setdefault(labels[node], len(class_ids))

    new_inner: list[Star] = []
    inner_map: dict = {}
    for i, wd in enumerate(inner_wds):
        offset = len(new_inner)
        new_inner.extend(wd.inner)
        for (j, w), c in wd.inner_map.items():
            inner_map[(offset + j, w)] = class_ids[labels[("i", i, c)]]
    outer_map = {
        y: class_ids[labels[("o", outer_wd.outer_map[y])]]
        for y in outer_wd.outer.wires
    }
    return WiringDiagram(
        tuple(new_inner),
        outer_wd.outer,
        tuple(range(len(class_ids))),
        inner_map,
        outer_map,
    )


def gen_typed_filler(
    rng: random.Random, tstar: TypedStar, domains: Sequence[ValueDomain]
) -> TypedWiringDiagram:
    """A random typed diagram with the given outer typed star.

    Cable domains are fixed first so each outer wire can be soldered to a
    cable of its own domain; inner wires take whatever domain their cable
    carries.
    """
    inner_stars = [gen_star(rng) for _ in range(rng.randint(0, MAX_STARS))]
    needed = []
    for w in tstar.wires:
        if tstar.domain(w) not in needed:
            needed.append(tstar.domain(w))
    count = max(len(needed), rng.randint(1 if (tstar.wires or inner_stars) else 0, MAX_CABLES))
    pool = list(domains) + needed
    cables = tuple(range(count))
    cable_types = {
        c: needed[c] if c < len(needed) else rng.choice(pool) for c in cables
    }
    by_domain: dict = {}
    for c in cables:
        by_domain.setdefault(cable_types[c], []).append(c)
    outer_map = {w: rng.choice(by_domain[tstar.domain(w)]) for w in tstar.wires}
    inner_map = {
        (i, w): rng.choice(cables)
        for i, s in enumerate(inner_stars)
        for w in s.wires
    }
    wd = WiringDiagram(tuple(inner_stars), tstar.star, cables, inner_map, outer_map)
    return TypedWiringDiagram(wd, cable_types)


def _typed_stack(rng: random.Random):
    """A two-level typed stack with matching interface typings."""
    domains = gen_domains(rng)
    top = gen_typed(rng, domains)
    fillers = tuple(gen_typed_filler(rng, tstar, domains) for tstar in top.inner)
    return top, fillers


def check_algebra_naturality(cfg: GeneratorConfig, algebra: str = "rel") -> SuiteReport:
    """Evaluating a composite equals evaluating stagewise."""
    if algebra not in ("rel", "eq"):
        raise ValueError(f"unknown algebra {algebra!r}")
    rng = cfg.rng()
    failures: list[LawFailure] = []
    for case_index in range(cfg.cases):
        if algebra == "rel":
            top, fillers = _typed_stack(rng)
            rels = [
                [gen_relation(rng, tstar) for tstar in f.inner] for f in fillers
            ]
            composite = typed_mod.typed_compose(top, fillers)
            flat = [r for row in rels for r in row]
            direct = relations_mod.evaluate(composite, flat)
            staged = relations_mod.evaluate(
                top,
                [relations_mod.evaluate(f, row) for f, row in zip(fillers, rels)],
            )
            if direct != staged:
                failures.append(
                    LawFailure("rel-naturality", case_index, repr((top, fillers, rels)))
                )
        else:
            stack = gen_stack(rng, 2)
            fillers = [f.diagram for f in stack.fillers]
            parts = [[gen_partition(rng, s) for s in f.inner] for f in fillers]
            composite = stack.compose()
            flat = [p for row in parts for p in row]
            direct = partitions_mod.evaluate(composite, flat)
            staged = partitions_mod.evaluate(
                stack.diagram,
                [partitions_mod.evaluate(f, row) for f, row in zip(fillers, parts)],
            )
            if direct != staged:
                failures.append(
                    LawFailure("eq-naturality", case_index, repr((stack, parts)))
                )
    return SuiteReport(f"{algebra}-naturality", cfg.cases, tuple(failures))


# ---------------------------------------------------------------------------
# witness computations behind the triviality results

def check_prop_witnesses(domain: ValueDomain, seed: int = 0) -> SuiteReport:
    """Execute the witness equalities that force algebra morphisms out of the
    relational algebra to be trivial.

    (i) the 0-ary diagram with identity outer leg produces the complete
    relation; (ii) a diagram whose outer wires are untouched by the inner
    star sends any nonempty relation to the complete one and the empty one
    to itself; (iii) two disjoint singletons conjoined on one cable produce
    the empty relation; (iv) routing one inner star straight through to the
    output alongside a completely-filled second star returns the input
    unchanged.  Checked on :func:`~wiring.relations.evaluate`, which ``wd`` runs.
    """
    if len(domain) < 2:
        return SuiteReport(
            "prop-witnesses",
            cases=0,
            skipped=("all witnesses need a domain with at least two values",),
        )
    rng = random.Random(seed)
    failures: list[LawFailure] = []

    def record(law: str, index: int, detail: str) -> None:
        failures.append(LawFailure(law, index, detail))

    # (i) complete relation out of nothing
    for index, wires in enumerate((["y"], ["y1", "y2"])):
        y = TypedStar.uniform(wires, domain)
        wd = WiringDiagram((), y.star, tuple(wires), {}, {w: w for w in wires})
        twd = typed_mod.lift_uniform(wd, domain)
        got = relations_mod.evaluate(twd, [])
        if got != Relation.complete(y):
            record("witness-complete", index, f"outer {wires}: got {sorted(got.tuples)}")

    # (ii) nonempty input saturates a disconnected output
    x1 = TypedStar.uniform(["x1", "x2"], domain)
    y = TypedStar.uniform(["y1", "y2"], domain)
    cables = ("cx1", "cx2", "cy1", "cy2")
    wd = WiringDiagram(
        (x1.star,),
        y.star,
        cables,
        {(0, "x1"): "cx1", (0, "x2"): "cx2"},
        {"y1": "cy1", "y2": "cy2"},
    )
    twd = typed_mod.lift_uniform(wd, domain)
    for index in range(3):
        rel = gen_relation(rng, x1)
        got = relations_mod.evaluate(twd, [rel])
        expected = Relation.empty(y) if rel.is_empty else Relation.complete(y)
        if got != expected:
            record("witness-saturate", index, f"input {sorted(rel.tuples)}")
    if relations_mod.evaluate(twd, [Relation.empty(x1)]) != Relation.empty(y):
        record("witness-saturate", 3, "empty input did not stay empty")

    # (iii) disjoint singletons conjoin to nothing
    pt = TypedStar.uniform(["p"], domain)
    wd = WiringDiagram(
        (pt.star, pt.star),
        pt.star,
        ("c",),
        {(0, "p"): "c", (1, "p"): "c"},
        {"p": "c"},
    )
    twd = typed_mod.lift_uniform(wd, domain)
    a1, a2 = domain.values[0], domain.values[1]
    got = relations_mod.evaluate(twd, [Relation(pt, [(a1,)]), Relation(pt, [(a2,)])])
    if not got.is_empty:
        record("witness-disjoint", 0, f"got {sorted(got.tuples)}")

    # (iv) pass-through next to a complete relation returns the input
    two = TypedStar.uniform(["w1", "w2"], domain)
    cables = ("c1", "cshared", "c2")
    wd = WiringDiagram(
        (two.star, two.star),
        two.star,
        cables,
        {
            (0, "w1"): "c1",
            (0, "w2"): "cshared",
            (1, "w1"): "c2",
            (1, "w2"): "cshared",
        },
        {"w1": "c1", "w2": "cshared"},
    )
    twd = typed_mod.lift_uniform(wd, domain)
    complete = Relation.complete(two)
    for index in range(3):
        rel = gen_relation(rng, two)
        if rel.is_empty:
            rel = Relation(two, [(a1, a2)])
        got = relations_mod.evaluate(twd, [rel, complete])
        if got != rel:
            record(
                "witness-passthrough",
                index,
                f"input {sorted(rel.tuples)} gave {sorted(got.tuples)}",
            )

    cases = 2 + 4 + 1 + 3
    return SuiteReport("prop-witnesses", cases, tuple(failures))


def run_all(cfg: GeneratorConfig) -> list[SuiteReport]:
    """Every suite at one configuration, for the command line."""
    reports = check_operad_laws(cfg)
    reports.append(check_pushout_oracle(cfg))
    reports.append(check_algebra_naturality(cfg, "rel"))
    reports.append(check_algebra_naturality(cfg, "eq"))
    for dom in PROP_WITNESS_DOMAINS:
        reports.append(check_prop_witnesses(dom, seed=cfg.seed))
    return reports
