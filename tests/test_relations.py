import random
from itertools import product

import pytest
from hypothesis import given, settings

from oracles import eval_singly
from strategies import typed_and_relations
from wiring.errors import EnumerationLimitError, InterfaceError, ValidationError
from wiring.laws import (
    GeneratorConfig,
    check_algebra_naturality,
    gen_relation,
    gen_typed,
)
from wiring.relations import Relation, evaluate, evaluate_naive, plan_join, union
from wiring.stars import Star, WiringDiagram, identity_diagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain, lift_uniform


def uniform_diagram(wd, domain):
    return lift_uniform(wd, domain)


class TestRelation:
    def test_tuples_must_be_well_typed(self, nand_star):
        with pytest.raises(ValidationError, match="outside domain"):
            Relation(nand_star, [("True", "True", "maybe")])

    def test_wrong_width_rejected(self, nand_star):
        with pytest.raises(ValidationError, match="entries"):
            Relation(nand_star, [("True", "True")])

    def test_empty_star_is_boolean_valued(self):
        empty = TypedStar(Star([]), {})
        yes = Relation(empty, [()])
        no = Relation.empty(empty)
        assert len(yes) == 1 and len(no) == 0
        assert Relation.complete(empty) == yes

    def test_equality_across_wire_orders(self, bool_domain):
        a = Relation(
            TypedStar.uniform(Star(["x", "y"]), bool_domain), [("True", "False")]
        )
        b = Relation(
            TypedStar.uniform(Star(["y", "x"]), bool_domain), [("False", "True")]
        )
        assert a == b


class TestNandExamples:
    def test_tying_inputs_gives_not(self, bool_domain, nand_star, nand_relation):
        io = TypedStar.uniform(["in", "out"], bool_domain)
        wd = WiringDiagram(
            inner=(nand_star.star,),
            outer=io.star,
            cables=("i", "o"),
            inner_map={(0, "A"): "i", (0, "B"): "i", (0, "out"): "o"},
            outer_map={"in": "i", "out": "o"},
        )
        twd = TypedWiringDiagram(wd, {"i": bool_domain, "o": bool_domain})
        got = evaluate(twd, [nand_relation])
        assert got.aligned_tuples(("in", "out")) == frozenset(
            {("True", "False"), ("False", "True")}
        )
        assert got == evaluate_naive(twd, [nand_relation])


@pytest.fixture(scope="module")
def setup():
    dom = ValueDomain.int_range("N82", 0, 81)
    b1 = TypedStar.uniform(["X", "Y", "Z"], dom)
    b2 = TypedStar.uniform(["Z"], dom)
    r1 = Relation(
        b1,
        ((x, y, x * y) for x in dom.values for y in dom.values if x * y <= 81),
    )
    r2 = Relation(b2, [(9,)])
    return dom, b1, b2, r1, r2


class TestThreeQueries:

    def test_join_on_z_selects_products_of_nine(self, setup):
        dom, b1, b2, r1, r2 = setup
        outer = TypedStar.uniform(["X", "Y"], dom)
        wd = WiringDiagram(
            inner=(b1.star, b2.star),
            outer=outer.star,
            cables=("cx", "cy", "cz"),
            inner_map={(0, "X"): "cx", (0, "Y"): "cy", (0, "Z"): "cz", (1, "Z"): "cz"},
            outer_map={"X": "cx", "Y": "cy"},
        )
        twd = TypedWiringDiagram(wd, {c: dom for c in wd.cables})
        got = evaluate(twd, [r1, r2])
        assert got.aligned_tuples(("X", "Y")) == frozenset({(1, 9), (3, 3), (9, 1)})
        # brute pair loop as an independent check
        brute = {
            (x, y) for (x, y, z) in r1.tuples for (z2,) in r2.tuples if z == z2
        }
        assert got.aligned_tuples(("X", "Y")) == brute

    def test_projection_keeps_divisible_pairs(self, setup):
        dom, b1, _b2, r1, _r2 = setup
        outer = TypedStar.uniform(["X", "Z"], dom)
        wd = WiringDiagram(
            inner=(b1.star,),
            outer=outer.star,
            cables=("cx", "cy", "cz"),
            inner_map={(0, "X"): "cx", (0, "Y"): "cy", (0, "Z"): "cz"},
            outer_map={"X": "cx", "Z": "cz"},
        )
        twd = TypedWiringDiagram(wd, {c: dom for c in wd.cables})
        got = evaluate(twd, [r1])
        assert got.aligned_tuples(("X", "Z")) == frozenset(
            {(x, z) for (x, y, z) in r1.tuples}
        )

    def test_tying_x_and_y_keeps_squares(self, setup):
        dom, b1, _b2, r1, _r2 = setup
        outer = TypedStar.uniform(["Z"], dom)
        wd = WiringDiagram(
            inner=(b1.star,),
            outer=outer.star,
            cables=("cxy", "cz"),
            inner_map={(0, "X"): "cxy", (0, "Y"): "cxy", (0, "Z"): "cz"},
            outer_map={"Z": "cz"},
        )
        twd = TypedWiringDiagram(wd, {"cxy": dom, "cz": dom})
        got = evaluate(twd, [r1])
        assert got.aligned_tuples(("Z",)) == frozenset(
            {(x * x,) for x in range(10)}
        )


@pytest.fixture(scope="module")
def exists_diagram():
    dom = ValueDomain.int_range("N", 0, 4)
    x = TypedStar.uniform(["x"], dom)
    y = TypedStar.uniform(["y"], dom)
    wd = WiringDiagram(
        inner=(x.star,),
        outer=y.star,
        cables=("cx", "cy"),
        inner_map={(0, "x"): "cx"},
        outer_map={"y": "cy"},
    )
    return dom, x, y, TypedWiringDiagram(wd, {"cx": dom, "cy": dom})


class TestExistentialExample:

    def test_nonempty_input_saturates(self, exists_diagram):
        dom, x, y, twd = exists_diagram
        got = evaluate(twd, [Relation(x, [(2,)])])
        assert got == Relation.complete(y)
        assert got == evaluate_naive(twd, [Relation(x, [(2,)])])

    def test_empty_input_stays_empty(self, exists_diagram):
        _dom, x, y, twd = exists_diagram
        assert evaluate(twd, [Relation.empty(x)]) == Relation.empty(y)


class TestZeroAryAndEdgeCases:
    def test_zero_ary_identity_leg_gives_complete(self, bool_domain):
        y = TypedStar.uniform(["a", "b"], bool_domain)
        wd = WiringDiagram((), y.star, ("a", "b"), {}, {"a": "a", "b": "b"})
        twd = TypedWiringDiagram(wd, {"a": bool_domain, "b": bool_domain})
        assert evaluate(twd, []) == Relation.complete(y)

    def test_identity_diagram_returns_input(self, nand_star, nand_relation):
        twd = lift_uniform(identity_diagram(nand_star.star), nand_star.domain("A"))
        assert evaluate(twd, [nand_relation]) == nand_relation
        assert evaluate_naive(twd, [nand_relation]) == nand_relation

    def test_empty_cable_domain_forces_empty(self):
        none = ValueDomain("none", ())
        y = TypedStar(Star(["a"]), {"a": none})
        wd = WiringDiagram((), y.star, ("a", "f"), {}, {"a": "a"})
        twd = TypedWiringDiagram(wd, {"a": none, "f": none})
        assert evaluate(twd, []).is_empty
        assert evaluate_naive(twd, []).is_empty

    def test_floating_empty_cable_also_forces_empty(self, bool_domain):
        none = ValueDomain("none", ())
        y = TypedStar.uniform(["a"], bool_domain)
        wd = WiringDiagram((), y.star, ("a", "f"), {}, {"a": "a"})
        twd = TypedWiringDiagram(wd, {"a": bool_domain, "f": none})
        assert evaluate(twd, []).is_empty

    def test_star_mismatch_rejected(self, bool_domain, nand_relation):
        twd = lift_uniform(identity_diagram(Star(["p"])), bool_domain)
        with pytest.raises(InterfaceError):
            evaluate(twd, [nand_relation])

    def test_naive_guard_refuses_large_spaces(self, bool_domain):
        star = TypedStar.uniform(["a"], bool_domain)
        twd = lift_uniform(identity_diagram(star.star), bool_domain)
        with pytest.raises(EnumerationLimitError):
            evaluate_naive(twd, [Relation.empty(star)], max_product=1)


class TestAbsorption:
    def test_disconnected_empty_input_still_empties_output(self, bool_domain):
        # inner star shares no cable with the outer star
        x = TypedStar.uniform(["x"], bool_domain)
        y = TypedStar.uniform(["y"], bool_domain)
        wd = WiringDiagram(
            inner=(x.star,),
            outer=y.star,
            cables=("cx", "cy"),
            inner_map={(0, "x"): "cx"},
            outer_map={"y": "cy"},
        )
        twd = TypedWiringDiagram(wd, {"cx": bool_domain, "cy": bool_domain})
        assert evaluate(twd, [Relation.empty(x)]).is_empty

    def test_random_instances(self):
        rng = random.Random(21)
        cfg = GeneratorConfig(seed=21)
        for _ in range(100):
            twd = gen_typed(rng, cfg)
            if twd.arity == 0:
                continue
            rels = [gen_relation(rng, t) for t in twd.inner]
            victim = rng.randrange(twd.arity)
            rels[victim] = Relation.empty(twd.inner[victim])
            assert evaluate(twd, rels).is_empty


class TestUnion:
    def test_requires_same_star(self, bool_domain):
        a = Relation.empty(TypedStar.uniform(["x"], bool_domain))
        b = Relation.empty(TypedStar.uniform(["y"], bool_domain))
        with pytest.raises(InterfaceError):
            union(a, b)

    @settings(max_examples=40, deadline=None)
    @given(typed_and_relations())
    def test_union_unit_and_idempotence(self, case):
        twd, rels = case
        for rel in rels:
            assert union(rel, Relation.empty(rel.star)) == rel
            assert union(rel, rel) == rel

    def test_join_preservation_in_each_argument(self):
        rng = random.Random(31)
        cfg = GeneratorConfig(seed=31)
        for _ in range(60):
            twd = gen_typed(rng, cfg)
            if twd.arity == 0:
                continue
            rels = [gen_relation(rng, t) for t in twd.inner]
            slot = rng.randrange(twd.arity)
            extra = gen_relation(rng, twd.inner[slot])
            joined = list(rels)
            joined[slot] = union(rels[slot], extra)
            alt = list(rels)
            alt[slot] = extra
            assert evaluate(twd, joined) == union(evaluate(twd, rels), evaluate(twd, alt))


class TestMonotonicityAndOracle:
    def test_monotone_in_every_argument(self):
        rng = random.Random(41)
        cfg = GeneratorConfig(seed=41)
        for _ in range(60):
            twd = gen_typed(rng, cfg)
            rels = [gen_relation(rng, t) for t in twd.inner]
            bigger = [union(r, gen_relation(rng, r.star)) for r in rels]
            assert evaluate(twd, rels) <= evaluate(twd, bigger)

    def test_fast_path_matches_naive_on_randoms(self):
        rng = random.Random(51)
        cfg = GeneratorConfig(seed=51)
        for _ in range(150):
            twd = gen_typed(rng, cfg)
            rels = [gen_relation(rng, t) for t in twd.inner]
            assert evaluate(twd, rels) == evaluate_naive(twd, rels)

    def test_uniform_typing_matches_untyped_construction(self):
        # the typed evaluator restricted to one domain equals the
        # single-value-set reading computed from scratch
        rng = random.Random(61)
        cfg = GeneratorConfig(seed=61, max_wires=3, max_cables=4)
        dom = ValueDomain("A", (0, 1, 2))
        for _ in range(60):
            from wiring.laws import gen_diagram

            wd = gen_diagram(rng, cfg)
            twd = lift_uniform(wd, dom)
            rels = [gen_relation(rng, t) for t in twd.inner]
            got = evaluate(twd, rels)
            oracle = eval_singly(
                wd,
                dom.values,
                [r.aligned_tuples(s.wires) for r, s in zip(rels, wd.inner)],
            )
            assert got.aligned_tuples(twd.outer.wires) == frozenset(oracle)


def test_rel_naturality_suite_passes():
    report = check_algebra_naturality(GeneratorConfig(seed=8, cases=120), "rel")
    assert report.ok, report.format()


def _path(rng, dom, sizes):
    """A path query R0(a,b), R1(b,c), ... with relations of the given sizes."""
    n = len(sizes)
    cables = tuple(f"c{k}" for k in range(n + 1))
    stars = [TypedStar.uniform(["x", "y"], dom) for _ in range(n)]
    outer = TypedStar.uniform(["first", "last"], dom)
    inner_map = {}
    for i in range(n):
        inner_map[(i, "x")] = cables[i]
        inner_map[(i, "y")] = cables[i + 1]
    wd = WiringDiagram(
        inner=tuple(s.star for s in stars),
        outer=outer.star,
        cables=cables,
        inner_map=inner_map,
        outer_map={"first": cables[0], "last": cables[-1]},
    )
    twd = TypedWiringDiagram(wd, {c: dom for c in cables})
    space = [(x, y) for x in dom.values for y in dom.values]
    rels = [Relation(s, rng.sample(space, k)) for s, k in zip(stars, sizes)]
    return twd, rels


class TestJoinPlan:
    def test_path_order_follows_shared_cables(self):
        # The two smallest relations, the ends of the path, share no cable.
        dom = ValueDomain.int_range("N", 0, 7)
        twd, rels = _path(random.Random(3), dom, [5, 40, 30, 6])
        plan = plan_join(twd, [len(r) for r in rels])
        assert [step.star for step in plan.steps] == [0, 1, 2, 3]
        for step in plan.steps[1:]:
            assert step.key_slots
        assert plan.steps[-1].cables == ("c0", "c4")
        assert evaluate(twd, rels) == evaluate_naive(twd, rels)

    def test_disconnected_stars_fall_back_to_smallest(self, bool_domain):
        a = TypedStar.uniform(["p"], bool_domain)
        wd = WiringDiagram(
            inner=(a.star, a.star, a.star),
            outer=Star(["p", "q"]),
            cables=("x", "y"),
            inner_map={(0, "p"): "x", (1, "p"): "y", (2, "p"): "x"},
            outer_map={"p": "x", "q": "y"},
        )
        twd = TypedWiringDiagram(wd, {"x": bool_domain, "y": bool_domain})
        plan = plan_join(twd, [1, 2, 2])
        # star 2 shares cable x with star 0; star 1 is a cross product
        assert [step.star for step in plan.steps] == [0, 2, 1]
        assert plan.steps[2].key_slots == ()

    def test_cable_on_two_wires_of_one_star(self, nand_star):
        io = TypedStar.uniform(["in", "out"], nand_star.domain("A"))
        wd = WiringDiagram(
            inner=(nand_star.star,),
            outer=io.star,
            cables=("i", "o"),
            inner_map={(0, "A"): "i", (0, "B"): "i", (0, "out"): "o"},
            outer_map={"in": "i", "out": "o"},
        )
        twd = TypedWiringDiagram(wd, {c: nand_star.domain("A") for c in "io"})
        (step,) = plan_join(twd, [4]).steps
        assert step.equal_pairs == ((0, 1),)
        assert step.cables == ("i", "o")


def _random_instance(rng):
    """2-4 stars over 2-5 cables with up to 60 tuples per relation, small
    enough for evaluate_naive; some outer cables may touch no inner wire."""
    dom = ValueDomain.int_range("D", 0, rng.randint(2, 5))
    n_cables = rng.randint(2, 4 if len(dom) > 4 else 5)
    cables = tuple(f"k{c}" for c in range(n_cables))
    stars, inner_map, rels = [], {}, []
    for i in range(rng.randint(2, 4)):
        wires = [f"w{j}" for j in range(rng.randint(1, 3))]
        star = TypedStar.uniform(wires, dom)
        for w in wires:
            inner_map[(i, w)] = rng.choice(cables)
        stars.append(star)
        space = list(product(dom.values, repeat=len(wires)))
        size = rng.choice([0, 1, 2, rng.randint(0, 60)])
        rels.append(Relation(star, rng.sample(space, min(size, len(space)))))
    outer_wires = [f"o{j}" for j in range(rng.randint(0, 3))]
    outer = TypedStar.uniform(outer_wires, dom)
    wd = WiringDiagram(
        inner=tuple(s.star for s in stars),
        outer=outer.star,
        cables=cables,
        inner_map=inner_map,
        outer_map={w: rng.choice(cables) for w in outer_wires},
    )
    twd = TypedWiringDiagram(wd, {c: dom for c in cables})
    return twd, rels


def test_plan_matches_naive_on_seeded_instances(monkeypatch):
    import wiring.relations as relations_mod

    indexed = set()
    group = relations_mod._group

    def spy(items, key):
        indexed.add("partials" if isinstance(items, set) else "rows")
        return group(items, key)

    monkeypatch.setattr(relations_mod, "_group", spy)
    seen = {"cross": 0, "equal": 0, "free": 0, "emptied": 0}
    rng = random.Random(71)
    for _ in range(300):
        twd, rels = _random_instance(rng)
        plan = plan_join(twd, [len(r) for r in rels])
        got = evaluate(twd, rels)
        assert got == evaluate_naive(twd, rels)
        seen["cross"] += any(not s.key_slots for s in plan.steps[1:])
        seen["equal"] += any(s.equal_pairs for s in plan.steps)
        seen["free"] += bool(plan.free)
        seen["emptied"] += got.is_empty and all(rels)
    assert indexed == {"partials", "rows"}
    assert all(seen.values()), seen

    # A path whose first join is empty: the partials empty in mid-plan.
    dom = ValueDomain.int_range("N", 0, 3)
    twd, rels = _path(random.Random(5), dom, [2, 3, 4])
    star = rels[1].star
    rels[0] = Relation(star, [(0, 0), (1, 0)])
    rels[1] = Relation(star, [(1, 2), (2, 2), (3, 3)])
    assert evaluate(twd, rels).is_empty
    assert evaluate_naive(twd, rels).is_empty


def test_inputs_are_read_by_wire_name_not_position():
    # The second input lives on a reordered copy of its inner star, with a
    # different domain on each wire: its columns must still meet the right
    # cables, whether the plan joins it first or second.
    n = ValueDomain.int_range("N", 0, 2)
    t = ValueDomain("T", ["x", "y"])
    u = TypedStar(["A", "B"], {"A": n, "B": t})
    v = TypedStar(["B", "A"], {"A": n, "B": t})
    outer = TypedStar(["a", "b", "c"], {"a": n, "b": t, "c": n})
    wd = WiringDiagram(
        inner=(u.star, u.star),
        outer=outer.star,
        cables=("a", "b", "c"),
        inner_map={(0, "A"): "a", (0, "B"): "b", (1, "A"): "c", (1, "B"): "b"},
        outer_map={"a": "a", "b": "b", "c": "c"},
    )
    twd = TypedWiringDiagram(wd, {"a": n, "b": t, "c": n})
    first = Relation(u, [(0, "x"), (1, "y")])
    expected = {(0, "x", 2), (1, "y", 0), (1, "y", 1)}
    for second in (
        Relation(v, [("x", 2), ("y", 0), ("y", 1)]),
        Relation(v, [("y", 0), ("y", 1)]),
    ):
        got = evaluate(twd, [first, second])
        assert got == evaluate_naive(twd, [first, second])
        want = {r for r in expected if (r[1], r[2]) in second}
        assert got.aligned_tuples(("a", "b", "c")) == want

class TestFreeCableBound:
    def _diagram(self, dom, n_free):
        u = TypedStar.uniform(["a"], dom)
        wires = [f"f{k}" for k in range(n_free)]
        outer = TypedStar.uniform(["a", *wires], dom)
        wd = WiringDiagram(
            inner=(u.star,),
            outer=outer.star,
            cables=("a", *wires),
            inner_map={(0, "a"): "a"},
            outer_map={w: w for w in outer.wires},
        )
        twd = TypedWiringDiagram(wd, {c: dom for c in wd.cables})
        return u, twd

    def test_expansion_above_the_bound_is_refused(self):
        dom = ValueDomain.int_range("N", 0, 99)
        u, twd = self._diagram(dom, 4)
        with pytest.raises(EnumerationLimitError, match="100000000"):
            evaluate(twd, [Relation(u, [(3,)])])

    def test_bound_counts_partial_tuples(self, monkeypatch):
        import wiring.relations as relations_mod

        monkeypatch.setattr(relations_mod, "ENUMERATION_LIMIT", 20)
        dom = ValueDomain.int_range("N", 0, 9)
        u, twd = self._diagram(dom, 1)
        assert len(evaluate(twd, [Relation(u, [(1,), (2,)])])) == 20
        with pytest.raises(EnumerationLimitError):
            evaluate(twd, [Relation(u, [(1,), (2,), (3,)])])
