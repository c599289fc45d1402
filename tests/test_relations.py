import copy
import gc
import math
import os
import pickle
import random
import subprocess
import sys
from itertools import compress, product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_singly, evaluate_naive, relation_misfit
from strategies import typed_and_relations
import wiring
from wiring.errors import EnumerationLimitError, InterfaceError, ValidationError
from wiring.laws import (
    GeneratorConfig,
    check_algebra_naturality,
    gen_relation,
    gen_typed,
)
from wiring.relations import (
    Relation,
    _binary_steps,
    _cable_order,
    _cover_bound,
    _is_acyclic,
    _join_loop,
    _meet,
    _step_loop,
    evaluate,
    union,
)
from wiring.stars import Star, WiringDiagram, identity_diagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain, lift_uniform


def uniform_diagram(wd, domain):
    return lift_uniform(wd, domain)


class TestRelation:
    def test_tuples_must_be_well_typed(self, nand_star):
        with pytest.raises(ValidationError) as err:
            Relation(nand_star, [("True", "False", "True"), ("True", "maybe", "False")])
        assert str(err.value) == "value 'maybe' is outside domain 'Bool' of wire 'B'"

    def test_wrong_width_rejected(self, nand_star):
        with pytest.raises(ValidationError) as err:
            Relation(nand_star, [("True", "False", "True"), ("True", "True")])
        assert str(err.value) == "tuple ('True', 'True') has 2 entries, star has 3 wires"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepts_and_rejects_as_the_row_oracle(self, data):
        domains = [
            ValueDomain("Bit", (0, 1)),
            ValueDomain("Mixed", (1, "a")),
            ValueDomain("Text", ("a", "b", "1")),
        ]
        wires = data.draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
        star = TypedStar(Star(wires), {w: data.draw(st.sampled_from(domains)) for w in wires})
        # True and 1, False and 0 are equal and hash alike: they must pass
        # or fail together, as in the row oracle
        value = st.sampled_from([0, 1, 2, True, False, "a", "b", "1", -1])
        width = st.one_of(st.just(len(wires)), st.integers(0, 4))
        tuples = data.draw(
            st.lists(width.flatmap(lambda n: st.tuples(*[value] * n)), max_size=6)
        )
        expected = relation_misfit(star, tuples)
        if expected is None:
            assert Relation(star, tuples).tuples == frozenset(tuples)
        else:
            with pytest.raises(ValidationError) as err:
                Relation(star, tuples)
            assert str(err.value) == expected

    def test_misfit_error_is_the_same_under_every_hash_seed(self):
        # text hashes are salted per process, so a check in set order would
        # name a different misfit in each; arrival order names 'zz' in all
        code = (
            "from wiring.relations import Relation\n"
            "from wiring.typed import TypedStar, ValueDomain\n"
            "star = TypedStar.uniform(['x'], ValueDomain('D', ('a', 'b', 'c')))\n"
            "Relation(star, [('a',), ('zz',), ('yy',), ('qq',), ('b',)])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(wiring.__file__)))
        errors = set()
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=60,
            )
            assert done.returncode == 1
            errors.add(done.stderr.strip().splitlines()[-1])
        assert errors == {
            "wiring.errors.ValidationError: value 'zz' is outside domain 'D' of wire 'x'"
        }

    def test_a_generator_gives_the_relation_of_a_list(self, bool_domain):
        star = TypedStar.uniform(["x", "y"], bool_domain)
        pairs = [("True", "False"), ("False", "False"), ("True", "False")]
        assert Relation(star, (p for p in pairs)) == Relation(star, pairs)

    def test_the_callers_list_can_change_afterwards(self, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        rows = [["True"]]
        rel = Relation(star, rows)
        rows[0][0] = "False"
        rows.append(["maybe"])
        assert rel.tuples == frozenset({("True",)})

    def test_duplicates_and_equal_values_pass_or_fail_together(self):
        bit = TypedStar.uniform(["x"], ValueDomain("Bit", (0, 1)))
        text = TypedStar.uniform(["x"], ValueDomain("Text", ("a", "1")))
        tuples = [(1,), (True,), (1,), (0,), (False,)]
        assert Relation(bit, tuples).tuples == frozenset({(1,), (0,)})
        with pytest.raises(ValidationError) as err:
            Relation(text, tuples[1:])
        assert str(err.value) == "value True is outside domain 'Text' of wire 'x'"
        assert str(err.value) == relation_misfit(text, tuples[1:])

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
    dom = ValueDomain("N82", range(82))
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
            {(x, z) for (x, _y, z) in r1.tuples}
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
    dom = ValueDomain("N", range(5))
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
        _dom, x, y, twd = exists_diagram
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

    def test_naive_guard_refuses_large_spaces(self, bool_domain, monkeypatch):
        import wiring.relations as relations_mod

        monkeypatch.setattr(relations_mod, "ENUMERATION_LIMIT", 1)
        star = TypedStar.uniform(["a"], bool_domain)
        twd = lift_uniform(identity_diagram(star.star), bool_domain)
        with pytest.raises(EnumerationLimitError):
            evaluate_naive(twd, [Relation.empty(star)])


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
            twd = gen_typed(rng)
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
        _twd, rels = case
        for rel in rels:
            assert union(rel, Relation.empty(rel.star)) == rel
            assert union(rel, rel) == rel

    def test_join_preservation_in_each_argument(self):
        rng = random.Random(31)
        cfg = GeneratorConfig(seed=31)
        for _ in range(60):
            twd = gen_typed(rng)
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
            twd = gen_typed(rng)
            rels = [gen_relation(rng, t) for t in twd.inner]
            bigger = [union(r, gen_relation(rng, r.star)) for r in rels]
            assert evaluate(twd, rels) <= evaluate(twd, bigger)

    def test_fast_path_matches_naive_on_randoms(self):
        rng = random.Random(51)
        cfg = GeneratorConfig(seed=51)
        for _ in range(150):
            twd = gen_typed(rng)
            rels = [gen_relation(rng, t) for t in twd.inner]
            assert evaluate(twd, rels) == evaluate_naive(twd, rels)

    def test_uniform_typing_matches_untyped_construction(self, monkeypatch):
        # the typed evaluator restricted to one domain equals the
        # single-value-set reading computed from scratch
        rng = random.Random(61)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 3)
        monkeypatch.setattr("wiring.laws.MAX_CABLES", 4)
        dom = ValueDomain("A", (0, 1, 2))
        for _ in range(60):
            from wiring.laws import gen_diagram

            wd = gen_diagram(rng)
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


def _cables(twd):
    """Each inner star's cables in its wire order, and the outer cables in
    the outer wire order, as :func:`evaluate` reads them."""
    wd = twd.diagram
    inner = [tuple(wd.inner_map[i, w] for w in star.wires) for i, star in enumerate(wd.inner)]
    return inner, tuple(wd.outer_map[w] for w in wd.outer.wires)


def _steps(twd, sizes):
    """The binary steps for inputs of the given sizes."""
    return _binary_steps(*_cables(twd), sizes)[0]


def _order(twd, sizes):
    """The generic join's cable order for inputs of the given sizes."""
    return _cable_order(_cables(twd)[0], sizes)


def _cyclic(twd):
    """Whether a first join through ``twd`` runs the generic join."""
    return not _is_acyclic(_cables(twd)[0])


def _free(twd):
    """The outer cables that no inner wire touches."""
    inner, outer = _cables(twd)
    return set(outer) - set().union(*inner)


class TestBinarySteps:
    def test_path_order_follows_shared_cables(self):
        # The two smallest relations, the ends of the path, share no cable.
        dom = ValueDomain("N", range(8))
        twd, rels = _path(random.Random(3), dom, [5, 40, 30, 6])
        steps = _steps(twd, [len(r) for r in rels])
        assert [step.star for step in steps] == [0, 1, 2, 3]
        for step in steps[1:]:
            assert step.key_slots
        assert steps[-1].cables == ("c0", "c4")
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
        steps = _steps(twd, [1, 2, 2])
        # star 2 shares cable x with star 0; star 1 is a cross product
        assert [step.star for step in steps] == [0, 2, 1]
        assert steps[2].key_slots == ()

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
        (step,) = _steps(twd, [4])
        assert step.equal_pairs == ((0, 1),)
        assert step.cables == ("i", "o")


def _random_instance(rng):
    """2-4 stars over 2-5 cables with up to 60 tuples per relation, small
    enough for evaluate_naive; some outer cables may touch no inner wire."""
    dom = ValueDomain("D", range(rng.randint(2, 5) + 1))
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


def test_plan_matches_naive_on_seeded_instances(generic_calls):
    # Each instance is evaluated twice on the same relations: the first
    # evaluation runs the executor its shape chooses and records the join
    # on its inputs, the second runs the generic join on their tries.
    # Then twice more on fresh copies, some of them shared between equal
    # stars: a self-join.
    seen = dict.fromkeys(
        ["cross", "equal", "free", "emptied", "pass-through", "self-join", "empty-input"], 0
    )
    rng = random.Random(71)
    twins = random.Random(72)
    for _ in range(300):
        twd, rels = _random_instance(rng)
        cyclic = _cyclic(twd)
        steps = () if cyclic else _steps(twd, [len(r) for r in rels])
        fresh = [Relation._trusted(star=r.star, tuples=r.tuples) for r in rels]
        shared = [
            fresh[min(i for i, q in enumerate(rels) if q.star == r.star)]
            if twins.random() < 0.5 else fresh[j]
            for j, r in enumerate(rels)
        ]
        for inputs in (shared, rels):
            want = evaluate_naive(twd, inputs)
            generic_calls.clear()
            got = evaluate(twd, inputs)
            assert got == want
            assert len(generic_calls) == cyclic
            assert evaluate(twd, inputs) == want
            assert len(generic_calls) == 1 + cyclic
            assert generic_calls[-1] is not None
        seen["cross"] += any(not s.key_slots for s in steps[1:])
        seen["equal"] += any(s.equal_pairs for s in steps)
        seen["free"] += bool(_free(twd))
        seen["emptied"] += got.is_empty and all(rels)
        seen["self-join"] += len(set(map(id, shared))) < len(shared)
        seen["empty-input"] += not all(rels)
        if steps:
            first = steps[0]
            wires = twd.inner[first.star].wires
            whole = first.keep == tuple(range(len(wires))) and not first.equal_pairs
            seen["pass-through"] += whole and not got.is_empty
    assert all(seen.values()), seen

    # A path whose first join is empty: the partials empty in mid-plan.
    dom = ValueDomain("N", range(4))
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
    n = ValueDomain("N", range(3))
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
        dom = ValueDomain("N", range(100))
        u, twd = self._diagram(dom, 4)
        with pytest.raises(EnumerationLimitError, match="100000000"):
            evaluate(twd, [Relation(u, [(3,)])])

    def test_bound_counts_partial_tuples(self, monkeypatch):
        import wiring.relations as relations_mod

        monkeypatch.setattr(relations_mod, "ENUMERATION_LIMIT", 20)
        dom = ValueDomain("N", range(10))
        u, twd = self._diagram(dom, 1)
        assert len(evaluate(twd, [Relation(u, [(1,), (2,)])])) == 20
        with pytest.raises(EnumerationLimitError):
            evaluate(twd, [Relation(u, [(1,), (2,), (3,)])])


class TestCrossProductBound:
    def _pairs(self, monkeypatch, limit, n):
        import wiring.relations as relations_mod

        monkeypatch.setattr(relations_mod, "ENUMERATION_LIMIT", limit)
        dom = ValueDomain("N", range(n))
        twd, (u, v) = _wired(dom, [("a",), ("b",)], ("a", "b"))
        rels = [Relation(u, [(k,) for k in range(n)]), Relation(v, [(k,) for k in range(n)])]
        return twd, rels

    def test_keyless_step_above_the_bound_is_refused(self, monkeypatch):
        twd, rels = self._pairs(monkeypatch, 1000, 40)
        assert not _steps(twd, [40, 40])[1].key_slots
        with pytest.raises(EnumerationLimitError) as info:
            evaluate(twd, rels)
        assert "40 partial tuples and 40 tuples" in str(info.value)
        assert "enumerates 1600 pairs, bound is 1000" in str(info.value)

    def test_keyless_step_at_the_bound_runs(self, monkeypatch):
        twd, rels = self._pairs(monkeypatch, 1600, 40)
        assert len(evaluate(twd, rels)) == 1600

    def test_first_step_is_not_counted(self, monkeypatch):
        # the first step only reads its relation, however large
        _twd, rels = self._pairs(monkeypatch, 5, 40)
        proj, _stars = _wired(ValueDomain("N", range(40)), [("a",)], ())
        assert evaluate(proj, rels[:1]).tuples == {()}


class TestKeyedStepBound:
    def _self_join(self, rows):
        # R(k, x) joined with itself on k, keeping both x
        dom = ValueDomain("N", range(max(max(t) for t in rows) + 1))
        twd, (u, _v) = _wired(dom, [("k", "a"), ("k", "b")], ("a", "b"))
        rel = Relation(u, rows)
        return twd, [rel, rel]

    def test_keyed_step_above_the_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
        twd, rels = self._self_join([(0, x) for x in range(200)])
        assert _steps(twd, [200, 200])[1].key_slots
        with pytest.raises(EnumerationLimitError) as info:
            evaluate(twd, rels)
        assert "joining 200 partial tuples with 200 matching tuples" in str(info.value)
        assert "enumerates 40000 pairs, bound is 1000" in str(info.value)

    def test_keyed_step_under_the_bound_runs(self, monkeypatch):
        twd, rels = self._self_join([(0, x) for x in range(31)])
        want = evaluate_naive(twd, rels)  # its guard reads the limit too
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
        got = evaluate(twd, rels)
        assert len(got) == 961 and got == want

    def test_keyed_step_counts_only_matched_tuples(self, monkeypatch):
        # 200 x 200 is over the bound, but each tuple meets one partial
        twd, rels = self._self_join([(x, x) for x in range(200)])
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
        assert evaluate(twd, rels).aligned_tuples(("o0", "o1")) == {(x, x) for x in range(200)}


class TestStepLoop:
    def test_loop_builds_each_kept_slot(self):
        cross = _step_loop((2, 0, 1), 1)
        assert cross({(): {(1,), (2,)}}, [("x", "y")], lambda t: ()) == {
            ("y", 1, "x"),
            ("y", 2, "x"),
        }
        probe = _step_loop((0,), 1)
        assert probe({7: [(1,), (2,)]}, [(7, 0)], itemgetter(0)) == {(1,), (2,)}
        assert _step_loop((), 2)({(): {(1, 2)}}, [()], lambda t: ()) == {()}

    @pytest.mark.parametrize(
        "keep, width",
        [((0, "1"), 1), (("__import__('os')",), 0), ((0,), 1.0), ((True,), 0), ((0,), "1")],
    )
    def test_guard_refuses_positions_that_are_not_ints(self, keep, width):
        # 1.0 and True hash as 1: a cached loop for the int would answer
        _step_loop.cache_clear()
        with pytest.raises(TypeError, match="ints"):
            _step_loop(keep, width)

    def test_cache_is_bounded_and_shared(self):
        assert _step_loop.cache_info().maxsize == 256
        assert _step_loop((1, 0), 1) is _step_loop((1, 0), 1)

    def test_free_cable_expansion_runs_the_step_loop(self, monkeypatch):
        import wiring.relations as relations_mod

        calls = []
        step_loop = relations_mod._step_loop

        def spy(keep, width):
            calls.append((keep, width))
            return step_loop(keep, width)

        monkeypatch.setattr(relations_mod, "_step_loop", spy)
        dom = ValueDomain("N", range(3))
        twd, (u,) = _wired(dom, [("a",)], ("f", "a"))
        got = evaluate(twd, [Relation(u, [(1,), (2,)])])
        assert got.aligned_tuples(("o0", "o1")) == {(f, a) for f in range(3) for a in (1, 2)}
        assert calls == [((1, 0), 1)]


def _wired(dom, stars, outer):
    """A typed diagram over ``dom``: wire ``w<j>`` of star ``i`` is soldered
    to cable ``stars[i][j]`` and outer wire ``o<j>`` to ``outer[j]``."""
    inner = [TypedStar.uniform([f"w{j}" for j in range(len(s))], dom) for s in stars]
    out = TypedStar.uniform([f"o{j}" for j in range(len(outer))], dom)
    cables = tuple(dict.fromkeys([c for s in stars for c in s] + list(outer)))
    wd = WiringDiagram(
        inner=tuple(s.star for s in inner),
        outer=out.star,
        cables=cables,
        inner_map={(i, f"w{j}"): c for i, s in enumerate(stars) for j, c in enumerate(s)},
        outer_map={f"o{j}": c for j, c in enumerate(outer)},
    )
    return TypedWiringDiagram(wd, {c: dom for c in cables}), inner


def _draw(rng, star, size, hubs=()):
    """``size`` draws of tuples on ``star``; with hubs, half of all entries
    come from them."""
    values = star.domain(star.wires[0]).values if star.wires else ()

    def entry():
        return rng.choice(hubs) if hubs and rng.random() < 0.5 else rng.choice(values)

    return Relation(star, [tuple(entry() for _ in star.wires) for _ in range(size)])


def _tries(rel):
    """The hash tries ``rel`` keeps, by key."""
    return rel.__dict__.get("_tries", {})


TRIANGLE = [("a", "b"), ("b", "c"), ("c", "a")]
SQUARE = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]

CYCLIC_CASES = {
    "triangle": (TRIANGLE, ("a", "b", "c")),
    "square-opposite-corners": (SQUARE, ("a", "c")),
    "square-with-chord": (SQUARE + [("a", "c")], ("b", "d", "a")),
    "cable-on-two-wires": ([("a", "a", "b"), ("b", "c"), ("c", "a")], ("c", "a")),
    "free-outer-cables": (TRIANGLE, ("f", "a", "f", "g")),
    "cycle-beside-a-path": (TRIANGLE + [("x", "y"), ("y", "z")], ("a", "x", "z")),
    "projected-to-nothing": (TRIANGLE, ()),
}


class TestGenericJoin:
    """Cyclic diagrams run the generic join and agree with evaluate_naive."""

    @pytest.mark.parametrize("name", list(CYCLIC_CASES))
    def test_seeded_instances(self, name, monkeypatch):
        # Each instance is evaluated twice on the same relations; the
        # second evaluation builds no trie, it reads those of the first.
        import wiring.relations as relations_mod

        built = []
        trie = relations_mod._trie

        def spy(rows, positions):
            built.append(positions)
            return trie(rows, positions)

        monkeypatch.setattr(relations_mod, "_trie", spy)
        stars, outer = CYCLIC_CASES[name]
        rng = random.Random(97)
        dom = ValueDomain("D", range(6))
        twd, inner = _wired(dom, stars, outer)
        assert _cyclic(twd)
        for _ in range(12):
            hubs = (0, 1) if rng.random() < 0.5 else ()
            rels = [_draw(rng, s, rng.randint(1, 40), hubs) for s in inner]
            want = evaluate_naive(twd, rels)
            assert evaluate(twd, rels) == want
            first = len(built)
            assert evaluate(twd, rels) == want
            assert len(built) == first
        assert built

    def test_depth_first_tail_matches_naive(self):
        # The last two cables of the order are bound depth-first.  Random
        # cycles with extra stars, outer wires and self-joins must agree
        # with evaluate_naive, and every shape of the tail must turn up.
        seen = dict.fromkeys(
            [
                "last-not-output",
                "second-not-output",
                "outputs-out-of-order",
                "cable-on-two-outer-wires",
                "free",
                "self-join",
                "one-input-holds-both",
                "nonempty",
            ],
            0,
        )
        rng = random.Random(59)
        cyclic = 0
        while cyclic < 150:
            dom = ValueDomain("D", range(rng.randint(1, 3) + 1))
            n = rng.randint(3, 4)
            cables = [f"k{c}" for c in range(n + rng.randint(0, 1))]
            stars = [(cables[j], cables[(j + 1) % n]) for j in range(n)]
            for _ in range(rng.randint(0, 2)):
                stars.append(tuple(rng.choices(cables, k=rng.randint(1, 3))))
            rng.shuffle(stars)
            outer = tuple(rng.choices(cables + ["f"], k=rng.randint(0, 4)))
            twd, inner = _wired(dom, stars, outer)
            rels = []
            for star in inner:
                twins = [r for r in rels if r.star == star]
                if twins and rng.random() < 0.4:
                    rels.append(rng.choice(twins))
                    continue
                space = list(product(dom.values, repeat=len(star.wires)))
                size = round(len(space) * rng.choice([0.3, 0.6, 0.9]))
                rels.append(Relation(star, rng.sample(space, size)))
            if not _cyclic(twd):
                continue
            cyclic += 1
            got = evaluate(twd, rels)
            assert got == evaluate_naive(twd, rels), (stars, outer)

            order = _order(twd, [len(r) for r in rels])
            *_head, second, last = order
            ranks = [order.index(c) for c in outer if c in order]
            seen["last-not-output"] += last not in outer
            seen["second-not-output"] += second not in outer
            seen["outputs-out-of-order"] += ranks != sorted(ranks)
            seen["cable-on-two-outer-wires"] += len(set(outer)) < len(outer)
            seen["free"] += bool(_free(twd))
            seen["self-join"] += len(set(map(id, rels))) < len(rels)
            seen["one-input-holds-both"] += any({second, last} <= set(s) for s in stars)
            seen["nonempty"] += not got.is_empty
        assert all(seen.values()), seen

    def test_last_cable_read_only_by_tries_stepped_at_the_second_last(self):
        # y and x hang off the triangle.  The large relations on y's stars
        # put y after a and b, so x, read only by the star (y, x), comes
        # right after y: no node at x is carried or a root, and every
        # one is stepped at a value of y.
        rng = random.Random(67)
        dom = ValueDomain("D", range(4))
        twd, inner = _wired(dom, TRIANGLE + [("c", "y"), ("y", "x")], ("x", "a"))
        for _ in range(8):
            rels = [_draw(rng, s, k) for s, k in zip(inner, (6, 6, 6, 12, 12))]
            assert _cyclic(twd)
            assert _order(twd, [len(r) for r in rels])[-2:] == ("y", "x")
            assert evaluate(twd, rels) == evaluate_naive(twd, rels)

    def test_self_join_keeps_one_trie_per_level_order(self):
        # One relation feeds all three stars of a triangle.  With the cable
        # order a, b, c, stars (a, b) and (b, c) read it in its own order
        # and star (c, a) reads it second column first.
        rng = random.Random(23)
        dom = ValueDomain("D", range(8))
        twd, inner = _wired(dom, TRIANGLE, ("a", "b", "c"))
        for hubs in ((), (0, 1)):
            e = _draw(rng, inner[0], 50, hubs)
            assert _order(twd, [len(e)] * 3) == ("a", "b", "c")
            want = evaluate_naive(twd, [e, e, e])
            assert evaluate(twd, [e, e, e]) == want
            assert set(_tries(e)) == {((0, 1), ()), ((1, 0), ())}
            assert evaluate(twd, [e, e, e]) == want

    def test_hub_skewed_triangle(self):
        # Half the entries sit on two hub values: many partial tuples meet
        # at the hubs, few close the cycle elsewhere.
        rng = random.Random(5)
        dom = ValueDomain("D", range(12))
        twd, inner = _wired(dom, TRIANGLE, ("a", "b", "c"))
        rels = [_draw(rng, s, 60, hubs=(0, 1)) for s in inner]
        assert _cyclic(twd)
        got = evaluate(twd, rels)
        assert got == evaluate_naive(twd, rels)
        assert {(0, 0, 0), (1, 1, 1)} & got.tuples

    @pytest.mark.parametrize("nullary", [[], [()]], ids=["empty", "unit"])
    def test_nullary_star_beside_a_cycle(self, nullary):
        rng = random.Random(11)
        dom = ValueDomain("D", range(4))
        twd, inner = _wired(dom, TRIANGLE + [()], ("a", "c"))
        rels = [_draw(rng, s, 10) for s in inner[:3]] + [Relation(inner[3], nullary)]
        assert _cyclic(twd)
        got = evaluate(twd, rels)
        assert got == evaluate_naive(twd, rels)
        assert got.is_empty == (not nullary)

    def test_input_on_a_reordered_copy_of_its_star(self):
        n = ValueDomain("N", range(3))
        t = ValueDomain("T", ["x", "y"])
        # a: N, b: T, c: N; star 0 carries (a, b), star 1 (b, c), star 2 (c, a)
        u = TypedStar(["w0", "w1"], {"w0": n, "w1": t})
        v = TypedStar(["w0", "w1"], {"w0": t, "w1": n})
        w = TypedStar.uniform(["w0", "w1"], n)
        outer = TypedStar(["o0", "o1", "o2"], {"o0": n, "o1": t, "o2": n})
        wd = WiringDiagram(
            inner=(u.star, v.star, w.star),
            outer=outer.star,
            cables=("a", "b", "c"),
            inner_map={
                (0, "w0"): "a", (0, "w1"): "b", (1, "w0"): "b", (1, "w1"): "c",
                (2, "w0"): "c", (2, "w1"): "a",
            },
            outer_map={"o0": "a", "o1": "b", "o2": "c"},
        )
        twd = TypedWiringDiagram(wd, {"a": n, "b": t, "c": n})
        flipped = TypedStar(["w1", "w0"], {"w0": n, "w1": t})
        first = Relation(flipped, [("x", 0), ("y", 1), ("y", 2)])
        rels = [first, Relation(v, [("x", 1), ("y", 2)]), Relation(w, [(1, 0), (2, 1)])]
        assert _cyclic(twd)
        got = evaluate(twd, rels)
        assert got == evaluate_naive(twd, rels)
        assert got.aligned_tuples(("o0", "o1", "o2")) == {(0, "x", 1), (1, "y", 2)}

        # A second diagram lists star 0's wires the other way round, which
        # moves b ahead of a in its cable order.  Fed the same relations,
        # in either order, both diagrams give the same answer.
        wd_flipped = WiringDiagram(
            inner=(flipped.star, v.star, w.star),
            outer=wd.outer,
            cables=wd.cables,
            inner_map=wd.inner_map,
            outer_map=wd.outer_map,
        )
        twd_flipped = TypedWiringDiagram(wd_flipped, twd.cable_types)
        assert twd_flipped.inner[0].wires == ("w1", "w0")
        assert _order(twd, [3, 2, 2])[:2] == ("a", "b")
        assert _order(twd_flipped, [3, 2, 2])[:2] == ("b", "a")
        for diagrams in ((twd, twd_flipped), (twd_flipped, twd)):
            fresh = [Relation(r.star, r.tuples) for r in rels]
            for diagram in diagrams + diagrams:
                assert evaluate(diagram, fresh) == got

    def test_cable_on_two_wires_and_on_one(self):
        # One relation on a four-wire star, read with cable a on wires 0
        # and 2, with cable b on wires 1 and 2, and with four cables.  The
        # first two readings have the same levels (wires 0, 1 and 3) and
        # differ only in the wires that must agree.
        rng = random.Random(31)
        dom = ValueDomain("D", range(4))
        ring = [("c", "e"), ("e", "a")]
        diagrams = [
            _wired(dom, [first] + ring, ("a", "b", "e"))
            for first in (("a", "b", "a", "c"), ("a", "b", "b", "c"), ("a", "b", "d", "c"))
        ]
        inner = diagrams[0][1]
        r = Relation(
            inner[0],
            [(v, v, v, 0) for v in range(4)]
            + [(v, 3 - v, v, 1) for v in range(4)]
            + [(3 - v, v, v, 2) for v in range(4)],
        )
        s, t = (_draw(rng, star, 10) for star in inner[1:])
        for twd, _inner in diagrams + diagrams:
            rels = [r, s, t]
            assert _cyclic(twd)
            assert evaluate(twd, rels) == evaluate_naive(twd, rels)
        assert len(_tries(r)) == 3

    def test_no_row_passes_the_equal_pairs(self):
        dom = ValueDomain("D", range(4))
        twd, inner = _wired(dom, [("a", "a", "b"), ("b", "c"), ("c", "a")], ("a",))
        r = Relation(inner[0], [(0, 1, 2), (2, 3, 0)])
        rels = [r, Relation.complete(inner[1]), Relation.complete(inner[2])]
        for _ in range(2):
            assert evaluate(twd, rels).is_empty
            assert evaluate_naive(twd, rels).is_empty
        assert list(_tries(r).values()) == [None]

    def test_kept_tries_stay_out_of_sight(self):
        dom = ValueDomain("D", range(6))
        twd, inner = _wired(dom, TRIANGLE, ("a", "b", "c"))
        rels = [_draw(random.Random(41), s, 20) for s in inner]
        twins = [Relation(r.star, r.tuples) for r in rels]
        before = [(r == twin, twin == r, hash(r), repr(r)) for r, twin in zip(rels, twins)]
        out = evaluate(twd, rels)
        assert all(_tries(r) for r in rels) and not _tries(out)
        after = [(r == twin, twin == r, hash(r), repr(r)) for r, twin in zip(rels, twins)]
        assert after == before and all(eq for eq, *_rest in after)
        r = rels[0]
        for built in (
            Relation(r.star, r.tuples),
            Relation._trusted(star=r.star, tuples=r.tuples),
            union(r, r),
            evaluate(lift_uniform(identity_diagram(r.star.star), dom), [r]),
            copy.copy(r),
            pickle.loads(pickle.dumps(r)),
        ):
            assert built == r and not _tries(built)

    def test_frontier_empties_midway(self):
        dom = ValueDomain("D", range(6))
        twd, (r, s, t) = _wired(dom, TRIANGLE, ("a", "b", "c"))
        assert _cyclic(twd) and _order(twd, [1, 1, 1]) == ("a", "b", "c")
        # a = 0 survives the first cable; no b follows it in s.
        rels = [Relation(r, [(0, 1)]), Relation(s, [(5, 5)]), Relation(t, [(2, 0)])]
        assert evaluate(twd, rels).is_empty
        assert evaluate_naive(twd, rels).is_empty

    def test_cable_order_follows_shared_stars(self):
        dom = ValueDomain("D", range(3))
        # c touches the most stars.  Of the cables on two stars, d has the
        # smallest relation; e, on one star, comes last though it is linked
        # once d is bound.
        twd, _inner = _wired(dom, TRIANGLE + [("c", "d"), ("d", "e")], ("a",))
        assert _order(twd, [9, 9, 9, 2, 9]) == ("c", "d", "a", "b", "e")
        # x ranks above c, but comes only when no linked cable is left.
        twd, _inner = _wired(dom, TRIANGLE + [("x",), ("x",)], ("x",))
        assert _order(twd, [1, 9, 9, 5, 5]) == ("a", "b", "c", "x")

    @pytest.mark.parametrize(
        "stars",
        [
            [("a", "b"), ("b", "c"), ("c", "d")],
            [("a", "b"), ("a", "c"), ("a", "d")],
            [("a", "a", "b")],
            TRIANGLE + [("a", "b", "c")],
            [("a", "b"), (), ("c",), ("x", "y")],
        ],
        ids=["path", "star", "one-star", "triangle-under-a-cover", "disconnected"],
    )
    def test_acyclic_diagrams_keep_the_binary_plan(self, stars):
        rng = random.Random(13)
        dom = ValueDomain("D", range(4))
        outer = tuple(dict.fromkeys(c for s in stars for c in s))[:3]
        twd, inner = _wired(dom, stars, outer)
        rels = [_draw(rng, s, 8) if s.wires else Relation(s, [()]) for s in inner]
        assert not _cyclic(twd)
        assert len(_steps(twd, [len(r) for r in rels])) == len(stars)
        assert evaluate(twd, rels) == evaluate_naive(twd, rels)


    def test_compiled_loop_matches_naive_on_four_to_six_cables(self):
        # Random cyclic diagrams on four to six cables, with extra stars
        # that may repeat a cable, outer wires drawn with repeats and an
        # unwired cable, and relations shared between equal stars.  Every
        # shape the generated loop distinguishes must turn up.
        seen = dict.fromkeys(
            [
                "cable-on-three-stars",
                "outputs-out-of-order",
                "cable-on-two-outer-wires",
                "last-not-output",
                "free",
                "self-join",
                "equal-pairs",
                "nonempty",
            ],
            0,
        )
        rng = random.Random(71)
        cyclic = 0
        while cyclic < 200:
            dom = ValueDomain("D", range(rng.randint(1, 2) + 1))
            cables = [f"k{c}" for c in range(rng.randint(4, 6))]
            ring = rng.randint(3, len(cables) - 1)
            stars = [(cables[j], cables[(j + 1) % ring]) for j in range(ring)]
            for _ in range(rng.randint(1, 3)):
                stars.append(tuple(rng.choices(cables[:-1], k=rng.randint(1, 3))))
            rng.shuffle(stars)
            outer = tuple(rng.choices(cables, k=rng.randint(0, 4)))
            twd, inner = _wired(dom, stars, outer)
            if not 4 <= len(twd.diagram.cables) <= 6:
                continue
            rels = []
            for star in inner:
                twins = [r for r in rels if r.star == star]
                if twins and rng.random() < 0.4:
                    rels.append(rng.choice(twins))
                    continue
                space = list(product(dom.values, repeat=len(star.wires)))
                size = round(len(space) * rng.choice([0.4, 0.7, 0.9]))
                rels.append(Relation(star, rng.sample(space, size)))
            if not _cyclic(twd):
                continue
            cyclic += 1
            got = evaluate(twd, rels)
            assert got == evaluate_naive(twd, rels), (stars, outer)

            order = _order(twd, [len(r) for r in rels])
            ranks = [order.index(c) for c in outer if c in order]
            seen["cable-on-three-stars"] += any(sum(c in s for s in stars) >= 3 for c in order)
            seen["outputs-out-of-order"] += ranks != sorted(ranks)
            seen["cable-on-two-outer-wires"] += len(set(outer)) < len(outer)
            seen["last-not-output"] += order[-1] not in outer
            seen["free"] += bool(_free(twd))
            seen["self-join"] += len(set(map(id, rels))) < len(rels)
            seen["equal-pairs"] += any(len(set(s)) < len(s) for s in stars)
            seen["nonempty"] += not got.is_empty
        assert all(seen.values()), seen

    @pytest.mark.parametrize("bad", [1.0, True, "0", None])
    def test_join_loop_guard_refuses_ranks_that_are_not_ints(self, bad):
        # 1.0 and True hash as 1: a cached loop for the int would answer
        _join_loop.cache_clear()
        triangle = ((0, 1), (1, 2), (0, 2))
        for levels, outputs in (
            (((0, bad), (1, 2), (0, 2)), (0, 1, 2)),
            (triangle, (0, bad)),
        ):
            with pytest.raises(TypeError, match="ints"):
                _join_loop(levels, outputs)

    def test_diagrams_differing_in_cable_names_share_one_loop(self, monkeypatch):
        import wiring.relations as relations_mod

        loops = []
        join_loop = relations_mod._join_loop

        def spy(levels, outputs):
            loops.append(join_loop(levels, outputs))
            return loops[-1]

        monkeypatch.setattr(relations_mod, "_join_loop", spy)
        rng = random.Random(43)
        dom = ValueDomain("D", range(5))
        renamed = [("x", "y"), ("y", "z"), ("z", "x")]
        twd, inner = _wired(dom, TRIANGLE, ("c", "a"))
        twd_renamed, _inner = _wired(dom, renamed, ("z", "x"))
        rels = [_draw(rng, s, k) for s, k in zip(inner, (12, 15, 18))]
        want = evaluate_naive(twd, rels)
        assert evaluate(twd, rels) == want and evaluate(twd_renamed, rels) == want
        assert len(loops) == 2 and loops[0] is loops[1]


class TestRepeatJoin:
    """An acyclic diagram of two or more inputs, each of whose last join
    ran through it, runs the generic join."""

    @pytest.mark.parametrize(
        "stars, outer",
        [
            ([(), ()], ("f",)),
            ([(), ()], ("f", "f")),
            ([(), ()], ()),
            ([("a",), ("a",)], ()),
            ([("a", "a"), ()], ("f",)),
            ([("a",), ("a", "a")], ()),
        ],
        ids=[
            "nullary-inputs-free-output",
            "nullary-inputs-free-cable-on-two-outer-wires",
            "nullary-inputs-no-output",
            "one-cable-not-output",
            "one-cable-on-two-wires",
            "one-cable-on-three-wires",
        ],
    )
    def test_shapes_without_a_loop_over_an_output(self, stars, outer, generic_calls):
        # No cable touches an input, or the only cable is no output: the
        # generated comprehension has no loop over an output cable.
        rng = random.Random(19)
        dom = ValueDomain("D", range(3))
        twd, inner = _wired(dom, stars, outer)
        for _ in range(6):
            rels = [_draw(rng, s, rng.randint(0, 3)) for s in inner]
            want = evaluate_naive(twd, rels)
            assert evaluate(twd, rels) == want
            generic_calls.clear()
            assert evaluate(twd, rels) == want
            assert len(generic_calls) == 1 and generic_calls[0] is not None

    @pytest.mark.parametrize(
        "stars, outer",
        [([], ("f",)), ([()], ("f", "f")), ([("a", "b")], ("b",))],
        ids=["no-input", "nullary-input", "one-input"],
    )
    def test_fewer_than_two_inputs_keep_the_binary_steps(self, stars, outer, generic_calls):
        # A single input passes through the binary steps as it is; the
        # generic join would only build a trie to read it.
        dom = ValueDomain("D", range(3))
        twd, inner = _wired(dom, stars, outer)
        rels = [Relation.complete(s) for s in inner]
        want = evaluate_naive(twd, rels)
        for _ in range(3):
            assert evaluate(twd, rels) == want
        assert generic_calls == []
        assert not any({"_tries", "_last_join"} & set(vars(r)) for r in rels)

    def test_loops_for_those_shapes(self):
        assert _join_loop((), ())(_meet) == {()}
        one = _join_loop(((0,), (0,)), ())
        assert one(_meet, {1, 2}, {2}) == {()}
        assert one(_meet, {1}, {2}) == set()

    def test_first_join_records_the_join(self, generic_calls):
        dom = ValueDomain("D", range(6))
        twd, inner = _wired(dom, [("a", "b"), ("b", "c")], ("a", "c"))
        rng = random.Random(29)
        r, s = (_draw(rng, star, 12) for star in inner)
        assert "_last_join" not in vars(r) and "_last_join" not in vars(s)
        want = evaluate(twd, [r, s])
        assert generic_calls == [] and not _tries(r) and not _tries(s)
        assert vars(r)["_last_join"]() is twd is vars(s)["_last_join"]()
        assert evaluate(twd, [r, s]) == want and len(generic_calls) == 1
        # the generic join binds b first: r's trie reads b, then a
        assert set(_tries(r)) == {((1, 0), ())} and set(_tries(s)) == {((0, 1), ())}
        # one input new, one joined: a first join
        assert evaluate(twd, [r, Relation(s.star, s.tuples)]) == want
        assert len(generic_calls) == 1

    def test_a_join_through_another_diagram_is_a_first_join(self, generic_calls):
        # r and s are joined twice in a path of three stars, then in a path
        # of two, which reads the same trie of r: b, then a.  Its first
        # join runs the binary steps and builds no trie.  Back in the path
        # of three, the inputs' last join ran through the path of two.
        dom = ValueDomain("D", range(6))
        longer, inner = _wired(dom, [("a", "b"), ("b", "c"), ("c", "d")], ("a", "d"))
        rng = random.Random(31)
        r, s, t = (_draw(rng, star, 12) for star in inner)
        assert evaluate(longer, [r, s, t]) == evaluate(longer, [r, s, t])
        assert len(generic_calls) == 1 and ((1, 0), ()) in _tries(r)
        built = [set(_tries(r)), set(_tries(s))]
        twd, _inner = _wired(dom, [("a", "b"), ("b", "c")], ("a", "c"))
        want = evaluate(twd, [r, s])
        assert want == evaluate_naive(twd, [r, s]) and len(generic_calls) == 1
        assert [set(_tries(r)), set(_tries(s))] == built
        assert evaluate(twd, [r, s]) == want and len(generic_calls) == 2
        evaluate(longer, [r, s, t])
        assert len(generic_calls) == 2
        # the record keeps no diagram alive
        del twd, longer
        gc.collect()
        assert all(vars(x)["_last_join"]() is None for x in (r, s, t))

    def test_copies_and_outputs_join_as_first_joins(self, generic_calls):
        dom = ValueDomain("D", range(6))
        twd, inner = _wired(dom, [("a", "b"), ("b", "a")], ("a",))
        r = _draw(random.Random(37), inner[0], 15)
        want = evaluate(twd, [r, r])
        assert want == evaluate_naive(twd, [r, r]) and generic_calls == []
        identity = lift_uniform(identity_diagram(r.star.star), dom)
        out = evaluate(identity, [r])
        assert generic_calls == []
        for built in (
            copy.copy(r),
            copy.deepcopy(r),
            pickle.loads(pickle.dumps(r)),
            Relation._trusted(star=r.star, tuples=r.tuples),
            out,
        ):
            assert built == r and not {"_tries", "_last_join"} & set(vars(built))
            generic_calls.clear()
            assert evaluate(twd, [built, built]) == want and generic_calls == []
            assert evaluate(twd, [built, built]) == want and len(generic_calls) == 1


class TestFanOutBound:
    """A generic join whose tries' fan-outs multiply to more than
    ``ENUMERATION_LIMIT``, and whose cover bound is over it too, runs the
    binary steps instead."""

    def test_skewed_triangle_under_the_cover_bound(self, monkeypatch, generic_calls):
        # A hub: edges 0 -> i and i -> 0 for 3,999 leaves, and 1 -> 2,
        # which closes the one triangle 0, 1, 2.  The fan-outs multiply to
        # about 4000 * 3999 * 3999 = 6.4e10, the binary steps' second step
        # to about 3999 * 3999 = 1.6e7 tuples, both over the limit; the
        # cover bound, 7,999 ** 1.5, about 7.2e5, is under it.
        dom = ValueDomain("D", range(4000))
        twd, inner = _wired(dom, TRIANGLE, ("a", "b", "c"))
        hub = [(0, i) for i in range(1, 4000)] + [(i, 0) for i in range(1, 4000)]
        edges = Relation(inner[0], hub + [(1, 2)])
        for _ in range(2):
            assert evaluate(twd, [edges] * 3).tuples == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        assert len(generic_calls) == 2 and None not in generic_calls
        monkeypatch.setattr("wiring.relations._cover_bound", lambda levels, sizes: math.inf)
        with pytest.raises(EnumerationLimitError, match="bound is 10000000"):
            evaluate(twd, [edges] * 3)
        assert generic_calls[-1] is None

    def test_cover_bound(self):
        # a triangle: each trie weighs one half; a path: the end tries
        # alone touch a cable, the middle one weighs one half
        assert _cover_bound([(0, 1), (1, 2), (0, 2)], [100, 400, 900]) == 10 * 20 * 30
        assert _cover_bound([(0, 1), (1, 2), (2, 3)], [100, 400, 900]) == 100 * 20 * 900
        assert _cover_bound([(0,), (0, 1)], [9, 16]) == 3 * 16
        assert _cover_bound([], []) == 1

    def test_dense_triangle_is_refused_on_first_and_repeat_joins(self, monkeypatch, generic_calls):
        # every one of the 20^3 = 8000 triangles is an answer
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
        dom = ValueDomain("D", range(20))
        twd, inner = _wired(dom, TRIANGLE, ("a", "b", "c"))
        edges = Relation.complete(inner[0])
        for _ in range(2):
            with pytest.raises(EnumerationLimitError) as info:
                evaluate(twd, [edges, edges, edges])
            assert "joining 400 partial tuples with 400 matching tuples" in str(info.value)
            assert "enumerates 8000 pairs, bound is 1000" in str(info.value)
        assert generic_calls == [None, None]

    def test_fan_outs_are_the_largest_node_per_level(self):
        dom = ValueDomain("D", range(10))
        star = TypedStar.uniform(["x", "y", "z"], dom)
        r = Relation(star, [(0, 1, 2), (0, 1, 3), (0, 2, 2), (5, 1, 2), (7, 7, 7)])
        assert r._trie_at((0, 1, 2), ())[1] == (3, 2, 2)
        assert r._trie_at((2, 0), ())[1] == (3, 2)
        assert r._trie_at((1,), ())[1] == (3,)
        assert r._trie_at((0, 2), ((0, 1),))[1] == (1, 1)

    def test_repeat_join_over_the_bound_runs_the_binary_steps(self, monkeypatch, generic_calls):
        # R(a, b) and S(b, c) on thirty values of b.  R has forty a at
        # b = 0, S forty c at b = 1, each of the rest one: the fan-outs
        # multiply to 30 * 40 * 40 = 48,000, the binary steps enumerate
        # 40 + 40 + 28 = 108 pairs for 107 answers.
        dom = ValueDomain("D", range(40))
        twd, inner = _wired(dom, [("a", "b"), ("b", "c")], ("a", "c"))
        r = Relation(inner[0], [(a, 0) for a in range(40)] + [(b, b) for b in range(1, 30)])
        s = Relation(inner[1], [(1, c) for c in range(40)] + [(0, 0)] + [(b, b) for b in range(2, 30)])
        naive = evaluate_naive(twd, [r, s])
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
        want = evaluate(twd, [r, s])
        assert want == naive and len(want) == 107 and generic_calls == []
        assert evaluate(twd, [r, s]) == want and generic_calls == [None]
        monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 48_000)
        assert evaluate(twd, [r, s]) == want and generic_calls[-1] is not None


def _sparse_path(rng, rows_indexed):
    """An acyclic join whose last step finds a match for at most 5% of its
    probing side, and the outer cables ``a`` and ``d``/``c``.

    Without ``rows_indexed``: R0(a, b) holds two tuples on one value ``k``
    of b, and R1(b, c) a hundred tuples off ``k`` and one to five on it.
    With it, the partials outnumber the rows: R0(a, b) and R1(b, e, c) join
    into sixty partials on distinct (e, c) pairs, and R2(e, c, d) has 41
    tuples, one on such a pair.  Either way the partials are indexed and
    the last relation's rows probe.
    """
    if not rows_indexed:
        dom = ValueDomain("D", range(20))
        values = dom.values
        twd, inner = _wired(dom, [("a", "b"), ("b", "c")], ("a", "c"))
        k = rng.choice(values)
        misses = [(b, c) for b in values if b != k for c in values]
        hits = [(k, c) for c in values]
        return twd, [
            Relation(inner[0], [(a, k) for a in rng.sample(values, 2)]),
            Relation(inner[1], rng.sample(misses, 100) + rng.sample(hits, rng.randint(1, 5))),
        ]
    dom = ValueDomain("D", range(8))
    values = dom.values
    twd, inner = _wired(dom, [("a", "b"), ("b", "e", "c"), ("e", "c", "d")], ("a", "d"))
    k = rng.choice(values)
    pairs = list(product(values, repeat=2))
    chosen = rng.sample(pairs, 30)
    rest = [p for p in pairs if p not in chosen]
    far = [p + (d,) for p in rng.sample(rest, 5) for d in values]
    return twd, [
        Relation(inner[0], [(a, k) for a in rng.sample(values, 2)]),
        Relation(inner[1], [(k,) + p for p in chosen]),
        Relation(inner[2], far + [rng.choice(chosen) + (rng.choice(values),)]),
    ]


@pytest.mark.parametrize("rows_indexed", [False, True], ids=["partials-indexed", "rows-indexed"])
def test_binary_steps_with_few_matches_agree_with_naive(rows_indexed, monkeypatch):
    # The probing side is filtered against the index before the joined rows
    # are built; the spy sees what each keyed step probes and keeps.
    import wiring.relations as relations_mod

    probes = []

    def spy(data, selectors):
        side = "partials" if isinstance(data, set) else "rows"
        data, selectors = list(data), list(selectors)
        probes.append((side, len(data), sum(selectors)))
        return compress(data, selectors)

    monkeypatch.setattr(relations_mod, "compress", spy)
    rng = random.Random(83)
    for _ in range(10):
        twd, rels = _sparse_path(rng, rows_indexed)
        assert not _cyclic(twd)
        assert [s.star for s in _steps(twd, [len(r) for r in rels])] == list(range(len(rels)))
        probes.clear()
        got = evaluate(twd, rels)
        assert got == evaluate_naive(twd, rels) and not got.is_empty
        side, probing, matched = probes[-1]
        assert side == "rows"
        assert 0 < matched <= 0.05 * probing
