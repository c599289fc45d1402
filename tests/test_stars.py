from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiring.errors import InterfaceError, ValidationError
from wiring.laws import (
    GeneratorConfig,
    check_operad_laws,
    compose_by_closure,
    gen_diagram,
    gen_stack,
)
from wiring.stars import (
    Star,
    WiringDiagram,
    canonicalize,
    canonicalize_with_renaming,
    compose,
    compose_with_classes,
    diagrams_equal,
    identity_diagram,
    quotient,
    reindex_inner,
)

from oracles import canonicalize_by_wire_lists, diagram_misfit, star_misfit
from strategies import diagrams, stars


def chain_diagram(a, cable, b):
    """One inner star {a} -> outer {b} through a single cable."""
    return WiringDiagram(
        inner=(Star([a]),),
        outer=Star([b]),
        cables=(cable,),
        inner_map={(0, a): cable},
        outer_map={b: cable},
    )


class TestStar:
    def test_holds_wires_in_order(self):
        star = Star(["a", "b", "c", "d", "e"])
        assert star.wires == ("a", "b", "c", "d", "e")
        assert len(star) == 5

    def test_empty_star_is_legal(self):
        assert len(Star([])) == 0

    def test_duplicate_wire_rejected(self):
        with pytest.raises(ValidationError, match="'x'"):
            Star(["x", "x"])

    def test_equality_ignores_order(self):
        assert Star(["a", "b"]) == Star(["b", "a"])
        assert Star(["a"]) != Star(["b"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "", 0, ("a",), ["a"]]), max_size=5))
    def test_misfit_message_names_the_first_bad_wire(self, wires):
        expected = star_misfit(wires)
        if expected is None:
            assert Star(wires).wires == tuple(wires)
        else:
            with pytest.raises(ValidationError) as err:
                Star(wires)
            assert str(err.value) == expected


class TestMakeDiagram:
    def test_figure_style_diagram(self):
        # three inner stars, six cables, the classic picture
        wd = WiringDiagram(
            inner=(Star("rst"), Star("uv"), Star("wxyz")),
            outer=Star("abcde"),
            cables=(1, 2, 3, 4, 5, 6),
            inner_map={
                (0, "r"): 2,
                (0, "s"): 1,
                (0, "t"): 3,
                (1, "u"): 3,
                (1, "v"): 4,
                (2, "w"): 1,
                (2, "x"): 4,
                (2, "y"): 5,
                (2, "z"): 6,
            },
            outer_map={"a": 1, "b": 2, "c": 5, "d": 6, "e": 6},
        )
        assert wd.arity == 3
        assert len(wd.cables) == 6
        assert wd.floating_cables() == ()

    def test_complete_zero_ary_diagram(self):
        y = Star(["y1", "y2"])
        wd = WiringDiagram((), y, tuple(y.wires), {}, {w: w for w in y.wires})
        assert wd.arity == 0

    def test_dangling_cable_rejected(self):
        with pytest.raises(ValidationError, match="unknown cable"):
            WiringDiagram(
                inner=(Star(["a"]),),
                outer=Star([]),
                cables=(1,),
                inner_map={(0, "a"): 7},
                outer_map={},
            )

    def test_unsoldered_wire_rejected(self):
        with pytest.raises(ValidationError, match="not soldered"):
            WiringDiagram(
                inner=(Star(["a"]),),
                outer=Star([]),
                cables=(1,),
                inner_map={},
                outer_map={},
            )


    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_misfit_message_names_the_first_bad_entry(self, data):
        # well-formed parts, then a few solder entries dropped, retargeted to
        # a cable that is not there or added for a wire that is not there
        inner = tuple(data.draw(st.lists(stars, max_size=3)))
        outer = data.draw(stars)
        pool = st.sampled_from([0, 1, 2, "x"])
        cables = data.draw(st.lists(pool, min_size=1, max_size=4))
        wires = [(i, w) for i, s in enumerate(inner) for w in s.wires]
        inner_map = {k: data.draw(pool) for k in wires if data.draw(st.integers(0, 5))}
        outer_map = {w: data.draw(pool) for w in outer.wires if data.draw(st.integers(0, 5))}
        if data.draw(st.booleans()):
            inner_map[data.draw(st.sampled_from([(0, "z"), (3, "a"), "a"]))] = 0
        if data.draw(st.booleans()):
            outer_map["z"] = 0
        expected = diagram_misfit(inner, outer, cables, inner_map, outer_map)
        if expected is None:
            wd = WiringDiagram(inner, outer, cables, inner_map, outer_map)
            assert (wd.inner_map, wd.outer_map) == (inner_map, outer_map)
        else:
            with pytest.raises(ValidationError) as err:
                WiringDiagram(inner, outer, cables, inner_map, outer_map)
            assert str(err.value) == expected


class TestIdentity:
    def test_identity_shape(self):
        wd = identity_diagram(Star(["a", "b"]))
        assert set(wd.cables) == {"a", "b"}
        assert wd.inner_map == {(0, "a"): "a", (0, "b"): "b"}

    def test_identity_on_empty_star(self):
        wd = identity_diagram(Star([]))
        assert wd.cables == ()

    def test_identity_laws(self):
        phi = chain_diagram("a", "p", "b")
        assert diagrams_equal(compose(identity_diagram(phi.outer), [phi]), phi)
        assert diagrams_equal(
            compose(phi, [identity_diagram(s) for s in phi.inner]), phi
        )


class TestCompose:
    def test_interface_mismatch_names_the_star(self):
        outer = chain_diagram("a", "p", "b")
        with pytest.raises(InterfaceError, match="inner diagram 0"):
            compose(outer, [chain_diagram("z", "q", "w")])

    def test_two_link_chain_merges_cables(self):
        # a -> p -> b composed into b -> q -> c: a and c end up on one cable
        inner = chain_diagram("a", "p", "b")
        outer = chain_diagram("b", "q", "c")
        composite = compose(outer, [inner])
        expected = chain_diagram("a", "pq", "c")
        assert diagrams_equal(composite, expected)

    def test_intermediary_only_cable_floats(self):
        # the intermediary wire m is consumed; its cable survives, floating
        inner = WiringDiagram(
            inner=(),
            outer=Star(["m"]),
            cables=("c",),
            inner_map={},
            outer_map={"m": "c"},
        )
        outer = WiringDiagram(
            inner=(Star(["m"]),),
            outer=Star([]),
            cables=("d",),
            inner_map={(0, "m"): "d"},
            outer_map={},
        )
        composite = compose(outer, [inner])
        assert composite.arity == 0
        assert len(composite.floating_cables()) == 1

    def test_matches_brute_force_quotient(self):
        inner1 = WiringDiagram(
            inner=(Star("ab"),),
            outer=Star("xy"),
            cables=(0, 1, 2),
            inner_map={(0, "a"): 0, (0, "b"): 1},
            outer_map={"x": 0, "y": 1},
        )
        inner2 = identity_diagram(Star("pq"))
        outer = WiringDiagram(
            inner=(Star("xy"), Star("pq")),
            outer=Star("o"),
            cables=("k", "l", "m"),
            inner_map={(0, "x"): "k", (0, "y"): "l", (1, "p"): "l", (1, "q"): "m"},
            outer_map={"o": "m"},
        )
        fast = compose(outer, [inner1, inner2])
        slow = compose_by_closure(outer, [inner1, inner2])
        assert diagrams_equal(fast, slow)


def _fields(wd):
    return wd.inner, wd.outer, wd.cables, wd.inner_map, wd.outer_map


def _renamed(wd, name):
    """``wd`` with each cable ``c`` renamed ``name(c)``."""
    return WiringDiagram(
        wd.inner,
        wd.outer,
        tuple(map(name, wd.cables)),
        {k: name(c) for k, c in wd.inner_map.items()},
        {w: name(c) for w, c in wd.outer_map.items()},
    )


class TestComposeOracle:
    def test_seeded_stacks_compose_as_the_closure_on_the_nose(self):
        checked = 0
        for seed in range(20):
            cfg = GeneratorConfig(seed=seed)
            rng = cfg.rng()
            for _ in range(100):
                stack = gen_stack(rng, 2)
                fillers = [f.diagram for f in stack.fillers]
                fast = compose(stack.diagram, fillers)
                slow = compose_by_closure(stack.diagram, fillers)
                assert _fields(fast) == _fields(slow)
                checked += 1
        assert checked == 2000

    def test_cables_that_look_like_tags_compose_alike(self):
        # cables are arbitrary hashables: None, and tuples shaped like the
        # tagged keys of a quotient over every source cable, are cables too
        cfg = GeneratorConfig(seed=3)
        rng = cfg.rng()
        for _ in range(200):
            stack = gen_stack(rng, 2)
            fillers = [f.diagram for f in stack.fillers]
            outer = _renamed(stack.diagram, lambda c: None if c == 0 else ("o", c))
            inners = [
                _renamed(f, lambda c, i=i: ("i", i, c) if c else ("o", c))
                for i, f in enumerate(fillers)
            ]
            plain, plain_classes = compose_with_classes(stack.diagram, fillers)
            tagged, tagged_classes = compose_with_classes(outer, inners)
            assert _fields(tagged) == _fields(plain)
            assert [list(d.values()) for d in tagged_classes] == [
                list(d.values()) for d in plain_classes
            ]


class TestCanonicalize:
    def test_equals_the_wire_list_definition_on_the_nose(self):
        # floating cables included; cable names that sort unlike the
        # canonical order, so nothing is left in place by accident
        for seed in range(10):
            cfg = GeneratorConfig(seed=seed)
            rng = cfg.rng()
            for _ in range(100):
                wd = _renamed(gen_diagram(rng), lambda c: f"c{9 - c}")
                fast, fast_renamed = canonicalize_with_renaming(wd)
                slow, slow_renamed = canonicalize_by_wire_lists(wd)
                assert _fields(fast) == _fields(slow)
                assert fast_renamed == slow_renamed
                assert _fields(canonicalize(wd)) == _fields(slow)

    @settings(max_examples=60, deadline=None)
    @given(diagrams())
    def test_idempotent(self, wd):
        once = canonicalize(wd)
        assert diagrams_equal(once, canonicalize(once))
        assert once.inner_map == canonicalize(once).inner_map

    @settings(max_examples=60, deadline=None)
    @given(diagrams())
    def test_invariant_under_cable_renaming(self, wd):
        renamed = WiringDiagram(
            wd.inner,
            wd.outer,
            tuple(f"cable_{c}" for c in wd.cables),
            {k: f"cable_{c}" for k, c in wd.inner_map.items()},
            {w: f"cable_{c}" for w, c in wd.outer_map.items()},
        )
        assert diagrams_equal(wd, renamed)

    def test_floating_cable_count_distinguishes(self):
        base = identity_diagram(Star(["a"]))
        extra = WiringDiagram(
            base.inner,
            base.outer,
            base.cables + ("float",),
            base.inner_map,
            base.outer_map,
        )
        assert not diagrams_equal(base, extra)
        two = WiringDiagram(
            base.inner,
            base.outer,
            base.cables + ("f1", "f2"),
            base.inner_map,
            base.outer_map,
        )
        assert not diagrams_equal(extra, two)

    def test_different_solder_pattern_differs(self):
        a = chain_diagram("a", "p", "b")
        b = WiringDiagram(
            inner=(Star(["a"]),),
            outer=Star(["b"]),
            cables=("p", "q"),
            inner_map={(0, "a"): "p"},
            outer_map={"b": "q"},
        )
        assert not diagrams_equal(a, b)


@st.composite
def nodes_and_pairs(draw):
    nodes = draw(st.lists(st.integers(0, 40), unique=True, max_size=20))
    if not nodes:
        return nodes, []
    node = st.sampled_from(nodes)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=25))


def components_by_search(nodes, pairs):
    """Each node's component, named by its first node: breadth-first search
    over the pairs read as undirected edges."""
    neighbours = {x: [] for x in nodes}
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    component = {}
    for start in nodes:
        if start in component:
            continue
        component[start] = start
        queue = deque([start])
        while queue:
            for y in neighbours[queue.popleft()]:
                if y not in component:
                    component[y] = start
                    queue.append(y)
    return component


class TestQuotient:
    def test_small_example(self):
        assert quotient("abcde", [("c", "a"), ("e", "d")]) == {
            "a": 0, "b": 1, "c": 0, "d": 2, "e": 2,
        }

    @settings(max_examples=200, deadline=None)
    @given(nodes_and_pairs())
    def test_same_number_exactly_when_connected(self, case):
        nodes, pairs = case
        class_of = quotient(nodes, pairs)
        component = components_by_search(nodes, pairs)
        assert set(class_of) == set(nodes)
        for a in nodes:
            for b in nodes:
                assert (class_of[a] == class_of[b]) == (component[a] == component[b])

    @settings(max_examples=200, deadline=None)
    @given(nodes_and_pairs())
    def test_numbers_follow_first_nodes(self, case):
        nodes, pairs = case
        class_of = quotient(nodes, pairs)
        first_seen = list(dict.fromkeys(class_of[x] for x in nodes))
        assert first_seen == list(range(len(first_seen)))
        assert sorted(set(class_of.values())) == first_seen


class TestReindex:
    def test_identity_permutation(self):
        wd = WiringDiagram(
            inner=(Star("a"), Star("b")),
            outer=Star([]),
            cables=(0,),
            inner_map={(0, "a"): 0, (1, "b"): 0},
            outer_map={},
        )
        assert diagrams_equal(reindex_inner(wd, (0, 1)), wd)

    def test_round_trip_through_inverse(self):
        wd = WiringDiagram(
            inner=(Star("a"), Star("b"), Star("c")),
            outer=Star([]),
            cables=(0, 1),
            inner_map={(0, "a"): 0, (1, "b"): 1, (2, "c"): 0},
            outer_map={},
        )
        perm = (2, 0, 1)
        inverse = tuple(perm.index(k) for k in range(3))
        back = reindex_inner(reindex_inner(wd, perm), inverse)
        assert back.inner_map == wd.inner_map

    def test_swapping_equal_stars_of_symmetric_diagram(self):
        wd = WiringDiagram(
            inner=(Star("a"), Star("a")),
            outer=Star(["o"]),
            cables=("c",),
            inner_map={(0, "a"): "c", (1, "a"): "c"},
            outer_map={"o": "c"},
        )
        assert diagrams_equal(reindex_inner(wd, (1, 0)), wd)

    def test_non_permutation_rejected(self):
        wd = identity_diagram(Star(["a"]))
        with pytest.raises(ValidationError):
            reindex_inner(wd, (1,))


def test_operad_law_suites_pass():
    reports = check_operad_laws(GeneratorConfig(seed=3, cases=150))
    assert all(r.ok for r in reports), [r.format() for r in reports]
