import random

import pytest

from wiring.errors import InterfaceError, TypeMismatchError, ValidationError
from oracles import canonicalize_by_wire_lists
from wiring.laws import (
    GeneratorConfig,
    _typed_stack,
    compose_by_closure,
    gen_diagram,
    gen_typed,
)
from wiring.stars import (
    Star,
    WiringDiagram,
    compose,
    compose_with_classes,
    diagrams_equal,
    identity_diagram,
)
from wiring.typed import (
    TypedStar,
    TypedWiringDiagram,
    ValueDomain,
    canonicalize_typed,
    lift_uniform,
    typed_compose,
    typed_diagrams_equal,
    typed_identity,
)


class TestValueDomain:
    def test_range_domain_keeps_its_values(self):
        dom = ValueDomain("N", range(4))
        assert dom.values == (0, 1, 2, 3)
        assert 2 in dom and 4 not in dom

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValidationError):
            ValueDomain("bad", ("x", "x"))

    def test_empty_domain_is_legal(self):
        assert len(ValueDomain("none", ())) == 0

    def test_equality_is_nominal(self):
        a = ValueDomain("A", (0, 1))
        b = ValueDomain("B", (0, 1))
        assert a != b
        assert a == ValueDomain("A", (0, 1))


class TestTypedStar:
    def test_typing_must_be_total(self):
        dom = ValueDomain("D", (0,))
        with pytest.raises(ValidationError, match="'b'"):
            TypedStar(Star(["a", "b"]), {"a": dom})

    def test_typing_must_not_mention_strangers(self):
        dom = ValueDomain("D", (0,))
        with pytest.raises(ValidationError, match="'z'"):
            TypedStar(Star(["a"]), {"a": dom, "z": dom})


class TestTypecheck:
    def test_nand_star_all_bool_accepted(self, bool_domain, nand_star):
        wd = WiringDiagram(
            inner=(nand_star.star,),
            outer=Star(["in", "out"]),
            cables=("i", "o"),
            inner_map={(0, "A"): "i", (0, "B"): "i", (0, "out"): "o"},
            outer_map={"in": "i", "out": "o"},
        )
        twd = TypedWiringDiagram(wd, {"i": bool_domain, "o": bool_domain})
        assert twd.arity == 1

    def test_wire_domains_are_read_off_cable_types(self, bool_domain):
        digits = ValueDomain("N0_9", range(10))
        wd = WiringDiagram(
            inner=(Star(["x", "y"]),),
            outer=Star(["u", "v"]),
            cables=("b", "d"),
            inner_map={(0, "x"): "b", (0, "y"): "d"},
            outer_map={"u": "d", "v": "b"},
        )
        twd = TypedWiringDiagram(wd, {"b": bool_domain, "d": digits})
        assert twd.inner[0].domain("x") == bool_domain
        assert twd.inner[0].domain("y") == digits
        assert twd.outer.domain("u") == digits
        assert twd.outer.domain("v") == bool_domain

    def test_empty_diagram_accepted(self):
        wd = WiringDiagram((), Star([]), (), {}, {})
        twd = TypedWiringDiagram(wd, {})
        assert twd.arity == 0

    def test_missing_cable_typing_rejected(self):
        wd = identity_diagram(Star(["x"]))
        with pytest.raises(TypeMismatchError, match="no declared domain"):
            TypedWiringDiagram(wd, {})


class TestFunctors:
    def test_forget_of_lift_is_original(self):
        rng = random.Random(11)
        cfg = GeneratorConfig(seed=11)
        dom = ValueDomain("D", (0, 1))
        for _ in range(100):
            wd = gen_diagram(rng)
            assert lift_uniform(wd, dom).diagram is wd

    def test_lift_of_identity_is_typed_identity(self, bool_domain):
        star = Star(["a", "b"])
        lifted = lift_uniform(identity_diagram(star), bool_domain)
        assert typed_diagrams_equal(
            lifted, typed_identity(TypedStar.uniform(star, bool_domain))
        )

    def test_forget_commutes_with_composition(self, bool_domain):
        rng = random.Random(12)
        cfg = GeneratorConfig(seed=12)
        for _ in range(50):
            outer = gen_diagram(rng)
            fillers = [gen_diagram(rng, outer=y) for y in outer.inner]
            lifted = typed_compose(
                lift_uniform(outer, bool_domain),
                [lift_uniform(f, bool_domain) for f in fillers],
            )
            assert diagrams_equal(lifted.diagram, compose(outer, fillers))

    def test_lift_preserves_composition(self, bool_domain):
        rng = random.Random(13)
        cfg = GeneratorConfig(seed=13)
        for _ in range(50):
            outer = gen_diagram(rng)
            fillers = [gen_diagram(rng, outer=y) for y in outer.inner]
            composed_then_lifted = lift_uniform(compose(outer, fillers), bool_domain)
            lifted_then_composed = typed_compose(
                lift_uniform(outer, bool_domain),
                [lift_uniform(f, bool_domain) for f in fillers],
            )
            assert typed_diagrams_equal(composed_then_lifted, lifted_then_composed)


class TestTypedCompose:
    def test_typed_identity_laws(self, bool_domain, nand_star):
        wd = WiringDiagram(
            inner=(nand_star.star,),
            outer=Star(["o"]),
            cables=("c", "o"),
            inner_map={(0, "A"): "c", (0, "B"): "c", (0, "out"): "o"},
            outer_map={"o": "o"},
        )
        twd = TypedWiringDiagram(wd, {"c": bool_domain, "o": bool_domain})
        assert typed_diagrams_equal(
            typed_compose(typed_identity(twd.outer), [twd]), twd
        )
        assert typed_diagrams_equal(
            typed_compose(twd, [typed_identity(s) for s in twd.inner]), twd
        )

    def test_merged_cables_share_their_domain(self):
        dom = ValueDomain("D", range(4))
        mid = TypedStar.uniform(["m"], dom)
        inner = TypedWiringDiagram(
            WiringDiagram(
                (Star(["a"]),), mid.star, ("c",), {(0, "a"): "c"}, {"m": "c"}
            ),
            {"c": dom},
        )
        outer = TypedWiringDiagram(
            WiringDiagram(
                (mid.star,), Star(["z"]), ("d",), {(0, "m"): "d"}, {"z": "d"}
            ),
            {"d": dom},
        )
        composite = typed_compose(outer, [inner])
        assert all(d == dom for d in composite.cable_types.values())

    def test_interface_typing_mismatch_rejected(self, bool_domain):
        digits = ValueDomain("N", range(2))
        mid_bool = TypedStar.uniform(["m"], bool_domain)
        mid_digit = TypedStar.uniform(["m"], digits)
        inner = typed_identity(mid_digit)
        outer = TypedWiringDiagram(
            WiringDiagram(
                (mid_bool.star,), Star([]), ("d",), {(0, "m"): "d"}, {}
            ),
            {"d": bool_domain},
        )
        with pytest.raises(InterfaceError, match="interface star 0"):
            typed_compose(outer, [inner])


def _fields(wd):
    return wd.inner, wd.outer, wd.cables, wd.inner_map, wd.outer_map


def _with_markers(wd, on_outer):
    """``wd`` with one more wire ``m<k>`` soldered to its k-th cable, on the
    outer star or on one more inner star.  Neither is an interface wire,
    so the cables are identified in a composite as before, and each marker
    shows where its cable went."""
    names = [f"m{k}" for k in range(len(wd.cables))]
    markers = dict(zip(names, wd.cables))
    if on_outer:
        outer = Star(wd.outer.wires + tuple(names))
        return WiringDiagram(wd.inner, outer, wd.cables, wd.inner_map, {**wd.outer_map, **markers})
    inner_map = {**wd.inner_map, **{(wd.arity, m): c for m, c in markers.items()}}
    return WiringDiagram(wd.inner + (Star(names),), wd.outer, wd.cables, inner_map, wd.outer_map)


class TestTypedComposeOracle:
    def test_cable_types_are_read_off_the_closure_numbering(self):
        for seed in range(10):
            cfg = GeneratorConfig(seed=seed)
            rng = cfg.rng()
            for _ in range(50):
                top, fillers = _typed_stack(rng)
                composite = typed_compose(top, fillers)
                plain = [f.diagram for f in fillers]
                closure = compose_by_closure(top.diagram, plain)
                assert _fields(composite.diagram) == _fields(closure)

                # the closure of the marked diagrams numbers its cables
                # alike, and its markers give each source cable's number
                marked = compose_by_closure(
                    _with_markers(top.diagram, True),
                    [_with_markers(f, False) for f in plain],
                )
                assert marked.cables == closure.cables
                numbering, offset = [], 0
                for f in plain:
                    offset += f.arity + 1
                    numbering.append(
                        [marked.inner_map[offset - 1, f"m{k}"] for k in range(len(f.cables))]
                    )
                numbering.append(
                    [marked.outer_map[f"m{k}"] for k in range(len(top.diagram.cables))]
                )
                expected = {}
                for twd, numbers in zip((*fillers, top), numbering):
                    for number, c in zip(numbers, twd.diagram.cables):
                        expected[number] = twd.cable_types[c]
                assert composite.cable_types == expected
                _, classes = compose_with_classes(top.diagram, plain)
                assert [list(of.values()) for of in classes] == numbering


class TestTypedCanonicalize:
    def test_equals_the_wire_list_definition_on_the_nose(self):
        # floating cables, ordered by domain, included
        for seed in range(10):
            cfg = GeneratorConfig(seed=seed)
            rng = cfg.rng()
            for _ in range(100):
                twd = gen_typed(rng)
                types = twd.cable_types
                fast = canonicalize_typed(twd)
                slow, renamed = canonicalize_by_wire_lists(
                    twd.diagram, lambda c: (types[c].name, str(types[c].values))
                )
                assert _fields(fast.diagram) == _fields(slow)
                assert fast.cable_types == {renamed[c]: d for c, d in types.items()}


class TestTypedCanonicalEquality:
    def test_floating_cables_compare_by_domain(self, bool_domain):
        digits = ValueDomain("N", range(2))
        base = identity_diagram(Star(["a"]))

        def with_floats(first, second):
            wd = WiringDiagram(
                base.inner,
                base.outer,
                base.cables + ("f1", "f2"),
                base.inner_map,
                base.outer_map,
            )
            return TypedWiringDiagram(wd, {"a": bool_domain, "f1": first, "f2": second})

        assert typed_diagrams_equal(
            with_floats(bool_domain, digits), with_floats(digits, bool_domain)
        )
        assert not typed_diagrams_equal(
            with_floats(digits, digits), with_floats(digits, bool_domain)
        )
