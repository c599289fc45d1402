import random

import pytest

from wiring.closed import (
    apply_hom,
    externalize,
    internal_hom,
    internalize,
)
from wiring.errors import InterfaceError, ValidationError
from wiring.laws import gen_domains, gen_relation, gen_star, gen_typed_filler
from wiring.relations import Relation, union
from wiring.stars import Star, identity_diagram
from wiring.typed import (
    TypedStar,
    ValueDomain,
    typed_compose,
    typed_diagrams_equal,
    typed_identity,
)


def random_hom(rng, domains, max_args=2):
    args = [
        TypedStar.uniform(gen_star(rng), rng.choice(domains))
        for _ in range(rng.randint(0, max_args))
    ]
    ret = TypedStar.uniform(gen_star(rng), rng.choice(domains))
    return internal_hom(args, ret)


class TestInternalHom:
    def test_wire_count_and_tags(self, bool_domain):
        y = TypedStar.uniform(["y1", "y2", "y3"], bool_domain)
        z = TypedStar.uniform(["z1", "z2", "z3", "z4", "z5"], bool_domain)
        hom = internal_hom([y], z)
        assert len(hom.star.wires) == 8
        assert hom.star.wires[:3] == ("arg1.y1", "arg1.y2", "arg1.y3")
        assert hom.star.wires[3:] == tuple(f"ret.z{i}" for i in range(1, 6))

    def test_no_arguments_is_isomorphic_to_ret(self, bool_domain):
        z = TypedStar.uniform(["a", "b"], bool_domain)
        hom = internal_hom([], z)
        assert [w.removeprefix("ret.") for w in hom.star.wires] == list(z.wires)

    def test_empty_ret_one_arg_is_isomorphic_to_arg(self, bool_domain):
        y = TypedStar.uniform(["a", "b"], bool_domain)
        hom = internal_hom([y], TypedStar(Star([]), {}))
        assert [w.removeprefix("arg1.") for w in hom.star.wires] == list(y.wires)

    def test_separator_in_wire_name_rejected(self, bool_domain):
        bad = TypedStar.uniform(Star(("a.b",)), bool_domain)
        with pytest.raises(ValidationError, match="separator"):
            internal_hom([bad], bad)

    def test_hom_equality_is_by_decomposition(self, bool_domain):
        y = TypedStar.uniform(["a"], bool_domain)
        z = TypedStar.uniform(["b"], bool_domain)
        assert internal_hom([y], z) == internal_hom([y], z)
        assert internal_hom([y], z) != internal_hom([z], y)


class TestEvaluationDiagram:
    def test_shape_for_one_argument(self, bool_domain):
        y = TypedStar.uniform(["y1", "y2", "y3"], bool_domain)
        z = TypedStar.uniform(["z1", "z2", "z3", "z4", "z5"], bool_domain)
        ev = internal_hom([y], z).evaluation
        assert ev.arity == 2
        assert len(ev.diagram.cables) == 8
        assert ev.outer == z
        # hom copy of an argument wire shares its cable with the real wire
        assert ev.diagram.inner_map[(0, "arg1.y1")] == ev.diagram.inner_map[(1, "y1")]
        assert ev.diagram.inner_map[(0, "ret.z1")] == ev.diagram.outer_map["z1"]

    def test_no_arguments_behaves_as_identity(self, bool_domain):
        z = TypedStar.uniform(["a", "b"], bool_domain)
        ev = internal_hom([], z).evaluation
        assert ev.arity == 1
        # renaming the tagged wires recovers the identity diagram
        wd = ev.diagram
        relabeled = identity_diagram(z.star)
        assert len(wd.cables) == len(relabeled.cables)
        for w in z.wires:
            assert wd.inner_map[(0, f"ret.{w}")] == wd.outer_map[w]

    def test_typechecks_for_mixed_typings(self):
        d1 = ValueDomain("D1", (0, 1))
        d2 = ValueDomain("D2", ("p", "q", "r"))
        y = TypedStar(Star(["u", "v"]), {"u": d1, "v": d2})
        z = TypedStar(Star(["w"]), {"w": d2})
        ev = internal_hom([y], z).evaluation
        assert ev.cable_types["arg1.u"] == d1
        assert ev.cable_types["ret.w"] == d2


class TestExternalization:
    def test_round_trips_both_ways(self, monkeypatch):
        rng = random.Random(71)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 3)
        for _ in range(500):
            domains = gen_domains(rng)
            hom = random_hom(rng, domains)
            phi = gen_typed_filler(rng, hom.star, domains)
            psi = externalize(phi, hom)
            assert typed_diagrams_equal(internalize(psi, len(hom.args)), phi)

    def test_equals_evaluation_composite(self, monkeypatch):
        rng = random.Random(72)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 3)
        for _ in range(200):
            domains = gen_domains(rng)
            hom = random_hom(rng, domains)
            phi = gen_typed_filler(rng, hom.star, domains)
            ev = internal_hom(hom.args, hom.ret).evaluation
            composite = typed_compose(
                ev, [phi] + [typed_identity(a) for a in hom.args]
            )
            assert typed_diagrams_equal(externalize(phi, hom), composite)

    def test_zero_ary_morphism_externalizes(self, bool_domain, monkeypatch):
        y = TypedStar.uniform(["u"], bool_domain)
        z = TypedStar.uniform(["w"], bool_domain)
        hom = internal_hom([y], z)
        rng = random.Random(73)
        monkeypatch.setattr("wiring.laws.MAX_STARS", 0)
        phi = gen_typed_filler(rng, hom.star, [bool_domain])
        assert phi.arity == 0
        psi = externalize(phi, hom)
        assert psi.arity == 1
        assert psi.outer == z

    def test_wrong_codomain_rejected(self, bool_domain):
        y = TypedStar.uniform(["u"], bool_domain)
        z = TypedStar.uniform(["w"], bool_domain)
        hom = internal_hom([y], z)
        phi = typed_identity(y)
        with pytest.raises(InterfaceError):
            externalize(phi, hom)

    def test_bad_split_rejected(self, bool_domain):
        psi = typed_identity(TypedStar.uniform(["u"], bool_domain))
        with pytest.raises(ValidationError):
            internalize(psi, 5)


class TestApplyHom:
    def test_not_gate_as_hom_relation(self, bool_domain):
        wire = TypedStar.uniform(["w"], bool_domain)
        hom = internal_hom([wire], wire)
        graph_of_not = Relation(
            hom.star, [("True", "False"), ("False", "True")]
        )
        out = apply_hom(hom, graph_of_not, [Relation(wire, [("True",)])])
        assert out == Relation(wire, [("False",)])

    def test_empty_argument_absorbs(self, bool_domain):
        wire = TypedStar.uniform(["w"], bool_domain)
        hom = internal_hom([wire], wire)
        S = Relation.complete(hom.star)
        assert apply_hom(hom, S, [Relation.empty(wire)]).is_empty

    def test_agrees_with_direct_formula(self, monkeypatch):
        rng = random.Random(81)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 3)
        for _ in range(500):
            domains = gen_domains(rng)
            hom = random_hom(rng, domains)
            S = gen_relation(rng, hom.star)
            args = [gen_relation(rng, a) for a in hom.args]
            got = apply_hom(hom, S, args)
            widths = [len(a.wires) for a in hom.args]
            direct = set()
            for t in S.tuples:
                pos, keep = 0, True
                for width, rel in zip(widths, args):
                    if t[pos : pos + width] not in rel.tuples:
                        keep = False
                        break
                    pos += width
                if keep:
                    direct.add(t[pos:])
            assert got == Relation(hom.ret, direct)

    def test_monotone_in_setup_and_arguments(self, monkeypatch):
        rng = random.Random(91)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 2)
        for _ in range(100):
            domains = gen_domains(rng)
            hom = random_hom(rng, domains, max_args=1)
            S = gen_relation(rng, hom.star)
            S_more = union(S, gen_relation(rng, hom.star))
            args = [gen_relation(rng, a) for a in hom.args]
            args_more = [union(a, gen_relation(rng, a.star)) for a in args]
            assert apply_hom(hom, S, args) <= apply_hom(hom, S_more, args_more)

    def test_star_mismatch_rejected(self, bool_domain):
        wire = TypedStar.uniform(["w"], bool_domain)
        hom = internal_hom([wire], wire)
        with pytest.raises(InterfaceError):
            apply_hom(hom, Relation.empty(wire), [Relation.empty(wire)])
