import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import connectivity_oracle, discrete, indiscrete, partition_misfit, refines
from strategies import diagrams, partitions as partition_strategy, stars
from wiring import partitions
from wiring.errors import InterfaceError, ValidationError
from wiring.laws import GeneratorConfig, check_algebra_naturality, gen_partition
from wiring.partitions import Partition
from wiring.stars import Star, WiringDiagram, identity_diagram


class TestPartition:
    def test_blocks_are_canonicalized(self):
        star = Star(["c", "a", "b"])
        p = Partition(star, [["b", "a"], ["c"]])
        assert p.blocks == (("a", "b"), ("c",))

    def test_must_cover(self):
        with pytest.raises(ValidationError, match="not covered"):
            Partition(Star(["a", "b"]), [["a"]])

    def test_must_be_disjoint(self):
        with pytest.raises(ValidationError, match="two blocks"):
            Partition(Star(["a", "b"]), [["a", "b"], ["b"]])

    def test_unknown_wire_rejected(self):
        with pytest.raises(ValidationError, match="'z'"):
            Partition(Star(["a"]), [["a", "z"]])

    def test_wire_repeated_in_one_block_is_named_so(self):
        with pytest.raises(ValidationError) as err:
            Partition(Star("ab"), [["a", "a", "b"]])
        assert str(err.value) == "wire 'a' appears twice in one block"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_misfit_message_names_the_first_bad_wire(self, data):
        star = data.draw(stars)
        wire = st.sampled_from([*star.wires, "z"])
        blocks = data.draw(st.lists(st.lists(wire, max_size=3), max_size=4))
        expected = partition_misfit(star, blocks)
        if expected is None:
            assert Partition(star, blocks).star == star
        else:
            with pytest.raises(ValidationError) as err:
                Partition(star, blocks)
            assert str(err.value) == expected

    def test_refines(self):
        star = Star(["a", "b", "c"])
        fine = discrete(star)
        coarse = indiscrete(star)
        assert refines(fine, coarse)
        assert not refines(coarse, fine)


class TestEvaluate:
    def test_discrete_inputs_disconnected_diagram(self):
        star = Star(["a", "b"])
        wd = identity_diagram(star)
        got = partitions.evaluate(wd, [discrete(star)])
        assert got == discrete(star)

    def test_identity_returns_input(self):
        star = Star(["a", "b", "c"])
        p = Partition(star, [["a", "b"], ["c"]])
        assert partitions.evaluate(identity_diagram(star), [p]) == p

    def test_two_star_chain_links_outer_wires(self):
        # block {r,s} in star 1 bridges the cables of outer wires a and b
        s1 = Star(["r", "s"])
        s2 = Star(["u"])
        outer = Star(["a", "b", "c"])
        wd = WiringDiagram(
            inner=(s1, s2),
            outer=outer,
            cables=("c1", "c2", "c3"),
            inner_map={(0, "r"): "c1", (0, "s"): "c2", (1, "u"): "c3"},
            outer_map={"a": "c1", "b": "c2", "c": "c3"},
        )
        linked = partitions.evaluate(
            wd, [Partition(s1, [["r", "s"]]), discrete(s2)]
        )
        assert linked == Partition(outer, [["a", "b"], ["c"]])
        assert linked == connectivity_oracle(
            wd, [Partition(s1, [["r", "s"]]), discrete(s2)]
        )
        separate = partitions.evaluate(
            wd, [discrete(s1), discrete(s2)]
        )
        assert separate == discrete(outer)

    def test_single_cable_diagram_collapses_everything(self):
        star = Star(["a", "b"])
        wd = WiringDiagram(
            inner=(star,),
            outer=star,
            cables=("c",),
            inner_map={(0, "a"): "c", (0, "b"): "c"},
            outer_map={"a": "c", "b": "c"},
        )
        got = partitions.evaluate(wd, [discrete(star)])
        assert got == indiscrete(star)

    def test_star_mismatch_rejected(self):
        wd = identity_diagram(Star(["a"]))
        with pytest.raises(InterfaceError):
            partitions.evaluate(wd, [discrete(Star(["b"]))])


class TestOracleAgreement:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reachability(self, data):
        wd = data.draw(diagrams())
        parts = [data.draw(partition_strategy(s)) for s in wd.inner]
        assert partitions.evaluate(wd, parts) == connectivity_oracle(
            wd, parts
        )

    def test_thousand_seeded_instances(self, monkeypatch):
        rng = random.Random(17)
        monkeypatch.setattr("wiring.laws.MAX_WIRES", 6)
        from wiring.laws import gen_diagram

        for _ in range(1000):
            wd = gen_diagram(rng)
            parts = [gen_partition(rng, s) for s in wd.inner]
            assert partitions.evaluate(wd, parts) == connectivity_oracle(
                wd, parts
            )


class TestCoarsening:
    def test_coarser_inputs_give_coarser_output(self):
        rng = random.Random(19)
        cfg = GeneratorConfig(seed=19)
        from wiring.laws import gen_diagram

        for _ in range(200):
            wd = gen_diagram(rng)
            fine = [gen_partition(rng, s) for s in wd.inner]
            coarse = []
            for p in fine:
                merged = list(p.blocks)
                if len(merged) >= 2:
                    merged = [merged[0] + merged[1]] + merged[2:]
                coarse.append(Partition(p.star, merged))
            out_fine = partitions.evaluate(wd, fine)
            out_coarse = partitions.evaluate(wd, coarse)
            assert refines(out_fine, out_coarse)


def test_eq_naturality_suite_passes():
    report = check_algebra_naturality(GeneratorConfig(seed=23, cases=150), "eq")
    assert report.ok, report.format()
