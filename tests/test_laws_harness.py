import hashlib
import random

import pytest

from oracles import discrete, is_connected
import wiring.partitions as partitions_mod
import wiring.relations as relations_mod
import wiring.stars as stars_mod
from wiring.laws import (
    MAX_CABLES,
    MAX_STARS,
    GeneratorConfig,
    check_algebra_naturality,
    check_operad_laws,
    check_prop_witnesses,
    check_pushout_oracle,
    gen_diagram,
    gen_partition,
    gen_relation,
    gen_stack,
    gen_typed,
    run_all,
    _typed_stack,
)
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram, compose, identity_diagram
from wiring.typed import ValueDomain


class TestGenerators:
    def test_same_seed_same_sequence(self):
        cfg = GeneratorConfig(seed=77)
        a, b = cfg.rng(), cfg.rng()
        for _ in range(50):
            x, y = gen_diagram(a), gen_diagram(b)
            assert x.inner_map == y.inner_map and x.outer_map == y.outer_map

    def test_generated_diagrams_validate(self):
        # construction runs the full validator, so surviving it is the test
        cfg = GeneratorConfig(seed=78)
        rng = cfg.rng()
        for _ in range(200):
            wd = gen_diagram(rng)
            assert wd.arity <= MAX_STARS
            assert len(wd.cables) <= MAX_CABLES

    def test_generated_relations_are_well_typed(self):
        cfg = GeneratorConfig(seed=79)
        rng = cfg.rng()
        for _ in range(100):
            twd = gen_typed(rng)
            for tstar in twd.inner:
                gen_relation(rng, tstar)  # constructor validates

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(cases=-1)


def _fields(wd):
    """Every field of ``wd``, as nested tuples."""
    return (
        tuple(s.wires for s in wd.inner),
        wd.outer.wires,
        wd.cables,
        tuple(sorted(wd.inner_map.items())),
        tuple(sorted(wd.outer_map.items())),
    )


def _layout(stack):
    """Every field of every diagram in ``stack``, as nested tuples."""
    return _fields(stack.diagram), tuple(_layout(f) for f in stack.fillers)


def _typed_fields(twd):
    """Every field of ``twd``, its cable domains included."""
    types = sorted((c, d.name, d.values) for c, d in twd.cable_types.items())
    return _fields(twd.diagram), tuple(types)


def _digest(cases) -> str:
    return hashlib.sha256(repr(cases).encode()).hexdigest()


class TestGeneratorPin:
    """The seeded cases are the work the law suites do; a refactor of the
    generators must not change them."""

    def test_seed_zero_stacks(self):
        cfg = GeneratorConfig(seed=0)
        rng = cfg.rng()
        stacks = [
            _layout(gen_stack(rng, depth)) for _ in range(30) for depth in (3, 2)
        ]
        digest = hashlib.sha256(repr(stacks).encode()).hexdigest()
        assert digest == "8952fd33ece41bccf3c7db0a8ab3360c73d33e52bf4309b3f00eac75da81a16f"

    def test_seed_zero_rel_naturality_cases(self):
        # the draws of check_algebra_naturality(cfg, "rel"), in its order
        cfg = GeneratorConfig(seed=0)
        rng = cfg.rng()
        cases = []
        for _ in range(cfg.cases):
            top, fillers = _typed_stack(rng)
            rels = [
                [sorted(gen_relation(rng, tstar).tuples) for tstar in f.inner]
                for f in fillers
            ]
            cases.append((_typed_fields(top), [_typed_fields(f) for f in fillers], rels))
        assert _digest(cases) == (
            "1386bfb034d3c63548e94ed0ebc85d6eaa8752a95f97e247c11827a671dac499"
        )

    def test_seed_zero_eq_naturality_cases(self):
        # the draws of check_algebra_naturality(cfg, "eq"), in its order
        cfg = GeneratorConfig(seed=0)
        rng = cfg.rng()
        cases = []
        for _ in range(cfg.cases):
            stack = gen_stack(rng, 2)
            parts = [
                [gen_partition(rng, s).blocks for s in f.diagram.inner]
                for f in stack.fillers
            ]
            cases.append((_layout(stack), parts))
        assert _digest(cases) == (
            "d97b37f534087d39d8d1f0e8409883436813cc3f96ff2d96111d48a72ceefed7"
        )

    def test_seed_zero_report(self):
        reports = run_all(GeneratorConfig(seed=0, cases=100))
        assert "\n".join(r.format() for r in reports) == (
            "operad-identity: 100 cases, 0 failures\n"
            "operad-associativity: 100 cases, 0 failures\n"
            "operad-equivariance: 100 cases, 0 failures\n"
            "pushout-oracle: 100 cases, 0 failures\n"
            "rel-naturality: 100 cases, 0 failures\n"
            "eq-naturality: 100 cases, 0 failures\n"
            "prop-witnesses: 10 cases, 0 failures\n"
            "prop-witnesses: 10 cases, 0 failures"
        )


class TestSuiteBehavior:
    def test_zero_cases_empty_report(self):
        for report in check_operad_laws(GeneratorConfig(seed=1, cases=0)):
            assert report.cases == 0 and report.ok

    def test_default_configuration_passes(self):
        for report in run_all(GeneratorConfig(seed=5, cases=60)):
            assert report.ok, report.format()

    def test_deterministic_reports(self):
        cfg = GeneratorConfig(seed=13, cases=40)
        assert run_all(cfg) == run_all(cfg)


def corrupted_compose(outer_wd, inner_wds):
    """Composition that forgets floating cables and misroutes one wire."""
    result = compose(outer_wd, inner_wds)
    floating = result.floating_cables()
    if floating:
        return WiringDiagram(
            result.inner,
            result.outer,
            tuple(c for c in result.cables if c != floating[0]),
            result.inner_map,
            result.outer_map,
        )
    if result.inner_map and len(result.cables) > 1:
        key = sorted(result.inner_map)[0]
        wrong = next(c for c in result.cables if c != result.inner_map[key])
        return WiringDiagram(
            result.inner,
            result.outer,
            result.cables,
            {**result.inner_map, key: wrong},
            result.outer_map,
        )
    return result


class TestMutationSensitivity:
    def test_corrupted_compose_detected(self, monkeypatch):
        monkeypatch.setattr(stars_mod, "compose", corrupted_compose)
        reports = check_operad_laws(GeneratorConfig(seed=2, cases=40))
        assert any(not r.ok for r in reports)

    def test_corrupted_compose_detected_by_pushout_oracle(self, monkeypatch):
        monkeypatch.setattr(stars_mod, "compose", corrupted_compose)
        report = check_pushout_oracle(GeneratorConfig(seed=2, cases=40))
        assert not report.ok

    def test_corrupted_evaluate_detected_by_witnesses(self, monkeypatch):
        real = relations_mod.evaluate

        def corrupted(twd, rels, **kwargs):
            result = real(twd, rels, **kwargs)
            if result.is_empty and twd.arity:
                from wiring.relations import Relation

                return Relation.complete(result.star)
            return result

        monkeypatch.setattr(relations_mod, "evaluate", corrupted)
        report = check_prop_witnesses(ValueDomain("A", (0, 1)))
        assert not report.ok

    def test_failure_reports_are_pinned(self, monkeypatch):
        # Each suite draws its laws' cases in turn from one seeded stream and
        # shrinks the operad and pushout failures; the reports of corrupted
        # operations pin both, case by case.
        real_evaluate, real_part = relations_mod.evaluate, partitions_mod.evaluate

        def evaluate(twd, rels):
            result = real_evaluate(twd, rels)
            return Relation.complete(result.star) if result.is_empty and twd.arity else result

        def part(wd, parts):
            result = real_part(wd, parts)
            return discrete(result.star) if wd.arity == 1 else result

        monkeypatch.setattr(stars_mod, "compose", corrupted_compose)
        monkeypatch.setattr(relations_mod, "evaluate", evaluate)
        monkeypatch.setattr(partitions_mod, "evaluate", part)
        cfg = GeneratorConfig(seed=2, cases=40)
        reports = check_operad_laws(cfg) + [check_pushout_oracle(cfg)]
        reports += [check_algebra_naturality(cfg, "rel"), check_algebra_naturality(cfg, "eq")]
        assert [len(r.failures) for r in reports] == [33, 27, 2, 38, 10, 9]
        text = "\n".join(r.format() for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0f21697af54a32aa7e36a83e5d534481ff01c2a9346e35624766469af8d9be8e"
        )

    def test_shrunk_counterexample_still_fails(self, monkeypatch):
        monkeypatch.setattr(stars_mod, "compose", corrupted_compose)
        report = check_pushout_oracle(GeneratorConfig(seed=2, cases=40))
        assert report.failures
        # minimality: the recorded case is tiny
        description = report.failures[0].description
        assert "Stack" in description


class TestShrinker:
    def test_shrinks_to_minimal_failing_case(self):
        from wiring.laws import _stack_variants, shrink

        rng = random.Random(3)
        cfg = GeneratorConfig(seed=3)
        # failure predicate: composite has at least one floating cable;
        # minimal such stacks cannot drop anything and stay failing
        def fails(stack):
            return bool(stack.compose().floating_cables())

        found = None
        for _ in range(200):
            stack = gen_stack(rng, 2)
            if fails(stack):
                found = stack
                break
        assert found is not None
        small = shrink(found, _stack_variants, fails)
        assert fails(small)
        for variant in _stack_variants(small):
            try:
                assert not fails(variant)
            except Exception:
                continue


class TestWitnesses:
    def test_all_hold_for_two_and_three_values(self):
        for values in ((0, 1), (0, 1, 2)):
            report = check_prop_witnesses(ValueDomain("A", values))
            assert report.ok and report.cases == 10

    def test_single_value_domain_skips(self):
        report = check_prop_witnesses(ValueDomain("A", (0,)))
        assert report.cases == 0
        assert report.skipped


class TestIsConnected:
    def test_identity_on_nonempty_star(self):
        assert is_connected(identity_diagram(Star(["a", "b"])))

    def test_two_disjoint_subdiagrams(self):
        wd = WiringDiagram(
            inner=(Star(["a"]), Star(["b"])),
            outer=Star([]),
            cables=("c", "d"),
            inner_map={(0, "a"): "c", (1, "b"): "d"},
            outer_map={},
        )
        assert not is_connected(wd)

    def test_floating_cable_disconnects(self):
        base = identity_diagram(Star(["a"]))
        wd = WiringDiagram(
            base.inner, base.outer, base.cables + ("f",), base.inner_map, base.outer_map
        )
        assert not is_connected(wd)

    def test_empty_diagram_is_not_connected(self):
        assert not is_connected(WiringDiagram((), Star([]), (), {}, {}))

    def test_composition_preserves_connectivity(self):
        # connected fillers in a connected outer diagram, with nonempty
        # interface stars, compose to a connected diagram
        rng = random.Random(37)
        cfg = GeneratorConfig(seed=37)
        checked = 0
        while checked < 120:
            outer = gen_diagram(rng)
            if any(len(s) == 0 for s in outer.inner) or not is_connected(outer):
                continue
            fillers = [gen_diagram(rng, outer=y) for y in outer.inner]
            if not all(is_connected(f) for f in fillers):
                continue
            assert is_connected(compose(outer, fillers))
            checked += 1
